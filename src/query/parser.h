// Recursive-descent parser for TQL.
//
// Statement grammar (keywords case-insensitive; ';' optional at the end):
//
//   stmt := DEFINE CLASS name [UNDER name (, name)*]
//             [ATTRIBUTES field (, field)*]
//             [METHODS msig (, msig)*]
//             [C-ATTRIBUTES field (, field)*]
//           END
//         | DROP CLASS name
//         | CREATE name [AT instant] [ '(' name ':' expr (, ...)* ')' ]
//         | UPDATE oid SET name '=' expr [DURING interval]
//         | MIGRATE oid TO name [SET name '=' expr (, ...)* ]
//         | DELETE oid
//         | SELECT expr (, expr)* FROM name IN name (, name IN name)*
//             [AT instant] [WHERE expr]
//         | SNAPSHOT oid [AT instant]
//         | HISTORY oid '.' name
//         | TICK [n] | ADVANCE TO instant
//         | WHEN expr                 (temporal selection: when did the
//                                      closed boolean condition hold?)
//         | CHECK
//         | SHOW CLASS name | SHOW OBJECT oid | SHOW CLASSES | SHOW NOW
//         | EXPLAIN stmt
//         | TRIGGER text | CONSTRAINT text
//                                     (Section 7 definitions, kept
//                                      verbatim; single statements only)
//
//   field    := name ':' type          (type in the canonical type syntax)
//   msig     := name '(' [type (, type)*] ')' ':' type
//   interval := '[' instant ',' instant ']'
//   instant  := t<digits> | tnow | <digits>
//
// Expression grammar (precedence low to high):
//
//   expr   := or ; or := and (OR and)* ; and := cmp (AND cmp)*
//   cmp    := sum ( ('='|'<>'|'<'|'<='|'>'|'>='|IN) sum )?
//   sum    := prod (('+'|'-') prod)*
//   prod   := unary (('*'|'/') unary)*
//   unary  := NOT unary | '-' unary | postfix
//   postfix:= primary ('.' name ['@' instant])*
//   primary:= literal | name | '(' expr ')' | call | '{' exprs '}'
//          | '[' exprs ']' | REC '(' name ':' expr (, ...)* ')'
//   call   := (SIZE|DEFINED|SNAPSHOT|VIDENTICAL|VEQUAL|VINSTANT|VWEAK)
//             '(' exprs ')'
#ifndef TCHIMERA_QUERY_PARSER_H_
#define TCHIMERA_QUERY_PARSER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/ast.h"

namespace tchimera {

// Parses one TQL statement.
Result<Statement> ParseStatement(std::string_view input);

// Parses a script: a sequence of statements separated by ';'. DEFINE
// CLASS ... END needs no separator.
Result<std::vector<Statement>> ParseScript(std::string_view input);

// Parses a standalone expression (used by tests and the bench harness).
Result<ExprPtr> ParseExpression(std::string_view input);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_PARSER_H_

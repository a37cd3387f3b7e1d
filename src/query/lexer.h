// Tokenizer for TQL. Keywords are case-insensitive (normalized to lower
// case); identifiers keep their spelling. `i<digits>` lexes as an oid
// literal and `t<digits>` / `tnow` as a time literal, matching the value
// notation of the paper's examples.
#ifndef TCHIMERA_QUERY_LEXER_H_
#define TCHIMERA_QUERY_LEXER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/token.h"

namespace tchimera {

// Tokenizes the whole input (the final token is kEnd). Fails with
// InvalidArgument on malformed literals or stray characters.
Result<std::vector<Token>> Tokenize(std::string_view input);

// Lexes only the first token of `input` (kEnd for blank input), with the
// same whitespace and comment rules as Tokenize.
Result<Token> FirstToken(std::string_view input);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_LEXER_H_

// Tokenizer for TQL. Keywords are case-insensitive (normalized to lower
// case); identifiers keep their spelling. `i<digits>` lexes as an oid
// literal and `t<digits>` / `tnow` as a time literal, matching the value
// notation of the paper's examples.
#ifndef TCHIMERA_QUERY_LEXER_H_
#define TCHIMERA_QUERY_LEXER_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/token.h"

namespace tchimera {

// Tokenizes the whole input (the final token is kEnd). Fails with
// InvalidArgument on malformed literals or stray characters.
Result<std::vector<Token>> Tokenize(std::string_view input);

// The lexer's split, without building tokens. Tokenize cuts its input
// with exactly these two functions, so a text rebuilt from the token
// spellings with one space for each gap lexes to the same tokens — the
// property NormalizePlanKey (query/session.h) relies on.
//
// The end of the whitespace and `--` line comments starting at `pos`
// (`pos` itself when there are none). A comment runs to the newline; it
// starts only between tokens — `k--a` is one identifier.
size_t SkipGap(std::string_view input, size_t pos);
// The end of the token starting at `pos` (< input.size(), not in a gap):
// always > `pos`. A malformed token (a stray byte, a bad escape, an
// unterminated literal) still gets a span; Tokenize fails inside it.
size_t TokenEnd(std::string_view input, size_t pos);

// Lexes only the first token of `input` (kEnd for blank input), with the
// same whitespace and comment rules as Tokenize.
Result<Token> FirstToken(std::string_view input);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_LEXER_H_

#include "query/lexer.h"

#include <cassert>
#include <cctype>
#include <cstdlib>
#include <string>

#include "core/temporal/instant.h"

namespace tchimera {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// The end of the quoted literal whose opening quote is at `pos`: one past
// the closing quote, or the end of the input when it never closes. A
// backslash takes the next byte with it, whatever it is (a bad escape is
// an error the lexer raises inside this span).
size_t QuotedEnd(std::string_view input, size_t pos) {
  ++pos;
  while (pos < input.size()) {
    const char c = input[pos++];
    if (c == '\\') {
      if (pos == input.size()) break;
      ++pos;
    } else if (c == '\'') {
      break;
    }
  }
  return pos;
}

// The end of the number starting at `pos`: digits, a `.` followed by a
// digit, and an exponent `e[+-]digit`; anything else ends it.
size_t NumberEnd(std::string_view input, size_t pos) {
  while (pos < input.size()) {
    const char c = input[pos];
    if (IsDigit(c)) {
      ++pos;
    } else if (c == '.' && pos + 1 < input.size() && IsDigit(input[pos + 1])) {
      ++pos;
    } else if ((c == 'e' || c == 'E') && pos + 1 < input.size()) {
      size_t next = pos + 1;
      if (input[next] == '+' || input[next] == '-') ++next;
      if (next >= input.size() || !IsDigit(input[next])) break;
      pos = next + 1;
    } else {
      break;
    }
  }
  return pos;
}

// True if the identifier-shaped `span` is an oid literal (`i<digits>`)
// or a time literal (`t<digits>`, `tnow`).
bool IsOidOrTimeLiteral(std::string_view span) {
  if (span.size() < 2 || (span[0] != 'i' && span[0] != 't')) return false;
  if (span == "tnow") return true;
  for (size_t i = 1; i < span.size(); ++i) {
    if (!IsDigit(span[i])) return false;
  }
  return true;
}

}  // namespace

size_t SkipGap(std::string_view input, size_t pos) {
  while (pos < input.size()) {
    const char c = input[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
    } else if (c == '-' && pos + 1 < input.size() && input[pos + 1] == '-') {
      // SQL-style line comment; the newline is the next gap byte.
      while (pos < input.size() && input[pos] != '\n') ++pos;
    } else {
      break;
    }
  }
  return pos;
}

size_t TokenEnd(std::string_view input, size_t pos) {
  const char c = input[pos];
  if (c == '\'') return QuotedEnd(input, pos);
  if (c == 'c' && pos + 1 < input.size() && input[pos + 1] == '\'') {
    return QuotedEnd(input, pos + 1);
  }
  if (IsIdentStart(c)) {
    // Oid and time literals are identifier-shaped: `i5-x` is one
    // identifier, so their span is the identifier's.
    ++pos;
    while (pos < input.size() && IsIdentChar(input[pos])) ++pos;
    return pos;
  }
  if (IsDigit(c)) return NumberEnd(input, pos);
  if ((c == '<' || c == '>') && pos + 1 < input.size()) {
    const char next = input[pos + 1];
    if (next == '=' || (c == '<' && next == '>')) return pos + 2;
  }
  return pos + 1;
}

namespace {

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      Token tok;
      TCH_RETURN_IF_ERROR(LexOne(&tok));
      const bool end = tok.kind == TokenKind::kEnd;
      out.push_back(std::move(tok));
      if (end) return out;
    }
  }

  // Lexes the token at the cursor (kEnd at the end of the input).
  Status LexOne(Token* tok) {
    pos_ = SkipGap(input_, pos_);
    tok->position = pos_;
    if (pos_ >= input_.size()) {
      tok->kind = TokenKind::kEnd;
      tok->end = pos_;
      return Status::OK();
    }
    TCH_RETURN_IF_ERROR(Next(tok));
    tok->end = pos_;
    return Status::OK();
  }

 private:
  Status ErrorHere(const std::string& what) {
    return Status::InvalidArgument(what + " at position " +
                                   std::to_string(pos_));
  }

  Status LexQuoted(Token* tok, TokenKind kind) {
    ++pos_;  // opening quote
    std::string body;
    while (pos_ < input_.size()) {
      char c = input_[pos_++];
      if (c == '\'') {
        if (kind == TokenKind::kCharLit && body.size() != 1) {
          return ErrorHere("char literal must contain exactly one character");
        }
        tok->kind = kind;
        tok->text = std::move(body);
        return Status::OK();
      }
      if (c == '\\') {
        if (pos_ >= input_.size()) return ErrorHere("unterminated escape");
        char e = input_[pos_++];
        switch (e) {
          case '\'':
            body.push_back('\'');
            break;
          case '\\':
            body.push_back('\\');
            break;
          case 'n':
            body.push_back('\n');
            break;
          case 't':
            body.push_back('\t');
            break;
          default:
            return ErrorHere("bad escape sequence");
        }
      } else {
        body.push_back(c);
      }
    }
    return ErrorHere("unterminated string literal");
  }

  // Converts the number spelled by `span` (NumberEnd's span: digits,
  // `.digits` and an exponent) — real iff it has a fraction or exponent.
  static void LexNumber(std::string_view span, Token* tok) {
    const std::string text(span);
    if (text.find_first_of(".eE") != std::string::npos) {
      tok->kind = TokenKind::kReal;
      tok->real_value = std::strtod(text.c_str(), nullptr);
    } else {
      tok->kind = TokenKind::kInteger;
      tok->int_value = std::strtoll(text.c_str(), nullptr, 10);
    }
  }

  // Builds the token spanning [pos_, TokenEnd) — the split is TokenEnd's;
  // this only classifies and converts the span.
  Status Next(Token* tok) {
    const size_t end = TokenEnd(input_, pos_);
    const std::string_view span = input_.substr(pos_, end - pos_);
    const char c = span[0];
    if (c == '\'' || (c == 'c' && span.size() > 1 && span[1] == '\'')) {
      if (c == 'c') ++pos_;
      TCH_RETURN_IF_ERROR(LexQuoted(
          tok, c == 'c' ? TokenKind::kCharLit : TokenKind::kString));
      assert(pos_ == end);
      return Status::OK();
    }
    pos_ = end;
    if (IsIdentStart(c)) {
      if (IsOidOrTimeLiteral(span)) {
        const std::string body(span.substr(1));
        if (c == 'i') {
          tok->kind = TokenKind::kOidLit;
          tok->int_value = std::strtoll(body.c_str(), nullptr, 10);
        } else {
          tok->kind = TokenKind::kTimeLit;
          tok->int_value =
              body == "now" ? kNow : std::strtoll(body.c_str(), nullptr, 10);
        }
        return Status::OK();
      }
      std::string word(span);
      std::string lower = word;
      for (char& ch : lower) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      if (IsTqlKeyword(lower)) {
        tok->kind = TokenKind::kKeyword;
        tok->text = std::move(lower);
      } else {
        tok->kind = TokenKind::kIdentifier;
        tok->text = std::move(word);
      }
      return Status::OK();
    }
    if (IsDigit(c)) {
      LexNumber(span, tok);
      return Status::OK();
    }
    // Punctuation.
    switch (c) {
      case '(':
        tok->kind = TokenKind::kLParen;
        return Status::OK();
      case ')':
        tok->kind = TokenKind::kRParen;
        return Status::OK();
      case '{':
        tok->kind = TokenKind::kLBrace;
        return Status::OK();
      case '}':
        tok->kind = TokenKind::kRBrace;
        return Status::OK();
      case '[':
        tok->kind = TokenKind::kLBracket;
        return Status::OK();
      case ']':
        tok->kind = TokenKind::kRBracket;
        return Status::OK();
      case ',':
        tok->kind = TokenKind::kComma;
        return Status::OK();
      case ':':
        tok->kind = TokenKind::kColon;
        return Status::OK();
      case ';':
        tok->kind = TokenKind::kSemicolon;
        return Status::OK();
      case '.':
        tok->kind = TokenKind::kDot;
        return Status::OK();
      case '@':
        tok->kind = TokenKind::kAt;
        return Status::OK();
      case '=':
        tok->kind = TokenKind::kEq;
        return Status::OK();
      case '+':
        tok->kind = TokenKind::kPlus;
        return Status::OK();
      case '-':
        tok->kind = TokenKind::kMinus;
        return Status::OK();
      case '*':
        tok->kind = TokenKind::kStar;
        return Status::OK();
      case '/':
        tok->kind = TokenKind::kSlash;
        return Status::OK();
      case '<':
        tok->kind = span == "<=" ? TokenKind::kLe
                    : span == "<>" ? TokenKind::kNeq
                                   : TokenKind::kLt;
        return Status::OK();
      case '>':
        tok->kind = span == ">=" ? TokenKind::kGe : TokenKind::kGt;
        return Status::OK();
      default:
        --pos_;
        return ErrorHere(std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view input) {
  return Lexer(input).Run();
}

Result<Token> FirstToken(std::string_view input) {
  Token tok;
  TCH_RETURN_IF_ERROR(Lexer(input).LexOne(&tok));
  return tok;
}

}  // namespace tchimera

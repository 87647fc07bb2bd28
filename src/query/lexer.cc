#include "query/lexer.h"

#include <cctype>
#include <limits>

namespace vaq {
namespace query {

bool KeywordEquals(const std::string& text, const char* keyword) {
  size_t i = 0;
  for (; i < text.size() && keyword[i] != '\0'; ++i) {
    if (std::toupper(static_cast<unsigned char>(text[i])) !=
        std::toupper(static_cast<unsigned char>(keyword[i]))) {
      return false;
    }
  }
  return i == text.size() && keyword[i] == '\0';
}

StatusOr<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  // Every token but kEnd consumes at least one byte, so this one
  // allocation holds them all.
  tokens.reserve(n + 1);
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) ||
                       input[j] == '_')) {
        ++j;
      }
      token.kind = TokenKind::kIdentifier;
      token.text = input.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      int64_t value = 0;
      bool overflow = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) {
        const int64_t digit = input[j] - '0';
        if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) {
          overflow = true;
        } else {
          value = value * 10 + digit;
        }
        ++j;
      }
      if (overflow) {
        return Status::InvalidArgument("number literal overflows at offset " +
                                       std::to_string(i));
      }
      token.kind = TokenKind::kNumber;
      token.text = input.substr(i, j - i);
      token.number = value;
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      while (j < n && input[j] != '\'') ++j;
      if (j >= n) {
        return Status::InvalidArgument(
            "unterminated string literal at offset " + std::to_string(i));
      }
      token.kind = TokenKind::kString;
      token.text = input.substr(i + 1, j - i - 1);
      i = j + 1;
    } else {
      switch (c) {
        case '(':
          token.kind = TokenKind::kLParen;
          break;
        case ')':
          token.kind = TokenKind::kRParen;
          break;
        case ',':
          token.kind = TokenKind::kComma;
          break;
        case '.':
          token.kind = TokenKind::kDot;
          break;
        case '=':
          token.kind = TokenKind::kEquals;
          break;
        case '*':
          token.kind = TokenKind::kStar;
          break;
        default:
          return Status::InvalidArgument(
              std::string("unexpected character '") + c + "' at offset " +
              std::to_string(i));
      }
      token.text = std::string(1, c);
      ++i;
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace query
}  // namespace vaq

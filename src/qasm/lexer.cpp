#include "qasm/lexer.hpp"

#include <cctype>
#include <cstdlib>

namespace qxmap::qasm {

namespace {

bool is_ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_digit(char c) noexcept { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  int line = 1;
  int col = 1;
  std::size_t i = 0;

  const auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') advance();
      continue;
    }

    Token tok;
    tok.line = line;
    tok.column = col;

    if (is_ident_start(c)) {
      const std::size_t start = i;
      while (i < src.size() && is_ident_char(src[i])) advance();
      tok.kind = TokenKind::Identifier;
      tok.text = std::string(src.substr(start, i - start));
      out.push_back(std::move(tok));
      continue;
    }
    if (is_digit(c) || (c == '.' && i + 1 < src.size() && is_digit(src[i + 1]))) {
      const std::size_t start = i;
      while (i < src.size() && (is_digit(src[i]) || src[i] == '.')) advance();
      // exponent part
      if (i < src.size() && (src[i] == 'e' || src[i] == 'E')) {
        advance();
        if (i < src.size() && (src[i] == '+' || src[i] == '-')) advance();
        while (i < src.size() && is_digit(src[i])) advance();
      }
      tok.kind = TokenKind::Number;
      tok.text = std::string(src.substr(start, i - start));
      char* end = nullptr;
      tok.number = std::strtod(tok.text.c_str(), &end);
      // The scan takes any run of digits and dots, so "1.2.3" and "1e"
      // reach here; strtod would silently read only their valid prefix.
      if (end != tok.text.c_str() + tok.text.size()) {
        throw LexError("malformed number '" + tok.text + "'", tok.line, tok.column);
      }
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '"') {
      advance();
      const std::size_t start = i;
      while (i < src.size() && src[i] != '"') advance();
      if (i == src.size()) throw LexError("unterminated string", tok.line, tok.column);
      tok.kind = TokenKind::String;
      tok.text = std::string(src.substr(start, i - start));
      advance();  // closing quote
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '>') {
      tok.kind = TokenKind::Arrow;
      advance(2);
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '=' && i + 1 < src.size() && src[i + 1] == '=') {
      tok.kind = TokenKind::EqEq;
      advance(2);
      out.push_back(std::move(tok));
      continue;
    }

    switch (c) {
      case ';': tok.kind = TokenKind::Semicolon; break;
      case ',': tok.kind = TokenKind::Comma; break;
      case '(': tok.kind = TokenKind::LParen; break;
      case ')': tok.kind = TokenKind::RParen; break;
      case '[': tok.kind = TokenKind::LBracket; break;
      case ']': tok.kind = TokenKind::RBracket; break;
      case '{': tok.kind = TokenKind::LBrace; break;
      case '}': tok.kind = TokenKind::RBrace; break;
      case '+': tok.kind = TokenKind::Plus; break;
      case '-': tok.kind = TokenKind::Minus; break;
      case '*': tok.kind = TokenKind::Star; break;
      case '/': tok.kind = TokenKind::Slash; break;
      case '^': tok.kind = TokenKind::Caret; break;
      default:
        throw LexError(std::string("unexpected character '") + c + '\'', line, col);
    }
    advance();
    out.push_back(std::move(tok));
  }

  Token eof;
  eof.kind = TokenKind::EndOfFile;
  eof.line = line;
  eof.column = col;
  out.push_back(std::move(eof));
  return out;
}

}  // namespace qxmap::qasm

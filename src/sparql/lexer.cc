#include "sparql/lexer.h"

#include <algorithm>
#include <cctype>

namespace hbold::sparql {

namespace {

constexpr std::string_view kKeywords[] = {
    "SELECT", "ASK", "DISTINCT", "WHERE", "FILTER", "OPTIONAL", "UNION",
    "PREFIX", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT", "OFFSET",
    "COUNT", "AS", "REGEX", "STR", "BOUND", "ISIRI", "ISLITERAL",
    "CONTAINS", "LCASE", "TRUE", "FALSE"};
constexpr size_t kMaxKeywordLength = [] {
  size_t n = 0;
  for (std::string_view kw : kKeywords) n = std::max(n, kw.size());
  return n;
}();

/// The keyword spelled by `word` in any case, or an empty view into the
/// keyword table. Uppercases into a stack buffer: no allocation.
std::string_view MatchKeyword(std::string_view word) {
  if (word.size() > kMaxKeywordLength) return {};
  char buf[kMaxKeywordLength];
  for (size_t i = 0; i < word.size(); ++i) {
    buf[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(word[i])));
  }
  const std::string_view upper(buf, word.size());
  for (std::string_view kw : kKeywords) {
    if (kw == upper) return kw;
  }
  return {};
}

bool IsPnameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> out;
  // Transient (the parser consumes it), so size it up front: extraction
  // queries measure about 4 bytes per token, 3 at the densest.
  out.reserve(text.size() / 3 + 1);
  size_t pos = 0;
  auto err = [&](std::string msg) {
    return Status::ParseError("sparql lex: " + std::move(msg) + " at offset " +
                              std::to_string(pos));
  };

  while (pos < text.size()) {
    char c = text[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '#') {
      while (pos < text.size() && text[pos] != '\n') ++pos;
      continue;
    }
    size_t start = pos;
    switch (c) {
      case '{':
        out.push_back({TokenKind::kLBrace, "{", start});
        ++pos;
        continue;
      case '}':
        out.push_back({TokenKind::kRBrace, "}", start});
        ++pos;
        continue;
      case '(':
        out.push_back({TokenKind::kLParen, "(", start});
        ++pos;
        continue;
      case ')':
        out.push_back({TokenKind::kRParen, ")", start});
        ++pos;
        continue;
      case ';':
        out.push_back({TokenKind::kSemicolon, ";", start});
        ++pos;
        continue;
      case ',':
        out.push_back({TokenKind::kComma, ",", start});
        ++pos;
        continue;
      case '*':
        out.push_back({TokenKind::kStar, "*", start});
        ++pos;
        continue;
      case '=':
        out.push_back({TokenKind::kEq, "=", start});
        ++pos;
        continue;
      default:
        break;
    }
    if (c == '.') {
      // Distinguish DOT from a decimal like ".5" (we don't support leading
      // dot numbers; always DOT).
      out.push_back({TokenKind::kDot, ".", start});
      ++pos;
      continue;
    }
    if (c == '!') {
      if (pos + 1 < text.size() && text[pos + 1] == '=') {
        out.push_back({TokenKind::kNe, "!=", start});
        pos += 2;
      } else {
        out.push_back({TokenKind::kBang, "!", start});
        ++pos;
      }
      continue;
    }
    if (c == '&') {
      if (pos + 1 < text.size() && text[pos + 1] == '&') {
        out.push_back({TokenKind::kAnd, "&&", start});
        pos += 2;
        continue;
      }
      return err("stray '&'");
    }
    if (c == '|') {
      if (pos + 1 < text.size() && text[pos + 1] == '|') {
        out.push_back({TokenKind::kOr, "||", start});
        pos += 2;
        continue;
      }
      return err("stray '|'");
    }
    if (c == '^') {
      if (pos + 1 < text.size() && text[pos + 1] == '^') {
        out.push_back({TokenKind::kDtCaret, "^^", start});
        pos += 2;
        continue;
      }
      return err("stray '^'");
    }
    if (c == '<') {
      // IRIREF if the contents up to '>' contain no whitespace; otherwise a
      // comparison operator.
      size_t close = text.find('>', pos + 1);
      bool iri = close != std::string_view::npos;
      if (iri) {
        for (size_t i = pos + 1; i < close; ++i) {
          if (std::isspace(static_cast<unsigned char>(text[i])) ||
              text[i] == '<') {
            iri = false;
            break;
          }
        }
      }
      if (iri) {
        out.push_back(
            {TokenKind::kIri, std::string(text.substr(pos + 1, close - pos - 1)),
             start});
        pos = close + 1;
        continue;
      }
      if (pos + 1 < text.size() && text[pos + 1] == '=') {
        out.push_back({TokenKind::kLe, "<=", start});
        pos += 2;
      } else {
        out.push_back({TokenKind::kLt, "<", start});
        ++pos;
      }
      continue;
    }
    if (c == '>') {
      if (pos + 1 < text.size() && text[pos + 1] == '=') {
        out.push_back({TokenKind::kGe, ">=", start});
        pos += 2;
      } else {
        out.push_back({TokenKind::kGt, ">", start});
        ++pos;
      }
      continue;
    }
    if (c == '?' || c == '$') {
      ++pos;
      size_t vstart = pos;
      while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
      if (pos == vstart) return err("empty variable name");
      out.push_back(
          {TokenKind::kVar, std::string(text.substr(vstart, pos - vstart)),
           start});
      continue;
    }
    if (c == '@') {
      ++pos;
      size_t astart = pos;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '-')) {
        ++pos;
      }
      if (pos == astart) return err("empty language tag");
      out.push_back(
          {TokenKind::kAt, std::string(text.substr(astart, pos - astart)),
           start});
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      ++pos;
      std::string value;
      while (true) {
        if (pos >= text.size()) return err("unterminated string");
        char ch = text[pos++];
        if (ch == quote) break;
        if (ch == '\\') {
          if (pos >= text.size()) return err("bad escape");
          char e = text[pos++];
          switch (e) {
            case 'n':
              value += '\n';
              break;
            case 't':
              value += '\t';
              break;
            case 'r':
              value += '\r';
              break;
            case '\\':
              value += '\\';
              break;
            case '\'':
              value += '\'';
              break;
            case '"':
              value += '"';
              break;
            default:
              return err("unknown escape");
          }
        } else {
          value += ch;
        }
      }
      out.push_back({TokenKind::kString, std::move(value), start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        ((c == '+' || c == '-') && pos + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[pos + 1])))) {
      size_t nstart = pos;
      if (c == '+' || c == '-') ++pos;
      while (pos < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E')) {
        // Don't eat a terminating DOT: "10." at pattern end.
        if (text[pos] == '.' &&
            (pos + 1 >= text.size() ||
             !std::isdigit(static_cast<unsigned char>(text[pos + 1])))) {
          break;
        }
        ++pos;
      }
      out.push_back(
          {TokenKind::kNumber, std::string(text.substr(nstart, pos - nstart)),
           start});
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t wstart = pos;
      while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
      // prefix:local form?
      if (pos < text.size() && text[pos] == ':') {
        ++pos;
        while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
        out.push_back({TokenKind::kPname,
                       std::string(text.substr(wstart, pos - wstart)), wstart});
        continue;
      }
      const std::string_view word = text.substr(wstart, pos - wstart);
      if (word == "a") {
        out.push_back({TokenKind::kA, "a", wstart});
      } else if (std::string_view kw = MatchKeyword(word); !kw.empty()) {
        out.push_back({TokenKind::kKeyword, std::string(kw), wstart});
      } else {
        return err("unknown word '" + std::string(word) + "'");
      }
      continue;
    }
    if (c == ':') {
      // Default-prefix pname ":local".
      ++pos;
      size_t lstart = pos;
      while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
      out.push_back({TokenKind::kPname,
                     ":" + std::string(text.substr(lstart, pos - lstart)),
                     start});
      continue;
    }
    return err(std::string("unexpected character '") + c + "'");
  }
  out.push_back({TokenKind::kEnd, "", text.size()});
  return out;
}

}  // namespace hbold::sparql

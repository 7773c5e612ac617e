#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace hbold {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  std::string h = ToLower(haystack);
  std::string n = ToLower(needle);
  return h.find(n) != std::string::npos;
}

std::string IriLocalName(std::string_view iri) {
  size_t hash = iri.rfind('#');
  if (hash != std::string_view::npos && hash + 1 < iri.size()) {
    return std::string(iri.substr(hash + 1));
  }
  // Ignore a trailing slash.
  size_t end = iri.size();
  while (end > 0 && iri[end - 1] == '/') --end;
  size_t slash = iri.rfind('/', end == 0 ? std::string_view::npos : end - 1);
  if (slash != std::string_view::npos && slash + 1 < end) {
    return std::string(iri.substr(slash + 1, end - slash - 1));
  }
  return std::string(iri.substr(0, end));
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

bool ParseHexU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

void AppendXmlEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      case '"':
        out->append("&quot;");
        break;
      case '\'':
        out->append("&apos;");
        break;
      case '\t':
      case '\n':
      case '\r':
        out->push_back(c);
        break;
      default:
        // XML 1.0 has no representation for the other C0 controls, not
        // even as character references.
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append("\xEF\xBF\xBD");  // U+FFFD
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendXmlEscaped(&out, s);
  return out;
}

namespace {

bool CharEq(char a, char b, bool icase) {
  if (!icase) return a == b;
  return std::tolower(static_cast<unsigned char>(a)) ==
         std::tolower(static_cast<unsigned char>(b));
}

bool CharInRange(char c, char lo, char hi, bool icase) {
  if (lo <= c && c <= hi) return true;
  if (!icase) return false;
  char l = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  char u = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return (lo <= l && l <= hi) || (lo <= u && u <= hi);
}

/// One pattern atom: a literal char, '.', or a character class.
struct Atom {
  char ch = 0;                 // literal (when not dot/class)
  bool is_dot = false;
  bool is_class = false;
  std::string_view cls;        // class body, brackets stripped
  size_t len = 0;              // characters consumed from the pattern
};

/// Parses the atom at the front of `p` (non-empty). Returns false on a
/// malformed pattern (unclosed class, trailing backslash).
bool ParseAtom(std::string_view p, Atom* atom) {
  if (p[0] == '\\') {
    if (p.size() < 2) return false;
    atom->ch = p[1];
    atom->len = 2;
    return true;
  }
  if (p[0] == '[') {
    size_t close = std::string_view::npos;
    for (size_t i = 1; i < p.size(); ++i) {
      if (p[i] == '\\') {
        ++i;
      } else if (p[i] == ']') {
        close = i;
        break;
      }
    }
    if (close == std::string_view::npos) return false;
    atom->is_class = true;
    atom->cls = p.substr(1, close - 1);
    atom->len = close + 1;
    return true;
  }
  atom->is_dot = p[0] == '.';
  atom->ch = p[0];
  atom->len = 1;
  return true;
}

/// True when `c` is in the class body `cls` ('^' prefix negates; 'a-z'
/// ranges; '\x' escapes).
bool ClassMatch(std::string_view cls, char c, bool icase) {
  bool negate = false;
  size_t i = 0;
  if (!cls.empty() && cls[0] == '^') {
    negate = true;
    i = 1;
  }
  bool hit = false;
  while (i < cls.size()) {
    char lo = cls[i];
    if (lo == '\\' && i + 1 < cls.size()) {
      lo = cls[++i];
    }
    if (i + 2 < cls.size() && cls[i + 1] == '-' && cls[i + 2] != ']') {
      if (CharInRange(c, lo, cls[i + 2], icase)) hit = true;
      i += 3;
    } else {
      if (CharEq(c, lo, icase)) hit = true;
      ++i;
    }
  }
  return hit != negate;
}

bool AtomMatch(const Atom& atom, char c, bool icase) {
  if (atom.is_dot) return true;
  if (atom.is_class) return ClassMatch(atom.cls, c, icase);
  return CharEq(c, atom.ch, icase);
}

/// Matches `p` (one alternative, '^' stripped) against the start of `t`.
bool MatchHere(std::string_view p, std::string_view t, bool icase) {
  if (p.empty()) return true;
  if (p[0] == '$' && p.size() == 1) return t.empty();
  Atom atom;
  if (!ParseAtom(p, &atom)) return false;  // malformed: match nothing
  std::string_view rest = p.substr(atom.len);
  char quant = rest.empty() ? '\0' : rest[0];
  if (quant == '*' || quant == '+' || quant == '?') {
    rest = rest.substr(1);
    const size_t min_reps = quant == '+' ? 1 : 0;
    const size_t max_reps = quant == '?' ? 1 : t.size();
    for (size_t i = 0;; ++i) {
      if (i >= min_reps && MatchHere(rest, t.substr(i), icase)) return true;
      if (i >= max_reps || i >= t.size() || !AtomMatch(atom, t[i], icase)) {
        return false;
      }
    }
  }
  if (t.empty() || !AtomMatch(atom, t[0], icase)) return false;
  return MatchHere(rest, t.substr(1), icase);
}

/// Matches one '|'-free alternative with regex_search semantics.
bool MatchAlternative(std::string_view text, std::string_view p, bool icase) {
  if (!p.empty() && p[0] == '^') {
    return MatchHere(p.substr(1), text, icase);
  }
  for (size_t i = 0;; ++i) {
    if (MatchHere(p, text.substr(i), icase)) return true;
    if (i >= text.size()) return false;
  }
}

/// Calls `fn(alternative)` for each top-level '|'-separated piece of
/// `pattern` until one returns true ('|' inside classes or escaped is
/// not a separator).
template <typename Fn>
bool AnyAlternative(std::string_view pattern, Fn fn) {
  size_t start = 0;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '\\') {
      ++i;
    } else if (pattern[i] == '[') {
      while (i + 1 < pattern.size()) {
        ++i;
        if (pattern[i] == '\\') {
          ++i;
        } else if (pattern[i] == ']') {
          break;
        }
      }
    } else if (pattern[i] == '|') {
      if (fn(pattern.substr(start, i - start))) return true;
      start = i + 1;
    }
  }
  return fn(pattern.substr(start));
}

}  // namespace

bool LitePatternMatch(std::string_view text, std::string_view pattern,
                      bool ignore_case) {
  return AnyAlternative(pattern, [&](std::string_view alt) {
    return MatchAlternative(text, alt, ignore_case);
  });
}

bool LitePatternSupported(std::string_view pattern) {
  // prev_atom: the previous position produced an atom a quantifier may
  // legally apply to (ECMAScript rejects "a**" / leading "+").
  // at_alt_start: we are at the first position of an alternative, where
  // '^' is an anchor; anywhere else the matcher would take it literally
  // while ECMAScript treats it as an assertion — reject the mismatch.
  bool prev_atom = false;
  bool at_alt_start = true;
  for (size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    if (c == '|') {
      prev_atom = false;
      at_alt_start = true;
      continue;
    }
    if (c == '^') {
      if (!at_alt_start) return false;  // mid-pattern assertion
      prev_atom = false;
      at_alt_start = false;
      continue;
    }
    at_alt_start = false;
    if (c == '\\') {
      if (i + 1 >= pattern.size()) return false;  // trailing backslash
      char e = pattern[i + 1];
      // Escaped metacharacters are literals; alphanumeric escapes are
      // shorthand classes / backreferences (\d \w \s \b \1 ...) that the
      // matcher would take literally — reject those.
      if (std::isalnum(static_cast<unsigned char>(e))) return false;
      ++i;
      prev_atom = true;
      continue;
    }
    if (c == '(' || c == ')' || c == '{' || c == '}') return false;
    if (c == '[') {
      bool closed = false;
      while (i + 1 < pattern.size()) {
        ++i;
        if (pattern[i] == '\\') {
          ++i;
        } else if (pattern[i] == ']') {
          closed = true;
          break;
        }
      }
      if (!closed) return false;
      prev_atom = true;
      continue;
    }
    if (c == '*' || c == '+' || c == '?') {
      if (!prev_atom) return false;  // nothing to repeat
      prev_atom = false;
      continue;
    }
    if (c == '$') {
      // Only an anchor at an alternative end, for the same reason as '^'.
      if (i + 1 != pattern.size() && pattern[i + 1] != '|') return false;
      prev_atom = false;
      continue;
    }
    prev_atom = true;
  }
  return true;
}

}  // namespace hbold

#ifndef HBOLD_COMMON_STRING_UTIL_H_
#define HBOLD_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hbold {

/// Splits `s` on `sep` (single character). Empty pieces are kept, so
/// Split("a,,b", ',') == {"a", "", "b"}. Split("", ',') == {""}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII-only lowercase copy.
std::string ToLower(std::string_view s);

/// True if `needle` occurs in `haystack` ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Extracts a human-friendly local name from an IRI: the fragment after '#'
/// if present, else the last path segment. "http://x.org/onto#Person" ->
/// "Person"; "http://x.org/Person" -> "Person".
std::string IriLocalName(std::string_view iri);

/// Fixed-width lowercase hex of a 64-bit value ("%016llx") — the JSON-safe
/// encoding for 64-bit figures (content hashes, store generations, class
/// fingerprints): JSON numbers are doubles and silently lose precision
/// past 2^53.
std::string HexU64(uint64_t v);

/// Inverse of HexU64. Returns false (leaving *out untouched) unless `s` is
/// entirely 1-16 lowercase/uppercase hex digits.
bool ParseHexU64(std::string_view s, uint64_t* out);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Escapes a string for embedding in XML/SVG text or attribute content.
/// The C0 control characters XML 1.0 forbids (all but tab, newline and
/// carriage return) become U+FFFD.
std::string XmlEscape(std::string_view s);

/// XmlEscape that appends to `out` instead of returning a new string.
void AppendXmlEscaped(std::string* out, std::string_view s);

/// Matches `text` against a regex subset without ever constructing a
/// std::regex (which allocates and compiles an NFA per call — far too
/// expensive for the per-row SPARQL FILTER path). Supported syntax:
///   ^        anchor at start        $      anchor at end
///   .        any single character   [a-z]  character class ([^...] negates)
///   * + ?    quantifiers on the preceding atom
///   a|b      alternation (top-level; groups are not supported)
///   \c       literal character c (escapes the metacharacters above)
/// Every other character matches itself. Without a leading '^' an
/// alternative may match anywhere in `text` (regex_search semantics).
/// `ignore_case` compares ASCII case-insensitively (the REGEX "i" flag).
///
/// Callers handing through arbitrary user patterns must gate on
/// LitePatternSupported first: patterns using features outside the subset
/// (groups, braces, backreferences, ...) would otherwise be matched with
/// the metacharacters taken literally.
bool LitePatternMatch(std::string_view text, std::string_view pattern,
                      bool ignore_case = false);

/// True when `pattern` stays within the LitePatternMatch subset AND would
/// mean the same thing to ECMAScript: no unescaped '(' ')' '{' '}', no
/// shorthand class / backreference escapes (\d \w \s \1 ...), no
/// quantifier with nothing to repeat ("+39", "a**"), anchors only at
/// alternative boundaries, every '[' class closed, no trailing
/// backslash. Callers should treat unsupported patterns as errors rather
/// than silently matching them literally.
bool LitePatternSupported(std::string_view pattern);

}  // namespace hbold

#endif  // HBOLD_COMMON_STRING_UTIL_H_

#ifndef DWQA_COMMON_STRING_UTIL_H_
#define DWQA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dwqa {

/// ASCII-lowercased copy of `s` (the corpora generated by this project are
/// ASCII apart from the degree sign, which is passed through unchanged).
std::string ToLower(std::string_view s);

/// True if `a` and `b` are equal after ASCII lowercasing (ToLower(a) ==
/// ToLower(b)), without allocating either copy.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// ASCII-uppercased copy of `s`.
std::string ToUpper(std::string_view s);

/// Copy of `s` without leading/trailing whitespace.
std::string Trim(std::string_view s);

/// Splits on `sep`; empty fields are kept (like absl::StrSplit).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any run of whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character of `s` is an ASCII digit (and `s` is non-empty).
bool IsDigits(std::string_view s);

/// True if `s` parses as a decimal number ("8", "46.4", "-3.5").
bool IsNumber(std::string_view s);

/// True if `s` starts with an ASCII uppercase letter.
bool IsCapitalized(std::string_view s);

/// Levenshtein edit distance; used by the partial ontology-concept matcher.
size_t EditDistance(std::string_view a, std::string_view b);

/// Normalized similarity in [0,1]: 1 - dist / max(len). Both lowercased
/// beforehand by the caller if case-insensitivity is desired.
double StringSimilarity(std::string_view a, std::string_view b);

/// Formats a double with `digits` fractional digits (locale-independent).
std::string FormatDouble(double value, int digits);

}  // namespace dwqa

#endif  // DWQA_COMMON_STRING_UTIL_H_

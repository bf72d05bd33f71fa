// Minimal string formatting helpers (GCC 12 lacks std::format).

#ifndef SKYWALKER_COMMON_STRINGS_H_
#define SKYWALKER_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace skywalker {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> StrSplit(std::string_view s, char delim);

bool StartsWith(std::string_view s, std::string_view prefix);

// Levenshtein edit distance (insert/delete/substitute, all cost 1).
size_t EditDistance(std::string_view a, std::string_view b);

// Candidates within edit distance <= max(2, |name| / 4) of `name`, closest
// first (ties keep candidate order). Backs "unknown scenario" suggestions in
// the skybench CLI.
std::vector<std::string> SuggestClosest(
    std::string_view name, const std::vector<std::string>& candidates);

// Parses the whole of `text` as a base-10 integer in [0, max] into *value.
// False (and *value untouched) for an empty string, a sign, whitespace, any
// other character, or a value above `max`. Backs the CLIs' numeric flags.
bool ParseUnsigned(std::string_view text, uint64_t max, uint64_t* value);

// A CLI count flag's value: the whole of `text` as an integer in
// [1, INT_MAX], by ParseUnsigned's rules. Otherwise prints "<program>:
// <flag> must be an integer >= 1, got '<text>'" to stderr and returns false
// with *value untouched.
bool ParseCountFlag(const char* program, const char* flag,
                    std::string_view text, int* value);

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_STRINGS_H_

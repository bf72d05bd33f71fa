#include "src/common/strings.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <system_error>
#include <utility>

namespace skywalker {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> StrSplit(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  // Single-row dynamic program; inputs here are CLI-scenario-name sized.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) {
    row[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
    }
  }
  return row[b.size()];
}

std::vector<std::string> SuggestClosest(
    std::string_view name, const std::vector<std::string>& candidates) {
  const size_t threshold = std::max<size_t>(2, name.size() / 4);
  std::vector<std::pair<size_t, std::string>> scored;
  for (const std::string& candidate : candidates) {
    const size_t distance = EditDistance(name, candidate);
    if (distance <= threshold) {
      scored.emplace_back(distance, candidate);
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& lhs, const auto& rhs) {
                     return lhs.first < rhs.first;
                   });
  std::vector<std::string> out;
  out.reserve(scored.size());
  for (auto& [distance, candidate] : scored) {
    out.push_back(std::move(candidate));
  }
  return out;
}

bool ParseUnsigned(std::string_view text, uint64_t max, uint64_t* value) {
  // from_chars takes no sign or whitespace for an unsigned type, and
  // reports overflow instead of saturating.
  uint64_t parsed = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result result =
      std::from_chars(text.data(), end, parsed);
  if (result.ec != std::errc() || result.ptr != end || parsed > max) {
    return false;
  }
  *value = parsed;
  return true;
}

bool ParseCountFlag(const char* program, const char* flag,
                    std::string_view text, int* value) {
  uint64_t parsed = 0;
  if (!ParseUnsigned(text, INT_MAX, &parsed) || parsed < 1) {
    std::fprintf(stderr, "%s: %s must be an integer >= 1, got '%.*s'\n",
                  program, flag, static_cast<int>(text.size()), text.data());
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

}  // namespace skywalker

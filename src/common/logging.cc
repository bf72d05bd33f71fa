#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace skywalker {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  if (level_ == LogLevel::kFatal) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace internal
}  // namespace skywalker

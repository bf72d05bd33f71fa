// Error logging and always-on invariant checks.
//
// Usage:
//   SKYWALKER_LOG(Error) << "no healthy LB to absorb replicas of LB " << id;
//   SKYWALKER_CHECK(n >= 0) << "negative count " << n;
//
// Every message goes to stderr; a failed check then aborts.

#ifndef SKYWALKER_COMMON_LOGGING_H_
#define SKYWALKER_COMMON_LOGGING_H_

#include <sstream>

namespace skywalker {

enum class LogLevel : int {
  kWarning,
  kError,
  kFatal,
};

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace skywalker

#define SKYWALKER_LOG(severity)                                              \
  ::skywalker::internal::LogVoidify() &                                      \
      ::skywalker::internal::LogMessage(::skywalker::LogLevel::k##severity,  \
                                        __FILE__, __LINE__)                  \
          .stream()

// Always-on invariant check (independent of NDEBUG); logs and aborts.
#define SKYWALKER_CHECK(condition)                                           \
  (condition) ? (void)0                                                      \
              : ::skywalker::internal::LogVoidify() &                        \
                    ::skywalker::internal::LogMessage(                       \
                        ::skywalker::LogLevel::kFatal, __FILE__, __LINE__)   \
                        .stream()                                            \
                    << "Check failed: " #condition " "

namespace skywalker {
namespace internal {

// Makes the macro usable as a statement with a void result.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace skywalker

#endif  // SKYWALKER_COMMON_LOGGING_H_

#ifndef PIOQO_COMMON_LOGGING_H_
#define PIOQO_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace pioqo {
namespace internal_logging {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Minimum level actually emitted; settable via SetLogLevel or the
/// PIOQO_LOG_LEVEL environment variable (0..4) read at first use.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

/// Accumulates one log line and flushes it (with level prefix) on
/// destruction; terminates the process for kFatal.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace pioqo

#define PIOQO_LOG_INTERNAL(level) \
  ::pioqo::internal_logging::LogMessage(level, __FILE__, __LINE__)

#define PIOQO_LOG_DEBUG \
  PIOQO_LOG_INTERNAL(::pioqo::internal_logging::LogLevel::kDebug)
#define PIOQO_LOG_INFO \
  PIOQO_LOG_INTERNAL(::pioqo::internal_logging::LogLevel::kInfo)
#define PIOQO_LOG_WARNING \
  PIOQO_LOG_INTERNAL(::pioqo::internal_logging::LogLevel::kWarning)
#define PIOQO_LOG_ERROR \
  PIOQO_LOG_INTERNAL(::pioqo::internal_logging::LogLevel::kError)
#define PIOQO_LOG_FATAL \
  PIOQO_LOG_INTERNAL(::pioqo::internal_logging::LogLevel::kFatal)

/// Invariant check for programmer errors; always active (not compiled out)
/// because the library's correctness claims rest on these holding.
#define PIOQO_CHECK(cond)                                   \
  if (!(cond))                                              \
  PIOQO_LOG_FATAL << "Check failed: " #cond << " "

#define PIOQO_CHECK_OK(expr)                                    \
  do {                                                          \
    ::pioqo::Status _st = (expr);                               \
    if (!_st.ok()) PIOQO_LOG_FATAL << "Status not OK: " << _st.ToString(); \
  } while (false)

#endif  // PIOQO_COMMON_LOGGING_H_

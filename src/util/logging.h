// Leveled stderr logging. Controlled by MRVD_LOG_LEVEL (error|warn|info|debug,
// default info). Kept intentionally tiny: simulation hot paths never log.
#pragma once

#include <sstream>

namespace mrvd {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Current process-wide log threshold (read once from the environment).
LogLevel GetLogLevel();

namespace internal {

/// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define MRVD_LOG(level)                                              \
  if (::mrvd::LogLevel::k##level <= ::mrvd::GetLogLevel())           \
  ::mrvd::internal::LogMessage(::mrvd::LogLevel::k##level, __FILE__, \
                               __LINE__)

}  // namespace mrvd

#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mrvd {

namespace {

LogLevel ParseLevelFromEnv() {
  const char* env = std::getenv("MRVD_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kInfo;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  return LogLevel::kInfo;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kDebug:
      return "DEBUG";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() {
  static const LogLevel level = ParseLevelFromEnv();
  return level;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelName(level) << " " << (base ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace internal
}  // namespace mrvd

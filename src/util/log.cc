#include "util/log.h"

#include <atomic>
#include <cstdio>

namespace vrc::util {

std::atomic<int> internal::g_log_level{static_cast<int>(LogLevel::kWarn)};

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { internal::g_log_level.store(static_cast<int>(level)); }

LogLevel log_level() { return static_cast<LogLevel>(internal::g_log_level.load()); }

void log_line(LogLevel level, const std::string& message) {
  if (!log_enabled(level)) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}

}  // namespace vrc::util

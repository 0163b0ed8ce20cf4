// Lightweight leveled logging used by the simulator for event tracing.
//
// Logging defaults to kWarn so simulations are silent; `vrc_run --log`
// raises the level to narrate scheduler decisions (blocking detection,
// reservations, migrations) on a timeline. A VRC_LOG below the level costs
// one load and a branch: its operands are not evaluated.
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace vrc::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that is actually emitted.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits one line to stderr if `level` is at or above the global level.
void log_line(LogLevel level, const std::string& message);

namespace internal {

/// The global level, read inline by log_enabled().
extern std::atomic<int> g_log_level;

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { log_line(level_, stream_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Turns the streamed LogMessage into a void operand of VRC_LOG's `?:`.
/// `&` binds looser than `<<`, so the whole chain lands on the right.
struct LogVoidify {
  void operator&(const LogMessage&) const {}
};

}  // namespace internal

/// True when a message at `level` would be emitted.
inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= internal::g_log_level.load(std::memory_order_relaxed);
}

}  // namespace vrc::util

// Tests the level before the message object exists, so a disabled VRC_LOG
// neither builds a stream nor evaluates its operands.
#define VRC_LOG(level)                                    \
  !::vrc::util::log_enabled(::vrc::util::LogLevel::level) \
      ? (void)0                                           \
      : ::vrc::util::internal::LogVoidify() &             \
            ::vrc::util::internal::LogMessage(::vrc::util::LogLevel::level)

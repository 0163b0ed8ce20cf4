#include "util/log.h"

#include <gtest/gtest.h>

namespace vrc::util {
namespace {

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log_level()) {}
  ~LogLevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(LogTest, DefaultLevelSuppressesInfo) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  VRC_LOG(kInfo) << "hidden";
  VRC_LOG(kWarn) << "visible";
  const std::string output = testing::internal::GetCapturedStderr();
  EXPECT_EQ(output.find("hidden"), std::string::npos);
  EXPECT_NE(output.find("visible"), std::string::npos);
  EXPECT_NE(output.find("[WARN]"), std::string::npos);
}

TEST(LogTest, LevelChangeTakesEffect) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  VRC_LOG(kDebug) << "now " << 42 << " visible";
  const std::string output = testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("now 42 visible"), std::string::npos);
  EXPECT_NE(output.find("[DEBUG]"), std::string::npos);
}

TEST(LogTest, DisabledLevelDoesNotEvaluateOperands) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kWarn);
  int evaluated = 0;
  const auto operand = [&evaluated] { return ++evaluated; };
  testing::internal::CaptureStderr();
  VRC_LOG(kDebug) << "skipped " << operand();
  VRC_LOG(kInfo) << operand() << operand();
  EXPECT_EQ(evaluated, 0);
  VRC_LOG(kWarn) << "counted " << operand();
  EXPECT_EQ(evaluated, 1);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("counted 1"), std::string::npos);
}

TEST(LogTest, OffSilencesEverything) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kOff);
  testing::internal::CaptureStderr();
  VRC_LOG(kError) << "nope";
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

TEST(LogTest, EveryLevelFiltersStrictlyBelowItself) {
  LogLevelGuard guard;
  const struct {
    LogLevel threshold;
    bool debug, info, warn, error;
  } kCases[] = {
      {LogLevel::kDebug, true, true, true, true},
      {LogLevel::kInfo, false, true, true, true},
      {LogLevel::kWarn, false, false, true, true},
      {LogLevel::kError, false, false, false, true},
      {LogLevel::kOff, false, false, false, false},
  };
  for (const auto& c : kCases) {
    set_log_level(c.threshold);
    testing::internal::CaptureStderr();
    log_line(LogLevel::kDebug, "dbg-probe");
    log_line(LogLevel::kInfo, "info-probe");
    log_line(LogLevel::kWarn, "warn-probe");
    log_line(LogLevel::kError, "error-probe");
    const std::string output = testing::internal::GetCapturedStderr();
    EXPECT_EQ(output.find("dbg-probe") != std::string::npos, c.debug)
        << "threshold=" << static_cast<int>(c.threshold);
    EXPECT_EQ(output.find("info-probe") != std::string::npos, c.info)
        << "threshold=" << static_cast<int>(c.threshold);
    EXPECT_EQ(output.find("warn-probe") != std::string::npos, c.warn)
        << "threshold=" << static_cast<int>(c.threshold);
    EXPECT_EQ(output.find("error-probe") != std::string::npos, c.error)
        << "threshold=" << static_cast<int>(c.threshold);
  }
}

TEST(LogTest, LogLevelRoundTrips) {
  LogLevelGuard guard;
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    set_log_level(level);
    EXPECT_EQ(log_level(), level);
  }
}

TEST(LogTest, EmptyMessageStillEmitsTaggedLine) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  log_line(LogLevel::kInfo, "");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[INFO] \n");
}

TEST(LogTest, StreamsArbitraryTypes) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  VRC_LOG(kInfo) << "pi=" << 3.5 << " s=" << std::string("abc") << " b=" << true;
  const std::string output = testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("pi=3.5 s=abc b=1"), std::string::npos);
}

}  // namespace
}  // namespace vrc::util

#include "util/flags.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

namespace vrc::util {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(FlagSetTest, ParsesIntWithEquals) {
  FlagSet flags;
  int value = 0;
  flags.add_int("count", &value, "a count");
  auto argv = argv_of({"--count=42"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, 42);
}

TEST(FlagSetTest, ParsesIntWithSeparateValue) {
  FlagSet flags;
  int value = 0;
  flags.add_int("count", &value, "a count");
  auto argv = argv_of({"--count", "7"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, 7);
}

TEST(FlagSetTest, ParsesNegativeInt) {
  FlagSet flags;
  int value = 0;
  flags.add_int("delta", &value, "");
  auto argv = argv_of({"--delta=-5"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, -5);
}

TEST(FlagSetTest, BoolWithoutValueIsTrue) {
  FlagSet flags;
  bool value = false;
  flags.add_bool("verbose", &value, "");
  auto argv = argv_of({"--verbose"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(value);
}

TEST(FlagSetTest, BoolExplicitFalse) {
  FlagSet flags;
  bool value = true;
  flags.add_bool("verbose", &value, "");
  auto argv = argv_of({"--verbose=false"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(value);
}

TEST(FlagSetTest, ParsesString) {
  FlagSet flags;
  std::string value;
  flags.add_string("name", &value, "");
  auto argv = argv_of({"--name=hello world"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, "hello world");
}

TEST(FlagSetTest, UnknownFlagFails) {
  FlagSet flags;
  auto argv = argv_of({"--nope"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagSetTest, BadIntFails) {
  FlagSet flags;
  int value = 0;
  flags.add_int("count", &value, "");
  auto argv = argv_of({"--count=abc"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagSetTest, MissingValueFails) {
  FlagSet flags;
  int value = 0;
  flags.add_int("count", &value, "");
  auto argv = argv_of({"--count"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagSetTest, HelpReturnsFalse) {
  FlagSet flags;
  auto argv = argv_of({"--help"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  // Help is a request, not an error: the caller exits 0.
  EXPECT_TRUE(flags.help_requested());
  auto unknown = argv_of({"--nope"});
  EXPECT_FALSE(flags.parse(static_cast<int>(unknown.size()), unknown.data()));
  EXPECT_FALSE(flags.help_requested());
}

TEST(FlagSetTest, PositionalArgsCollected) {
  FlagSet flags;
  int value = 0;
  flags.add_int("n", &value, "");
  auto argv = argv_of({"alpha", "--n=3", "beta"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(FlagSetTest, DefaultsSurviveWhenNotGiven) {
  FlagSet flags;
  int value = 99;
  flags.add_int("n", &value, "");
  auto argv = argv_of({});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, 99);
}

TEST(FlagSetTest, RepeatedFlagLastValueWins) {
  FlagSet flags;
  int value = 0;
  flags.add_int("count", &value, "");
  auto argv = argv_of({"--count=1", "--count", "2", "--count=3"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, 3);
}

TEST(FlagSetTest, RepeatedFlagStopsAtFirstBadValue) {
  FlagSet flags;
  int value = 0;
  flags.add_int("count", &value, "");
  auto argv = argv_of({"--count=4", "--count=oops", "--count=9"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, 4);  // the valid assignment before the error sticks
}

TEST(FlagSetTest, JobsZeroIsParsedVerbatim) {
  // --jobs 0 means "auto" to the sweep benches; the parser itself must pass
  // the literal 0 through rather than rejecting or defaulting it.
  FlagSet flags;
  int jobs = 8;
  flags.add_int("jobs", &jobs, "worker threads (0 = hardware concurrency)");
  auto argv = argv_of({"--jobs", "0"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(jobs, 0);
}

TEST(FlagSetTest, MissingValueAtEndOfArgvFails) {
  FlagSet flags;
  std::string value = "keep";
  flags.add_string("name", &value, "");
  auto argv = argv_of({"positional", "--name"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, "keep");
}

TEST(FlagSetTest, EmptyEqualsValueForIntFails) {
  FlagSet flags;
  int value = 11;
  flags.add_int("count", &value, "");
  auto argv = argv_of({"--count="});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, 11);
}

TEST(FlagSetTest, EmptyEqualsValueForStringIsEmpty) {
  FlagSet flags;
  std::string value = "original";
  flags.add_string("name", &value, "");
  auto argv = argv_of({"--name="});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, "");
}

TEST(FlagSetTest, NegativeSeparateValueIsConsumedAsValue) {
  FlagSet flags;
  int value = 0;
  flags.add_int("delta", &value, "");
  auto argv = argv_of({"--delta", "-5"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, -5);
  EXPECT_TRUE(flags.positional().empty());
}

TEST(FlagSetTest, BoolRejectsGarbageValue) {
  FlagSet flags;
  bool value = false;
  flags.add_bool("verbose", &value, "");
  auto argv = argv_of({"--verbose=maybe"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagSetTest, BoolTakesTheSharedVocabulary) {
  // --csv=on used to fail while `set network_contention=on` worked.
  for (const auto& [text, expected] : {std::pair{"--verbose=on", true}, {"--verbose=yes", true},
                                       {"--verbose=true", true}, {"--verbose=1", true},
                                       {"--verbose=off", false}, {"--verbose=no", false},
                                       {"--verbose=false", false}, {"--verbose=0", false}}) {
    FlagSet flags;
    bool value = !expected;
    flags.add_bool("verbose", &value, "");
    auto argv = argv_of({text});
    ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data())) << text;
    EXPECT_EQ(value, expected) << text;
  }
}

TEST(FlagSetTest, BoolDoesNotConsumeFollowingArgument) {
  FlagSet flags;
  bool value = false;
  flags.add_bool("verbose", &value, "");
  auto argv = argv_of({"--verbose", "trailing"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(value);
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"trailing"}));
}

TEST(FlagSetTest, IntOutsideIntRangeFailsInsteadOfWrapping) {
  // --trials 4294967298 used to wrap to 2 trials.
  for (const char* text : {"--n=2147483648", "--n=-2147483649", "--n=4294967298"}) {
    FlagSet flags;
    int value = 3;
    flags.add_int("n", &value, "");
    auto argv = argv_of({text});
    EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data())) << text;
    EXPECT_EQ(value, 3) << text;
  }
  FlagSet flags;
  int value = 3;
  flags.add_int("n", &value, "");
  auto max = argv_of({"--n=2147483647"});
  ASSERT_TRUE(flags.parse(static_cast<int>(max.size()), max.data()));
  EXPECT_EQ(value, 2147483647);
  auto min = argv_of({"--n=-2147483648"});
  ASSERT_TRUE(flags.parse(static_cast<int>(min.size()), min.data()));
  EXPECT_EQ(value, std::numeric_limits<int>::min());
}

TEST(FlagSetTest, BareDoubleDashIsUnknownFlag) {
  FlagSet flags;
  auto argv = argv_of({"--"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagSetTest, ValueContainingEqualsIsPreserved) {
  FlagSet flags;
  std::string value;
  flags.add_string("expr", &value, "");
  auto argv = argv_of({"--expr=a=b=c"});
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(value, "a=b=c");
}

TEST(FlagSetTest, ReparseClearsPreviousPositionals) {
  FlagSet flags;
  auto first = argv_of({"one", "two"});
  ASSERT_TRUE(flags.parse(static_cast<int>(first.size()), first.data()));
  auto second = argv_of({"three"});
  ASSERT_TRUE(flags.parse(static_cast<int>(second.size()), second.data()));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"three"}));
}

TEST(FlagSetTest, UsageListsFlagsAndDefaults) {
  FlagSet flags;
  int value = 5;
  flags.add_int("workers", &value, "number of workers");
  std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--workers"), std::string::npos);
  EXPECT_NE(usage.find("number of workers"), std::string::npos);
  EXPECT_NE(usage.find("5"), std::string::npos);
}

}  // namespace
}  // namespace vrc::util

// util::ParamTable: one row per key drives parsing, printing, bound checks,
// listings and the one error shape.
#include "util/params.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "util/units.h"

namespace vrc::util {
namespace {

enum class Color { kRed, kBlue };

struct Inner {
  bool flag = true;
};

struct Knobs {
  Inner inner;
  std::uint32_t count = 0;  // unset until given; must then be positive
  double ratio = 0.5;
  SimTime wait = 120.0;
  Bytes memory = megabytes(384);
  Color color = Color::kRed;
  std::optional<double> share;
};

const ParamTable<Knobs>& table() {
  using enum ParamKind;
  static const ParamTable<Knobs> knobs({
      {"flag", field<&Knobs::inner, &Inner::flag>, kBool, kAnyValue, "0", "a flag"},
      {"count", field<&Knobs::count>, kInt, kPositive, "3", "a count"},
      {"ratio", field<&Knobs::ratio>, kDouble, within(0, 1), "0.25", "a ratio"},
      {"wait", field<&Knobs::wait>, kDuration, kAnyValue, "2min", "a wait"},
      {"memory", field<&Knobs::memory>, kBytes, kAnyValue, "128MB", "a size"},
      {"color", field<&Knobs::color>, kChoice, kAnyValue, "blue", "a color", {"red", "blue"}},
      {"share", field<&Knobs::share>, kDouble, within(0, 1), "0.1", "an optional share"},
  });
  return knobs;
}

TEST(ParamTableTest, ApplyPrintRoundTripsEveryKind) {
  Knobs knobs = table().defaults();
  std::string error;
  ASSERT_TRUE(table().apply({{"flag", "off"},
                             {"count", "7"},
                             {"ratio", "0.1234567890123"},
                             {"wait", "2ms"},
                             {"memory", "1536KB"},
                             {"color", "blue"},
                             {"share", "0"}},
                            &knobs, "key", &error))
      << error;
  EXPECT_FALSE(knobs.inner.flag);
  EXPECT_EQ(knobs.count, 7u);
  EXPECT_EQ(knobs.wait, 0.002);
  EXPECT_EQ(knobs.memory, megabytes(1.5));
  EXPECT_EQ(knobs.color, Color::kBlue);
  EXPECT_EQ(knobs.share, 0.0);
  const std::string text = table().print(knobs);
  EXPECT_EQ(text,
            "flag=0,count=7,ratio=0.1234567890123,wait=0.002,memory=1536KB,color=blue,share=0");

  std::map<std::string, std::string> values;
  ASSERT_TRUE(split_params(text, &values, &error)) << error;
  Knobs reparsed = table().defaults();
  ASSERT_TRUE(table().apply(values, &reparsed, "key", &error)) << error;
  EXPECT_EQ(table().print(reparsed), text);
  EXPECT_EQ(table().print(table().defaults()), "");
}

TEST(ParamTableTest, OneErrorShapeNamesKeyValueKindAndExample) {
  Knobs knobs;
  std::string error;
  EXPECT_FALSE(table().apply({{"ratio", "1.5"}}, &knobs, "key", &error));
  EXPECT_EQ(error, "key 'ratio': invalid value '1.5' (expected double in [0, 1], e.g. ratio=0.25)");
  EXPECT_FALSE(table().apply({{"count", "0"}}, &knobs, "key", &error));
  EXPECT_EQ(error, "key 'count': invalid value '0' (expected positive int, e.g. count=3)");
  // In bounds for the kind, but past the field's 32 bits.
  EXPECT_FALSE(table().apply({{"count", "4294967296"}}, &knobs, "key", &error));
  EXPECT_EQ(error,
            "key 'count': invalid value '4294967296' (expected positive int, e.g. count=3)");
  EXPECT_FALSE(table().apply({{"color", "green"}}, &knobs, "key", &error));
  EXPECT_EQ(error, "key 'color': invalid value 'green' (expected red or blue, e.g. color=blue)");
  EXPECT_FALSE(table().apply({{"flag", "maybe"}}, &knobs, "key", &error));
  EXPECT_EQ(error, "key 'flag': invalid value 'maybe' (expected bool, e.g. flag=0)");
  EXPECT_FALSE(table().apply({{"speed", "1"}}, &knobs, "key", &error));
  EXPECT_EQ(error,
            "unknown key 'speed' (known keys: flag, count, ratio, wait, memory, color, share)");
  EXPECT_EQ(knobs.count, 0u);  // nothing was set
}

TEST(ParamTableTest, CheckSkipsUnsetDefaultsAndBoundsTheRest) {
  Knobs knobs;
  std::string error;
  EXPECT_TRUE(table().check(knobs, "key", &error)) << error;  // count 0: unset
  knobs.ratio = 2.0;
  EXPECT_FALSE(table().check(knobs, "key", &error));
  EXPECT_EQ(error, "key 'ratio': invalid value '2' (expected double in [0, 1], e.g. ratio=0.25)");
}

TEST(ParamTableTest, ListingShowsKindDefaultAndHelp) {
  EXPECT_EQ(table().listing(),
            "  flag                       bool                  default 1        a flag\n"
            "  count                      positive int          default -        a count\n"
            "  ratio                      double in [0, 1]      default 0.5      a ratio\n"
            "  wait                       duration              default 120      a wait\n"
            "  memory                     bytes                 default 384MB    a size\n"
            "  color                      red or blue           default red      a color\n"
            "  share                      double in [0, 1]      default -        an optional "
            "share\n");
}

TEST(ParamTableTest, SplitterAndBoolVocabulary) {
  std::map<std::string, std::string> values;
  std::string error;
  EXPECT_FALSE(split_params("a=1,b", &values, &error));
  EXPECT_EQ(error, "param 'b' is not key=value");
  EXPECT_FALSE(split_params("=1", &values, &error));
  EXPECT_EQ(error, "empty param key in '=1'");
  values.clear();
  EXPECT_FALSE(split_params("a=1,a=2", &values, &error));
  EXPECT_EQ(error, "duplicate param 'a'");
  values.clear();
  ASSERT_TRUE(split_params("a=x=y,b=", &values, &error)) << error;
  EXPECT_EQ(values, (std::map<std::string, std::string>{{"a", "x=y"}, {"b", ""}}));

  for (const char* text : {"1", "true", "on", "yes"}) {
    bool value = false;
    EXPECT_TRUE(parse_bool(text, &value) && value) << text;
  }
  for (const char* text : {"0", "false", "off", "no"}) {
    bool value = true;
    EXPECT_TRUE(parse_bool(text, &value) && !value) << text;
  }
  bool value = false;
  EXPECT_FALSE(parse_bool("On", &value));
  EXPECT_FALSE(parse_bool("", &value));
}

}  // namespace
}  // namespace vrc::util

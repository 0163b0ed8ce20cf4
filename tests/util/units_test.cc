#include "util/units.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace vrc {
namespace {

TEST(UnitsTest, MegabytesRoundTrip) {
  EXPECT_EQ(megabytes(1), kMiB);
  EXPECT_EQ(megabytes(384), 384 * kMiB);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(128)), 128.0);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(0.5)), 0.5);
}

TEST(UnitsTest, MillisecondsToSeconds) {
  EXPECT_DOUBLE_EQ(milliseconds(10), 0.01);
  EXPECT_DOUBLE_EQ(milliseconds(0.1), 0.0001);
}

TEST(UnitsTest, MbpsConversionMatchesPaperMigrationCost) {
  // 10 Mbps Ethernet moves 1.25e6 bytes/s; a 100 MB image takes ~83.9 s.
  const double bytes_per_sec = mbps_to_bytes_per_sec(10.0);
  EXPECT_DOUBLE_EQ(bytes_per_sec, 1.25e6);
  const double seconds = static_cast<double>(megabytes(100)) / bytes_per_sec;
  EXPECT_NEAR(seconds, 83.9, 0.1);
}

TEST(UnitsTest, ConstantsAreConsistent) {
  EXPECT_EQ(kMiB, 1024 * kKiB);
  EXPECT_EQ(kGiB, 1024 * kMiB);
}

TEST(ParseBytesTest, AcceptsSuffixesAndPlainBytes) {
  Bytes out = 0;
  EXPECT_TRUE(parse_bytes("384MB", &out));
  EXPECT_EQ(out, megabytes(384));
  EXPECT_TRUE(parse_bytes("128MiB", &out));
  EXPECT_EQ(out, megabytes(128));
  EXPECT_TRUE(parse_bytes("4KB", &out));
  EXPECT_EQ(out, 4 * kKiB);
  EXPECT_TRUE(parse_bytes("1.5GB", &out));
  EXPECT_EQ(out, kGiB + kGiB / 2);
  EXPECT_TRUE(parse_bytes("65536", &out));
  EXPECT_EQ(out, 65536);
  EXPECT_TRUE(parse_bytes("512B", &out));
  EXPECT_EQ(out, 512);
  EXPECT_TRUE(parse_bytes("16 MB", &out));  // space before the suffix is fine
  EXPECT_EQ(out, megabytes(16));
}

TEST(ParseBytesTest, RejectsGarbageUnknownSuffixAndNegative) {
  Bytes out = 0;
  EXPECT_FALSE(parse_bytes("", &out));
  EXPECT_FALSE(parse_bytes("lots", &out));
  EXPECT_FALSE(parse_bytes("128TB", &out));
  EXPECT_FALSE(parse_bytes("-4MB", &out));
  EXPECT_FALSE(parse_bytes("4MBx", &out));
}

TEST(ParseDurationTest, AcceptsSuffixesAndPlainSeconds) {
  SimTime out = 0.0;
  EXPECT_TRUE(parse_duration("10ms", &out));
  EXPECT_DOUBLE_EQ(out, 0.010);
  EXPECT_TRUE(parse_duration("0.5s", &out));
  EXPECT_DOUBLE_EQ(out, 0.5);
  EXPECT_TRUE(parse_duration("2min", &out));
  EXPECT_DOUBLE_EQ(out, 120.0);
  EXPECT_TRUE(parse_duration("15m", &out));
  EXPECT_DOUBLE_EQ(out, 900.0);
  EXPECT_TRUE(parse_duration("250us", &out));
  EXPECT_DOUBLE_EQ(out, 2.5e-4);
  EXPECT_TRUE(parse_duration("1h", &out));
  EXPECT_DOUBLE_EQ(out, 3600.0);
  EXPECT_TRUE(parse_duration("1800", &out));
  EXPECT_DOUBLE_EQ(out, 1800.0);
  EXPECT_TRUE(parse_duration("3sec", &out));
  EXPECT_DOUBLE_EQ(out, 3.0);
}

TEST(ParseDurationTest, RejectsGarbageUnknownSuffixAndNegative) {
  SimTime out = 0.0;
  EXPECT_FALSE(parse_duration("", &out));
  EXPECT_FALSE(parse_duration("soon", &out));
  EXPECT_FALSE(parse_duration("2 fortnights", &out));
  EXPECT_FALSE(parse_duration("-5s", &out));
  EXPECT_FALSE(parse_duration("10msx", &out));
}

TEST(ParseFiniteDoubleTest, RejectsNonFiniteAndOutOfRangeNumbers) {
  double out = 7.0;
  for (const char* text : {"nan", "NAN", "-nan", "inf", "-inf", "infinity", "1e999", "-1e999"}) {
    EXPECT_FALSE(parse_finite_double(text, &out)) << text;
  }
  EXPECT_DOUBLE_EQ(out, 7.0);  // untouched on failure
  EXPECT_TRUE(parse_finite_double("-2.5e3", &out));
  EXPECT_DOUBLE_EQ(out, -2500.0);
  EXPECT_FALSE(parse_finite_double("2.5x", &out));  // whole text unless a suffix is wanted
  std::string suffix;
  EXPECT_TRUE(parse_finite_double("2.5 GB", &out, &suffix));
  EXPECT_DOUBLE_EQ(out, 2.5);
  EXPECT_EQ(suffix, "GB");
  EXPECT_FALSE(parse_finite_double("infMB", &out, &suffix));
}

TEST(ParseIntegerTest, RejectsGarbageOverflowAndValuesOutsideTheRange) {
  int out = 7;
  for (const char* text : {"", "x", "5x", "5 ", " 5", "+5", "1.5", "2147483648", "4294967297",
                           "-2147483649", "99999999999999999999"}) {
    EXPECT_FALSE(parse_integer(text, &out)) << text;
  }
  EXPECT_FALSE(parse_integer("0", &out, 1));
  EXPECT_FALSE(parse_integer("6", &out, 1, 5));
  EXPECT_EQ(out, 7);  // untouched on failure
  EXPECT_TRUE(parse_integer("-2147483648", &out));
  EXPECT_EQ(out, -2147483647 - 1);
  EXPECT_TRUE(parse_integer("5", &out, 1, 5));
  EXPECT_EQ(out, 5);

  std::uint64_t wide = 3;
  EXPECT_FALSE(parse_integer("-1", &wide));  // no wrap to 2^64 - 1
  EXPECT_FALSE(parse_integer("18446744073709551616", &wide));
  EXPECT_TRUE(parse_integer("18446744073709551615", &wide));
  EXPECT_EQ(wide, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseBytesTest, RejectsNonFiniteAndValuesBeyondBytes) {
  Bytes out = 5;
  for (const char* text : {"nan", "inf", "-inf", "1e999", "nanMB", "infGB", "1e30GB"}) {
    EXPECT_FALSE(parse_bytes(text, &out)) << text;
  }
  // 2^63 bytes is one past the largest Bytes value; 2^62 fits.
  EXPECT_FALSE(parse_bytes("9223372036854775808", &out));
  EXPECT_FALSE(parse_bytes("8589934592GB", &out));
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(parse_bytes("4294967296GB", &out));
  EXPECT_EQ(out, Bytes{1} << 62);
}

TEST(ParseDurationTest, RejectsNonFiniteDurations) {
  SimTime out = 1.0;
  for (const char* text : {"nan", "inf", "-inf", "1e999", "nans", "infms", "1e307h"}) {
    EXPECT_FALSE(parse_duration(text, &out)) << text;
  }
  EXPECT_DOUBLE_EQ(out, 1.0);
}

}  // namespace
}  // namespace vrc

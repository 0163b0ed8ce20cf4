#include "util/repeated_add.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace vrc::util {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The reference: `n` plain additions.
double add_sequentially(double x, double c, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) x += c;
  return x;
}

/// The ulp of a positive normal x.
double ulp_of(double x) { return std::ldexp(1.0, std::ilogb(x) - 52); }

/// Seeded draws of the operands add_repeated must reproduce.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : engine_(seed) {}

  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }
  std::uint64_t below(std::uint64_t bound) {
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }
  /// A positive normal double with a random 52-bit fraction, exponent in
  /// [lo, hi].
  double normal(int lo, int hi) {
    const int exponent = lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1)));
    const auto biased = static_cast<std::uint64_t>(1023 + exponent);
    return std::bit_cast<double>((biased << 52) | below(std::uint64_t{1} << 52));
  }
  /// A run length, spread over several orders of magnitude.
  std::uint64_t count(std::uint64_t most) {
    const double scale = std::pow(static_cast<double>(most), uniform());
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(scale));
  }

 private:
  std::mt19937_64 engine_;
};

void expect_matches(double x, double c, std::uint64_t n) {
  const double want = add_sequentially(x, c, n);
  const double got = add_repeated(x, c, n);
  EXPECT_EQ(bits(got), bits(want)) << std::hexfloat << "x=" << x << " c=" << c << " n=" << n
                                   << ": got " << got << ", want " << want;
}

TEST(RepeatedAddTest, TiesOntoOddAndEvenLastUnits) {
  Draws draw(1);
  int odd = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // c/u = q + 1/2 exactly, a tie at every addition while x stays in its
    // binade; x's last unit starts odd or even.
    double x = draw.normal(-20, 20);
    const bool make_odd = trial % 2 == 0;
    x = std::bit_cast<double>((bits(x) & ~std::uint64_t{1}) | (make_odd ? 1 : 0));
    odd += make_odd ? 1 : 0;
    const std::uint64_t q = draw.below(std::uint64_t{1} << draw.below(12));
    const double c = std::ldexp(static_cast<double>(2 * q + 1), std::ilogb(x) - 53);
    ASSERT_EQ(c / ulp_of(x), static_cast<double>(q) + 0.5);
    expect_matches(x, c, draw.count(20000));
  }
  EXPECT_EQ(odd, 1000);
}

TEST(RepeatedAddTest, RunsThatEndExactlyAtABinadeTop) {
  Draws draw(2);
  for (int trial = 0; trial < 2000; ++trial) {
    // x + k·c lands exactly on 2^e after k additions, with c a whole number
    // R of ulps, or R plus or minus a fraction below one half: c/u rounds
    // to R from below or from above.
    const int e = static_cast<int>(draw.below(80)) - 40;
    const double u = std::ldexp(1.0, e - 53);
    const std::uint64_t ulps = draw.count(1000);
    const std::uint64_t k = 1 + draw.below(4000);
    const double x = std::ldexp(1.0, e) - static_cast<double>(k * ulps) * u;
    ASSERT_GE(x, std::ldexp(1.0, e - 1));
    double c = static_cast<double>(ulps) * u;
    if (trial % 3 == 1) c += u * 0.49 * draw.uniform();
    if (trial % 3 == 2) c -= u * 0.49 * draw.uniform();
    ASSERT_EQ(bits(add_sequentially(x, c, k)), bits(std::ldexp(1.0, e)));
    // Stop at the top, or run on past it.
    expect_matches(x, c, k);
    expect_matches(x, c, k + draw.count(5000));
  }
}

TEST(RepeatedAddTest, LargeSmallAndZeroAddends) {
  Draws draw(3);
  for (int trial = 0; trial < 3000; ++trial) {
    const double x = draw.normal(-30, 30);
    const double u = ulp_of(x);
    switch (trial % 4) {
      case 0:  // c >= x: the first addition leaves the binade
        expect_matches(x, x * (1.0 + 10.0 * draw.uniform()), draw.count(3000));
        break;
      case 1:  // c < ulp(x)/2: x never moves
        expect_matches(x, u * 0.5 * draw.uniform(), draw.count(1000000));
        break;
      case 2:  // c = 0
        expect_matches(x, 0.0, draw.count(1000000));
        break;
      default:  // c from x's ulp up to x's size
        expect_matches(x, std::ldexp(draw.normal(0, 0), std::ilogb(x) - 1 -
                                                             static_cast<int>(draw.below(53))),
                       draw.count(20000));
        break;
    }
  }
  // A tie of exactly half an ulp: an odd x moves once, an even one never.
  expect_matches(1.0 + 0x1p-52, 0x1p-53, 1000);
  expect_matches(1.0, 0x1p-53, 1000);
}

TEST(RepeatedAddTest, ZeroAndSubnormalOperands) {
  Draws draw(4);
  const double min_normal = std::numeric_limits<double>::min();
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t n = draw.count(20000);
    switch (trial % 4) {
      case 0:  // x = 0, any c
        expect_matches(0.0, draw.normal(-1022, 20), n);
        break;
      case 1:  // subnormal x, subnormal c: exact sums up into the normals
        expect_matches(std::bit_cast<double>(draw.below(std::uint64_t{1} << 52)),
                       std::bit_cast<double>(draw.below(std::uint64_t{1} << 40)), n);
        break;
      case 2:  // subnormal x, normal c
        expect_matches(std::bit_cast<double>(draw.below(std::uint64_t{1} << 52)),
                       draw.normal(-1022, -1000), n);
        break;
      default:  // normal x just above the subnormals, subnormal c
        expect_matches(min_normal * (1.0 + draw.uniform()),
                       std::bit_cast<double>(draw.below(std::uint64_t{1} << 30)), n);
        break;
    }
  }
  expect_matches(0.0, 0.0, 1000000);
  expect_matches(0.0, std::numeric_limits<double>::denorm_min(), 1000000);
}

TEST(RepeatedAddTest, MillionAdditionsAcrossBinades) {
  Draws draw(5);
  for (int trial = 0; trial < 40; ++trial) {
    // A small start and a c that carries x across many binades, as the
    // replay's accumulators cross them over a long park.
    const double c = draw.normal(-10, 0);
    const double x = trial % 2 == 0 ? 0.0 : c * draw.uniform();
    expect_matches(x, c, 1000000);
  }
}

TEST(RepeatedAddTest, OperandsOutsideTheDomainAddPlainly) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(uniform_add_run(inf, 1.0, 10).steps, 0u);
  EXPECT_EQ(uniform_add_run(1.0, nan, 10).steps, 0u);
  EXPECT_EQ(bits(add_repeated(inf, 1.0, 100)), bits(inf));
  EXPECT_TRUE(std::isnan(add_repeated(nan, 1.0, 100)));
  EXPECT_EQ(bits(add_repeated(1.0, inf, 100)), bits(inf));
  EXPECT_EQ(uniform_add_run(-1.0, 0.25, 10).steps, 0u);
  EXPECT_EQ(uniform_add_run(1.0, -0.25, 10).steps, 0u);
  expect_matches(-3.0, 0.25, 100);
  expect_matches(3.0, -0.25, 100);
  expect_matches(-0.0, 0.0, 10);
}

// The wall claim the replay rests on (DESIGN.md §12.6): within a run of
// T <- T + dt, every tick's wall next - max(T, next - dt) is R·ulp(T), the
// run's step, and T moves by exactly R ulps per tick. That holds for tie runs
// too, which start once T's last unit is even.
TEST(RepeatedAddTest, TickRunsIntegrateOneWall) {
  Draws draw(6);
  // 0.01 rounded to 24 significant bits: its ties fall 2^24 s up, a long
  // binade where every T + dt is a tie.
  const double few_bits = std::ldexp(std::round(std::ldexp(0.01, 30)), -30);
  const double random_dt = 0.001 + 0.2 * draw.uniform();
  int runs = 0;
  int ties = 0;
  int at_top = 0;
  for (const double dt : {0.01, 0.005, 0.1, random_dt, few_bits}) {
    SCOPED_TRACE(testing::Message() << std::hexfloat << "dt=" << dt);
    // T + dt is a tie throughout the binade whose ulp is twice dt's lowest
    // set bit.
    const int lowest_bit =
        std::ilogb(dt) - 52 + std::countr_zero(bits(dt) | (std::uint64_t{1} << 52));
    const double tie_bottom = std::ldexp(1.0, lowest_bit + 53);
    ASSERT_LT(tie_bottom, dt * 0x1p32);
    for (int trial = 0; trial < 600; ++trial) {
      // t lies anywhere in [dt, dt·2^32), log-uniformly; or just below a
      // binade top, so the run ends there; or in the tie binade.
      double t = dt * std::exp2(32.0 * draw.uniform());
      if (trial % 3 == 0) {
        t = std::ldexp(1.0, std::ilogb(t) + 1) - dt * static_cast<double>(1 + draw.below(3000));
      } else if (trial % 3 == 1) {
        t = tie_bottom * (1.0 + draw.uniform());
      }
      t = std::max(t, dt);
      const AddRun run = uniform_add_run(t, dt, 4096);
      if (run.steps == 0) {
        // One plain tick: a binade edge, or a tie onto an odd last unit.
        continue;
      }
      ++runs;
      const double u = ulp_of(t);
      const double fraction = dt / u - std::floor(dt / u);
      ties += fraction == 0.5 ? 1 : 0;
      const double wall = static_cast<double>(run.ulps) * u;
      double now = t;
      for (std::uint64_t k = 0; k < run.steps; ++k) {
        const double next = now + dt;
        ASSERT_EQ(bits(next), bits(now) + run.ulps) << "tick " << k;
        ASSERT_EQ(bits(next - std::max(now, next - dt)), bits(wall)) << "tick " << k;
        now = next;
      }
      ASSERT_EQ(bits(advance(t, run)), bits(now));
      if (run.steps < 4096) {
        // The run stopped short of its limit only where the next sum leaves
        // the binade.
        ++at_top;
        EXPECT_GE(now + dt, std::ldexp(1.0, std::ilogb(t) + 1));
      }
    }
  }
  // At this seed: 1,996 runs, 360 of them on ties, 1,335 ending at a top.
  EXPECT_GT(runs, 1800);
  EXPECT_GT(ties, 250);
  EXPECT_GT(at_top, 1000);
}

}  // namespace
}  // namespace vrc::util

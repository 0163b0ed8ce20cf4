// Repeated floating-point addition in closed form.
//
// n sequential additions x <- x + c of one constant c >= +0 move x in runs.
// Take x = m·u, with u its ulp and m < 2^53 an integer. While the exact sum
// stays below 2^53·u, the top of x's binade, every addition of a run adds
// the same whole number R of ulps: c/u rounded to nearest, ties to even. On
// x's bit pattern that is an integer step, so a run of k additions is one
// add of k·R. Workstation::replay integrates a parked node's skipped ticks
// this way (DESIGN.md §12.6); every result equals the sequential sum bit for
// bit.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace vrc::util {

// The runs follow from IEEE 754 binary64 arithmetic rounding to nearest,
// ties to even, the default mode. Nothing in the program changes the mode
// (vrc_lint's fp-env rule), and every fingerprint golden assumes it too.
static_assert(std::numeric_limits<double>::is_iec559,
              "repeated_add.h needs IEEE 754 binary64 doubles");

/// A run of the additions x <- x + c: each of its `steps` additions adds
/// `ulps` units in the last place of x, that is, `ulps` to x's bit pattern.
/// `steps == 0` means the next addition starts no run, so it is taken
/// plainly: it leaves x's binade, rounds a tie onto an odd last unit, or has
/// an operand that is negative, infinite or NaN.
struct AddRun {
  std::uint64_t steps = 0;
  std::uint64_t ulps = 0;
};

/// The run of at most `n >= 1` additions of `c` that starts at `x`.
inline AddRun uniform_add_run(double x, double c, std::uint64_t n) {
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // the binade's top, in ulps
  const auto x_bits = std::bit_cast<std::uint64_t>(x);
  const auto c_bits = std::bit_cast<std::uint64_t>(c);
  // Biased exponents: 2047 is the infinities' and NaNs', and a set sign
  // bit reads above it.
  const int ex = static_cast<int>(x_bits >> 52);
  const int ec = static_cast<int>(c_bits >> 52);
  if (ex >= 2047 || ec >= 2047) return {};
  // x = m·u and c = mc·2^-s·u, with u = 2^(max(ex, 1) - 1075): zero and the
  // subnormals share the ulp and the top of the lowest normal binade.
  const std::uint64_t m = ex == 0 ? x_bits : (x_bits & kFraction) | (kFraction + 1);
  const std::uint64_t mc = ec == 0 ? c_bits : (c_bits & kFraction) | (kFraction + 1);
  const int s = (ex == 0 ? 1 : ex) - (ec == 0 ? 1 : ec);
  if (s < 0) return {};       // c >= 2^53·u: the first sum leaves the binade
  if (s > 53) return {n, 0};  // c < u/2: x never moves
  const std::uint64_t q = mc >> s;  // the integer part of c/u
  std::uint64_t ulps = q;
  if (s > 0) {
    const std::uint64_t rem = mc & ((std::uint64_t{1} << s) - 1);
    const std::uint64_t half = std::uint64_t{1} << (s - 1);
    if (rem > half) {
      ulps = q + 1;
    } else if (rem == half) {
      // A tie rounds to the even neighbour. From an even m every tie adds
      // q + (q mod 2), which keeps m even; an odd m takes one plain step.
      if ((m & 1) != 0) return {};
      ulps = q + (q & 1);
    }
  }
  if (ulps == 0) return {n, 0};  // c rounds to no ulp of x: x never moves
  // Addition k of the run (k = 0, 1, ...) keeps its exact sum below the top
  // while m + k·ulps + c/u < 2^53, that is while k·ulps <= 2^53 - 1 - m - q.
  if (m + q >= kTop) return {};  // the first sum already reaches the top
  const std::uint64_t room = kTop - 1 - m - q;
  std::uint64_t span = 0;
  if (!__builtin_mul_overflow(n - 1, ulps, &span) && span <= room) return {n, ulps};
  return {room / ulps + 1, ulps};
}

/// `x` after the additions of `run`, which must have started at `x`. A run
/// that ends at the top lands on the next binade's first value, since the
/// carry out of the fraction bumps the exponent.
inline double advance(double x, const AddRun& run) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) + run.steps * run.ulps);
}

/// `x` after `n` sequential `x += c`, bit for bit, in O(1 + binades crossed)
/// when x and c are finite and at least +0. Other operands take every
/// addition plainly.
inline double add_repeated(double x, double c, std::uint64_t n) {
  while (n > 0) {
    const AddRun run = uniform_add_run(x, c, n);
    if (run.steps > 0) {
      x = advance(x, run);
      n -= run.steps;
    } else {
      x += c;
      --n;
    }
  }
  return x;
}

}  // namespace vrc::util

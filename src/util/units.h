// Common scalar unit helpers shared across the library.
//
// All simulation times are double seconds, all memory quantities are
// int64 bytes. The helpers below exist so call sites read in the units the
// paper uses (megabytes, milliseconds, Mbps) without ad-hoc arithmetic.
#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

namespace vrc {

/// Simulation time in seconds.
using SimTime = double;

/// Memory quantity in bytes.
using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Converts mebibytes to bytes.
constexpr Bytes megabytes(double mb) { return static_cast<Bytes>(mb * static_cast<double>(kMiB)); }

/// Converts a scaled byte quantity (`factor * bytes`) to Bytes, saturating
/// at the int64 limits instead of overflowing: a huge but finite factor
/// (memory_threshold=1e11, growth_headroom=1e300) means "no limit", not UB.
/// NaN saturates high. Equal to static_cast for every in-range value.
constexpr Bytes saturating_bytes(double value) {
  // 2^63 is exact in a double; anything at or above it does not fit.
  constexpr double kLimit = 9223372036854775808.0;
  if (!(value < kLimit)) return std::numeric_limits<Bytes>::max();
  if (value < -kLimit) return std::numeric_limits<Bytes>::min();
  return static_cast<Bytes>(value);
}

/// Converts bytes to mebibytes (for reporting).
constexpr double to_megabytes(Bytes b) {
  return static_cast<double>(b) / static_cast<double>(kMiB);
}

/// Converts milliseconds to seconds.
constexpr SimTime milliseconds(double ms) { return ms / 1000.0; }

/// Converts a megabit-per-second link speed to bytes per second.
constexpr double mbps_to_bytes_per_sec(double mbps) { return mbps * 1e6 / 8.0; }

/// Parses a finite double at the start of `text` with strtod syntax, but
/// rejects NaN, infinities and anything strtod reports out of range
/// (ERANGE), so a range check that follows never compares against NaN. When
/// `suffix` is null the number must span all of `text`; otherwise `*suffix`
/// receives the rest, leading spaces stripped. Returns false without
/// touching the outputs on failure.
inline bool parse_finite_double(const std::string& text, double* out,
                                std::string* suffix = nullptr) {
  if (text.empty()) return false;
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE || !std::isfinite(parsed)) return false;
  if (suffix == nullptr) {
    if (*end != '\0') return false;
  } else {
    while (*end == ' ') ++end;
    *suffix = std::string(end);
  }
  *out = parsed;
  return true;
}

/// Parses a base-10 integer spanning all of `text` into the integer type T.
/// Rejects empty text, anything but digits after an optional '-' (for signed
/// T), values that overflow T and values outside [lo, hi], so a wide value
/// can never wrap into range. Returns false without touching `*out` on
/// failure.
template <typename T>
bool parse_integer(const std::string& text, T* out,
                   std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
                   std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const char* end = text.data() + text.size();
  T value{};
  const std::from_chars_result parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end || value < lo || value > hi) return false;
  *out = value;
  return true;
}

/// Parses a memory quantity with an optional unit suffix: "384MB", "4KB",
/// "1.5GB", "128MiB", "65536" (plain bytes), "512B". Decimal and binary
/// suffixes are synonyms (the codebase measures memory in binary units, per
/// megabytes()). Returns false on malformed input or unknown suffixes;
/// negative, non-finite and Bytes-overflowing quantities are rejected.
inline bool parse_bytes(const std::string& text, Bytes* out) {
  double value = 0.0;
  std::string suffix;
  if (!parse_finite_double(text, &value, &suffix)) return false;
  if (value < 0.0) return false;
  double scale = 1.0;
  if (suffix.empty() || suffix == "B") {
    scale = 1.0;
  } else if (suffix == "KB" || suffix == "KiB" || suffix == "kB") {
    scale = static_cast<double>(kKiB);
  } else if (suffix == "MB" || suffix == "MiB") {
    scale = static_cast<double>(kMiB);
  } else if (suffix == "GB" || suffix == "GiB") {
    scale = static_cast<double>(kGiB);
  } else {
    return false;
  }
  // 2^63 is exact in a double; anything at or above it does not fit in Bytes.
  const double bytes = value * scale;
  if (!(bytes < static_cast<double>(std::numeric_limits<Bytes>::max()))) return false;
  *out = static_cast<Bytes>(bytes);
  return true;
}

/// Parses a time quantity with an optional unit suffix: "10ms", "0.5s",
/// "2min", "250us", "1.5" (plain seconds). Returns false on malformed input
/// or unknown suffixes; negative and non-finite durations are rejected.
inline bool parse_duration(const std::string& text, SimTime* out) {
  double value = 0.0;
  std::string suffix;
  if (!parse_finite_double(text, &value, &suffix)) return false;
  if (value < 0.0) return false;
  double scale = 1.0;
  if (suffix.empty() || suffix == "s" || suffix == "sec") {
    scale = 1.0;
  } else if (suffix == "ms") {
    scale = 1e-3;
  } else if (suffix == "us") {
    scale = 1e-6;
  } else if (suffix == "min" || suffix == "m") {
    scale = 60.0;
  } else if (suffix == "h") {
    scale = 3600.0;
  } else {
    return false;
  }
  const SimTime seconds = value * scale;
  if (!std::isfinite(seconds)) return false;
  *out = seconds;
  return true;
}

}  // namespace vrc

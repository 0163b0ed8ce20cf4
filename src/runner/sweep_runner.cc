#include "runner/sweep_runner.h"

namespace vrc::runner {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t cell_key) {
  // Two rounds so that (base, key) and (base + 1, key - 1)-style collisions
  // cannot alias: the first round decorrelates the key, the second mixes in
  // the base stream.
  return splitmix64(splitmix64(base_seed) ^ splitmix64(cell_key + 0x51ed270b0f4a92c5ULL));
}

}  // namespace vrc::runner

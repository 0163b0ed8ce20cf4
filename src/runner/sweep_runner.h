// Per-cell seed derivation for scenario runs.
//
// Every cell of a scenario runs with its RNG seed derived from the
// scenario's base seed and the cell's grid coordinates alone, so results are
// bit-identical regardless of thread count or completion order.
#pragma once

#include <cstdint>

namespace vrc::runner {

/// The splitmix64 mixing function (Steele, Lea & Flood) — the same finalizer
/// sim::Rng seeds through. Used to derive independent per-cell seeds.
std::uint64_t splitmix64(std::uint64_t x);

/// Deterministic per-cell seed: depends only on (base_seed, cell_key), never
/// on thread count or completion order.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t cell_key);

}  // namespace vrc::runner

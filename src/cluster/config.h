// Cluster configuration and the paper's two simulated testbeds.
//
// Section 3.3.1: two homogeneous 32-workstation clusters. Cluster 1 (for the
// SPEC group): 400 MHz CPUs, 384 MB memory. Cluster 2 (for the application
// group): 233 MHz, 128 MB. Both: 10 ms page-fault service, 0.1 ms context
// switch, 10 Mbps Ethernet, 0.1 s remote submission cost, migration cost
// r + D/B. The paper's swap sizes and 4 KB pages are not modelled: paging
// costs a fixed service time per fault (DESIGN.md §5 substitution 2).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/params.h"
#include "util/units.h"

namespace vrc::cluster {

/// What happens to a job killed by a node failure (fault injection).
enum class RestartPolicy {
  kLose,      // restart from zero work; re-placed via the periodic retry
  kResubmit,  // restart from zero work and re-enter the arrival path
};

/// Per-workstation hardware description (heterogeneous clusters give each
/// node its own entry).
struct NodeConfig {
  double cpu_mhz = 400.0;
  Bytes memory = megabytes(384);
  /// Memory held by the kernel and system daemons; user space is
  /// memory - kernel_reserved.
  Bytes kernel_reserved = megabytes(16);
};

/// Full simulation configuration: hardware, OS cost model, network model,
/// and the load-sharing thresholds of [3].
struct ClusterConfig {
  std::vector<NodeConfig> nodes;

  /// CPU speed the workload lifetimes were measured at; a node with
  /// cpu_mhz == reference_mhz executes a job in exactly its catalog lifetime.
  double reference_mhz = 400.0;

  // --- OS cost model (paper §3.3.1) ---
  SimTime page_fault_service = milliseconds(10);
  SimTime context_switch = milliseconds(0.1);
  /// Round-robin quantum of the intra-workstation scheduler.
  SimTime quantum = milliseconds(10);
  /// Simulation tick; matches the paper's 10 ms trace-record granularity.
  SimTime tick = milliseconds(10);

  // --- network model ---
  double network_mbps = 10.0;
  /// Fixed remote submission / execution cost r.
  SimTime remote_submit_cost = 0.1;
  /// When true, migrations serialize on the shared Ethernet segment instead
  /// of using the paper's contention-free r + D/B cost (ablation).
  bool network_contention = false;

  // --- load-sharing thresholds (reconstruction of [3]) ---
  /// CPU threshold: maximum job slots a workstation is willing to take.
  int cpu_threshold = 5;
  /// Memory threshold of [3]: the scheduler only admits a job while the
  /// node's committed demand stays below this fraction of user memory,
  /// keeping headroom for the (unknown) demand growth of running jobs.
  double memory_threshold = 0.85;
  /// Demand the admission control assumes for an incoming job whose memory
  /// requirement is still unknown (set to a typical working set). Fragments
  /// of idle memory smaller than this stay unused — the "accumulated idle
  /// memory" a virtual reconfiguration consolidates.
  Bytes admission_demand_estimate = megabytes(60);
  /// A node is memory-pressured when its page-fault rate (faults/s, EMA)
  /// exceeds this, or when its demand exceeds user memory.
  double fault_rate_threshold = 15.0;
  /// EMA time constant for the per-node fault-rate monitor.
  SimTime fault_rate_tau = 2.0;
  /// Load-index exchange period ("periodically collects and distributes").
  SimTime load_exchange_period = 1.0;
  /// How often pending (blocked) jobs retry placement and policies run their
  /// periodic logic (reservation drain checks etc.).
  SimTime policy_period = 0.25;
  /// Minimum spacing of on_node_pressure callbacks per node.
  SimTime pressure_callback_interval = 0.5;
  /// Minimum time between two outgoing preemptive migrations from one node.
  SimTime migration_cooldown = 4.0;

  // --- malleable reconfiguration (DESIGN.md §15) ---
  /// When >= 0, overrides the fixed pause cost of every malleable resize;
  /// negative (default) uses each job's Malleability contract.
  SimTime resize_fixed_cost = -1.0;
  /// When >= 0, overrides the per-slot pause cost of every malleable resize;
  /// negative (default) uses each job's Malleability contract.
  SimTime resize_per_slot_cost = -1.0;
  /// Minimum spacing between resize starts on one node; 0 (default) is
  /// unlimited. Damps shrink/grow oscillation at the mechanism level.
  SimTime resize_min_interval = 0.0;

  // --- paging model (DESIGN.md §5 substitution 2) ---
  /// Knee of the fault-exposure curve exposure = O / (O + knee). Working
  /// sets cycle (LRU-loop behaviour, [6]): once demand exceeds user memory,
  /// pages are evicted shortly before reuse, so even a small relative
  /// deficit exposes a large share of page touches; exposure saturates
  /// toward 1 as overcommit grows.
  double fault_exposure_knee = 0.05;
  /// When true, per-tick fault counts are Poisson-sampled instead of using
  /// the deterministic expectation.
  bool stochastic_faults = false;
  /// Seed for the cluster's internal randomness (stochastic faults).
  std::uint64_t seed = 42;

  // --- fault injection (src/faults; DESIGN.md §10) ---
  /// Per-node mean time between failures (exponential). 0 disables the
  /// stochastic generator; explicit scenario `fault` entries still apply.
  SimTime fault_mtbf = 0.0;
  /// Per-node mean time to repair (exponential).
  SimTime fault_mttr = 60.0;
  /// Seed of the fault schedule's dedicated RNG stream; 0 derives it from
  /// `seed`, so matched-pairs policy comparisons see identical failures.
  std::uint64_t fault_seed = 0;
  /// What happens to jobs killed by a failure.
  RestartPolicy fault_restart = RestartPolicy::kLose;

  /// Number of workstations.
  std::size_t num_nodes() const { return nodes.size(); }

  /// Builds a homogeneous cluster of `count` identical nodes.
  static ClusterConfig homogeneous(std::size_t count, const NodeConfig& node,
                                   double reference_mhz);

  /// Paper testbed 1: 32 x (400 MHz, 384 MB) for the SPEC group.
  static ClusterConfig paper_cluster1(std::size_t count = 32);

  /// Paper testbed 2: 32 x (233 MHz, 128 MB) for the app group.
  static ClusterConfig paper_cluster2(std::size_t count = 32);

  /// Applies text-form `key=value` overrides to this config — the cluster
  /// half of a declarative scenario. Covers every §3.3.1 knob (the rows of
  /// override_params()), with unit suffixes on memory ("128MB") and time
  /// ("10ms") values, plus per-node heterogeneous overrides
  /// (node_override_params()):
  ///
  ///   node.3.memory=128MB        one workstation
  ///   node.*.cpu_mhz=233        every workstation
  ///
  /// Strict: an unknown key or malformed value fails with a precise message
  /// (key, expected kind, an example) and *this is left unmodified.
  bool apply_overrides(const std::map<std::string, std::string>& overrides,
                       std::string* error = nullptr);

  /// The scalar override keys, one row each, with paper cluster 1's values
  /// as defaults. `nodes` resizes the cluster, replicating its first node.
  static const util::ParamTable<ClusterConfig>& override_params();

  /// The per-node override keys, `node.<i>.<field>`; <i> is an index or '*'.
  static const util::ParamTable<NodeConfig>& node_override_params();
};

}  // namespace vrc::cluster

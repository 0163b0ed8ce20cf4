#include "cluster/config.h"

namespace vrc::cluster {

ClusterConfig ClusterConfig::homogeneous(std::size_t count, const NodeConfig& node,
                                         double reference_mhz) {
  ClusterConfig config;
  config.nodes.assign(count, node);
  config.reference_mhz = reference_mhz;
  return config;
}

ClusterConfig ClusterConfig::paper_cluster1(std::size_t count) {
  NodeConfig node;
  node.cpu_mhz = 400.0;
  node.memory = megabytes(384);
  return homogeneous(count, node, 400.0);
}

ClusterConfig ClusterConfig::paper_cluster2(std::size_t count) {
  NodeConfig node;
  node.cpu_mhz = 233.0;
  node.memory = megabytes(128);
  ClusterConfig config = homogeneous(count, node, 233.0);
  config.admission_demand_estimate = megabytes(18);
  return config;
}

bool ClusterConfig::apply_overrides(const std::map<std::string, std::string>& overrides,
                                    std::string* error) {
  const auto fail = [error](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  const std::string where = "config override";
  const util::ParamTable<ClusterConfig>& scalars = override_params();
  const util::ParamTable<NodeConfig>& per_node = node_override_params();
  const auto unknown = [&](const std::string& key) {
    return fail(util::unknown_key(where, key, scalars.keys() + ", " + per_node.keys()));
  };
  ClusterConfig updated = *this;

  // Scalar keys first (including a `nodes` resize), so per-node overrides in
  // the same map always target the final node count.
  for (const auto& [key, value] : overrides) {
    if (key.starts_with("node.")) continue;
    const std::size_t row = scalars.find(key);
    if (row == util::ParamList::npos) return unknown(key);
    if (!scalars.set(row, value, &updated)) {
      return fail(scalars.rows()[row].invalid(where, key, value));
    }
  }
  // node.<i>.<field> sets one node, node.*.<field> every node.
  for (const auto& [key, value] : overrides) {
    if (!key.starts_with("node.")) continue;
    const std::size_t dot = key.find('.', 5);
    const std::string index = key.substr(5, dot - 5);
    const std::size_t row = dot == std::string::npos || index.empty()
                                ? util::ParamList::npos
                                : per_node.find("node.<i>." + key.substr(dot + 1));
    if (row == util::ParamList::npos) return unknown(key);
    std::size_t first = 0;
    std::size_t last = updated.nodes.size();  // exclusive
    if (index != "*") {
      if (!parse_integer(index, &first)) {
        return fail(where + " '" + key + "': node index must be a number or '*'");
      }
      if (first >= last) {
        return fail(where + " '" + key + "': node index " + index + " out of range (cluster has " +
                    std::to_string(last) + " nodes)");
      }
      last = first + 1;
    }
    for (std::size_t i = first; i < last; ++i) {
      if (!per_node.set(row, value, &updated.nodes[i])) {
        return fail(per_node.rows()[row].invalid(where, key, value));
      }
    }
  }
  // Checked on the final config, so memory and kernel_reserved of one node
  // may be overridden together in either order.
  for (std::size_t i = 0; i < updated.nodes.size(); ++i) {
    const NodeConfig& node = updated.nodes[i];
    if (node.memory <= node.kernel_reserved) {
      const std::string prefix = "node." + std::to_string(i) + ".";
      return fail(where + " '" + prefix + "memory': node " + std::to_string(i) + " has memory " +
                  std::to_string(node.memory) + " <= kernel_reserved " +
                  std::to_string(node.kernel_reserved) + " bytes, leaving no user memory (" +
                  prefix + "memory must exceed " + prefix + "kernel_reserved)");
    }
  }

  *this = std::move(updated);
  return true;
}

// Periods, quantum, slot and memory thresholds, CPU speeds and bandwidth are
// positive: a zero period re-arms its periodic task at the same instant
// forever, and the others leave jobs unable to run, be admitted or transfer.
// A negative exposure knee would make the paging exposure O / (O + knee)
// negative or above 1, and a negative fault-rate threshold marks every node
// pressured, so nothing is ever admitted; zero is legal for both.
const util::ParamTable<ClusterConfig>& ClusterConfig::override_params() {
  using enum util::ParamKind;
  using util::field;
  using util::kAnyValue;
  using util::kNonNegative;
  using util::kPositive;
  using C = ClusterConfig;
  static const auto* table = new util::ParamTable<ClusterConfig>(
      {
          {{"nodes", kInt, kPositive, "32",
            "workstation count (replicates the first node's hardware)"},
           {[](const C& config, const util::ParamRow&) -> util::ParamValue {
              return static_cast<std::int64_t>(config.nodes.size());
            },
            [](C& config, const std::string& text, const util::ParamRow&) {
              int count = 0;
              if (config.nodes.empty() || !parse_integer(text, &count)) return false;
              const NodeConfig first = config.nodes.front();
              config.nodes.assign(static_cast<std::size_t>(count), first);
              return true;
            }}},
          {"reference_mhz", field<&C::reference_mhz>, kDouble, kPositive, "400",
           "CPU speed the workload lifetimes were measured at"},
          {"page_fault_service", field<&C::page_fault_service>, kDuration, kAnyValue, "10ms",
           "page-fault service time (paper: 10ms)"},
          {"context_switch", field<&C::context_switch>, kDuration, kAnyValue, "0.1ms",
           "context-switch cost (paper: 0.1ms)"},
          {"quantum", field<&C::quantum>, kDuration, kPositive, "10ms",
           "round-robin quantum of the local scheduler"},
          {"tick", field<&C::tick>, kDuration, kPositive, "10ms",
           "simulation tick (paper trace granularity: 10ms)"},
          {"network_mbps", field<&C::network_mbps>, kDouble, kPositive, "10",
           "Ethernet bandwidth (paper: 10)"},
          {"remote_submit_cost", field<&C::remote_submit_cost>, kDuration, kAnyValue, "0.1s",
           "fixed remote submission cost r (paper: 0.1s)"},
          {"network_contention", field<&C::network_contention>, kBool, kAnyValue, "1",
           "serialize migrations on the shared segment"},
          {"cpu_threshold", field<&C::cpu_threshold>, kInt, kPositive, "5",
           "CPU threshold: max job slots per workstation"},
          {"memory_threshold", field<&C::memory_threshold>, kDouble, kPositive, "0.85",
           "memory threshold of [3], fraction of user memory"},
          {"admission_demand_estimate", field<&C::admission_demand_estimate>, kBytes, kAnyValue,
           "60MB", "assumed demand of an unknown incoming job"},
          {"fault_rate_threshold", field<&C::fault_rate_threshold>, kDouble, kNonNegative, "15",
           "page-fault rate (faults/s EMA) marking pressure"},
          {"fault_rate_tau", field<&C::fault_rate_tau>, kDuration, kAnyValue, "2s",
           "EMA time constant of the fault-rate monitor"},
          {"load_exchange_period", field<&C::load_exchange_period>, kDuration, kPositive, "1s",
           "load-index exchange period"},
          {"policy_period", field<&C::policy_period>, kDuration, kPositive, "250ms",
           "periodic policy pulse (pending retries, drains)"},
          {"pressure_callback_interval", field<&C::pressure_callback_interval>, kDuration,
           kAnyValue, "500ms", "min spacing of on_node_pressure per node"},
          {"migration_cooldown", field<&C::migration_cooldown>, kDuration, kAnyValue, "4s",
           "min time between outgoing migrations per node"},
          {"resize.fixed_cost", field<&C::resize_fixed_cost>, kDuration, kNonNegative, "0.5s",
           "fixed malleable-resize pause; unset: each job's contract"},
          {"resize.per_slot_cost", field<&C::resize_per_slot_cost>, kDuration, kNonNegative,
           "0.25s", "per-slot malleable-resize pause; unset: each job's contract"},
          {"resize.min_interval", field<&C::resize_min_interval>, kDuration, kNonNegative, "2s",
           "min spacing of resize starts per node (0 = off)"},
          {"fault_exposure_knee", field<&C::fault_exposure_knee>, kDouble, kNonNegative, "0.05",
           "knee of the fault-exposure curve (DESIGN.md §5)"},
          {"stochastic_faults", field<&C::stochastic_faults>, kBool, kAnyValue, "1",
           "Poisson-sample per-tick faults instead of expectation"},
          {"seed", field<&C::seed>, kUint64, kAnyValue, "42",
           "cluster-internal RNG seed (stochastic faults)"},
          {"fault.mtbf", field<&C::fault_mtbf>, kDuration, kNonNegative, "2000s",
           "per-node mean time between failures; 0 = generator off"},
          {"fault.mttr", field<&C::fault_mttr>, kDuration, kPositive, "60s",
           "per-node mean time to repair"},
          {"fault.seed", field<&C::fault_seed>, kUint64, kAnyValue, "42",
           "fault-schedule RNG seed; 0 derives it from `seed`"},
          // Word i is RestartPolicy value i.
          {"fault.restart", field<&C::fault_restart>, kChoice, kAnyValue, "resubmit",
           "what happens to jobs a failure kills", {"lose", "resubmit"}},
      },
      paper_cluster1());
  return *table;
}

const util::ParamTable<NodeConfig>& ClusterConfig::node_override_params() {
  using enum util::ParamKind;
  using util::field;
  using N = NodeConfig;
  static const auto* table = new util::ParamTable<NodeConfig>({
      {"node.<i>.cpu_mhz", field<&N::cpu_mhz>, kDouble, util::kPositive, "400",
       "per-node CPU speed; <i> is an index or '*'"},
      {"node.<i>.memory", field<&N::memory>, kBytes, util::kAnyValue, "128MB",
       "per-node physical memory"},
      {"node.<i>.kernel_reserved", field<&N::kernel_reserved>, kBytes, util::kAnyValue, "16MB",
       "per-node kernel/daemon memory"},
  });
  return *table;
}

}  // namespace vrc::cluster

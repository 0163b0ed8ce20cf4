#include "cluster/config.h"

namespace vrc::cluster {

std::optional<RestartPolicy> parse_restart_policy(const std::string& text) {
  if (text == "lose") return RestartPolicy::kLose;
  if (text == "resubmit") return RestartPolicy::kResubmit;
  return std::nullopt;
}

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

namespace {

// One override assignment attempt: false + a "expected <type>, e.g. <ex>"
// fragment in *expected on a malformed value.
bool set_double(const std::string& value, double* out, std::string* expected) {
  if (!parse_finite_double(value, out)) {
    *expected = "double, e.g. 0.85";
    return false;
  }
  return true;
}

bool set_bool(const std::string& value, bool* out, std::string* expected) {
  if (value == "1" || value == "true" || value == "on" || value == "yes") {
    *out = true;
    return true;
  }
  if (value == "0" || value == "false" || value == "off" || value == "no") {
    *out = false;
    return true;
  }
  *expected = "bool, e.g. 1";
  return false;
}

bool set_bytes(const std::string& value, Bytes* out, std::string* expected) {
  if (!parse_bytes(value, out)) {
    *expected = "bytes with optional unit suffix, e.g. 128MB";
    return false;
  }
  return true;
}

bool set_duration(const std::string& value, SimTime* out, std::string* expected) {
  if (!parse_duration(value, out)) {
    *expected = "duration with optional unit suffix, e.g. 10ms";
    return false;
  }
  return true;
}

/// Applies one `node.<i>.<field>` / `node.*.<field>` override to `config`.
bool apply_node_override(ClusterConfig& config, const std::string& key,
                         const std::string& value, std::string* error) {
  const std::string rest = key.substr(5);  // past "node."
  const std::size_t dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
    *error = "config override '" + key +
             "': per-node keys are node.<index>.<field> or node.*.<field> "
             "(fields: cpu_mhz, memory, kernel_reserved)";
    return false;
  }
  const std::string index_text = rest.substr(0, dot);
  const std::string field = rest.substr(dot + 1);

  std::size_t first = 0;
  std::size_t last = config.nodes.size();  // exclusive
  if (index_text != "*") {
    std::size_t index = 0;
    if (!parse_integer(index_text, &index)) {
      *error = "config override '" + key + "': node index must be a number or '*'";
      return false;
    }
    if (index >= config.nodes.size()) {
      *error = "config override '" + key + "': node index " + index_text +
               " out of range (cluster has " + std::to_string(config.nodes.size()) + " nodes)";
      return false;
    }
    first = index;
    last = first + 1;
  }

  std::string expected;
  for (std::size_t i = first; i < last; ++i) {
    NodeConfig& node = config.nodes[i];
    bool ok = true;
    if (field == "cpu_mhz") {
      ok = set_double(value, &node.cpu_mhz, &expected);
      if (ok && node.cpu_mhz <= 0.0) {
        ok = false;
        expected = "positive double, e.g. 400";
      }
    } else if (field == "memory") {
      ok = set_bytes(value, &node.memory, &expected);
    } else if (field == "kernel_reserved") {
      ok = set_bytes(value, &node.kernel_reserved, &expected);
    } else {
      *error = "config override '" + key + "': unknown node field '" + field +
               "' (known fields: cpu_mhz, memory, kernel_reserved)";
      return false;
    }
    if (!ok) {
      *error = "config override '" + key + "': invalid value '" + value + "' (expected " +
               expected + ")";
      return false;
    }
  }
  return true;
}

}  // namespace

bool ClusterConfig::apply_overrides(const std::map<std::string, std::string>& overrides,
                                    std::string* error) {
  std::string local_error;
  std::string* err = error ? error : &local_error;
  ClusterConfig updated = *this;

  auto fail_value = [err](const std::string& key, const std::string& value,
                          const std::string& expected) {
    *err = "config override '" + key + "': invalid value '" + value + "' (expected " +
           expected + ")";
    return false;
  };

  // Scalar keys first (including a `nodes` resize), so per-node overrides in
  // the same map always target the final node count.
  for (const auto& [key, value] : overrides) {
    if (key.rfind("node.", 0) == 0) continue;
    std::string expected;
    bool ok = true;
    // Range check on a value that parsed (never NaN or infinite): a `bad`
    // one is rejected with `example` as the expected form. Periods, quantum,
    // slot and memory thresholds, CPU speed and bandwidth must be positive:
    // a zero period re-arms its periodic task at the same instant forever,
    // and the others leave jobs unable to run, be admitted or transfer.
    const auto reject_if = [&ok, &expected](bool bad, const char* example) {
      if (ok && bad) {
        ok = false;
        expected = example;
      }
    };
    if (key == "nodes") {
      int count = 0;
      expected = "positive int, e.g. 32";
      ok = parse_integer(value, &count, 1);
      if (ok) {
        if (updated.nodes.empty()) {
          *err = "config override 'nodes': cannot resize a cluster with no node template";
          return false;
        }
        updated.nodes.assign(static_cast<std::size_t>(count), updated.nodes[0]);
      }
    } else if (key == "reference_mhz") {
      ok = set_double(value, &updated.reference_mhz, &expected);
      reject_if(updated.reference_mhz <= 0.0, "positive double, e.g. 400");
    } else if (key == "page_fault_service") {
      ok = set_duration(value, &updated.page_fault_service, &expected);
    } else if (key == "context_switch") {
      ok = set_duration(value, &updated.context_switch, &expected);
    } else if (key == "quantum") {
      ok = set_duration(value, &updated.quantum, &expected);
      reject_if(updated.quantum <= 0.0, "positive duration, e.g. 10ms");
    } else if (key == "tick") {
      ok = set_duration(value, &updated.tick, &expected);
      reject_if(updated.tick <= 0.0, "positive duration, e.g. 10ms");
    } else if (key == "network_mbps") {
      ok = set_double(value, &updated.network_mbps, &expected);
      reject_if(updated.network_mbps <= 0.0, "positive double, e.g. 10");
    } else if (key == "remote_submit_cost") {
      ok = set_duration(value, &updated.remote_submit_cost, &expected);
    } else if (key == "network_contention") {
      ok = set_bool(value, &updated.network_contention, &expected);
    } else if (key == "cpu_threshold") {
      expected = "positive int, e.g. 5";
      ok = parse_integer(value, &updated.cpu_threshold, 1);
    } else if (key == "memory_threshold") {
      ok = set_double(value, &updated.memory_threshold, &expected);
      reject_if(updated.memory_threshold <= 0.0, "positive double, e.g. 0.85");
    } else if (key == "admission_demand_estimate") {
      ok = set_bytes(value, &updated.admission_demand_estimate, &expected);
    } else if (key == "fault_rate_threshold") {
      ok = set_double(value, &updated.fault_rate_threshold, &expected);
    } else if (key == "fault_rate_tau") {
      ok = set_duration(value, &updated.fault_rate_tau, &expected);
    } else if (key == "load_exchange_period") {
      ok = set_duration(value, &updated.load_exchange_period, &expected);
      reject_if(updated.load_exchange_period <= 0.0, "positive duration, e.g. 1s");
    } else if (key == "policy_period") {
      ok = set_duration(value, &updated.policy_period, &expected);
      reject_if(updated.policy_period <= 0.0, "positive duration, e.g. 250ms");
    } else if (key == "pressure_callback_interval") {
      ok = set_duration(value, &updated.pressure_callback_interval, &expected);
    } else if (key == "migration_cooldown") {
      ok = set_duration(value, &updated.migration_cooldown, &expected);
    } else if (key == "resize.fixed_cost") {
      ok = set_duration(value, &updated.resize_fixed_cost, &expected);
      reject_if(updated.resize_fixed_cost < 0.0, "non-negative duration, e.g. 0.5s");
    } else if (key == "resize.per_slot_cost") {
      ok = set_duration(value, &updated.resize_per_slot_cost, &expected);
      reject_if(updated.resize_per_slot_cost < 0.0, "non-negative duration, e.g. 0.25s");
    } else if (key == "resize.min_interval") {
      ok = set_duration(value, &updated.resize_min_interval, &expected);
      reject_if(updated.resize_min_interval < 0.0,
                "non-negative duration, e.g. 2s (0 disables)");
    } else if (key == "fault_exposure_knee") {
      ok = set_double(value, &updated.fault_exposure_knee, &expected);
    } else if (key == "stochastic_faults") {
      ok = set_bool(value, &updated.stochastic_faults, &expected);
    } else if (key == "seed") {
      expected = "uint64, e.g. 42";
      ok = parse_integer(value, &updated.seed);
    } else if (key == "fault.mtbf") {
      ok = set_duration(value, &updated.fault_mtbf, &expected);
      reject_if(updated.fault_mtbf < 0.0, "non-negative duration, e.g. 2000s (0 disables)");
    } else if (key == "fault.mttr") {
      ok = set_duration(value, &updated.fault_mttr, &expected);
      reject_if(updated.fault_mttr <= 0.0, "positive duration, e.g. 60s");
    } else if (key == "fault.seed") {
      expected = "uint64, e.g. 42";
      ok = parse_integer(value, &updated.fault_seed);
    } else if (key == "fault.restart") {
      if (parse_restart_policy(value)) {
        updated.fault_restart = value;
      } else {
        ok = false;
        expected = "'lose' or 'resubmit'";
      }
    } else {
      std::string known;
      for (const OverrideKeyDoc& doc : override_keys()) {
        known += (known.empty() ? "" : ", ") + doc.key;
      }
      *err = "unknown config override '" + key + "' (known keys: " + known + ")";
      return false;
    }
    if (!ok) return fail_value(key, value, expected);
  }

  for (const auto& [key, value] : overrides) {
    if (key.rfind("node.", 0) != 0) continue;
    if (!apply_node_override(updated, key, value, err)) return false;
  }
  // Checked on the final config, so memory and kernel_reserved of one node
  // may be overridden together in either order.
  for (std::size_t i = 0; i < updated.nodes.size(); ++i) {
    const NodeConfig& node = updated.nodes[i];
    if (node.memory <= node.kernel_reserved) {
      const std::string prefix = "node." + std::to_string(i) + ".";
      *err = "config override '" + prefix + "memory': node " + std::to_string(i) +
             " has memory " + std::to_string(node.memory) + " <= kernel_reserved " +
             std::to_string(node.kernel_reserved) + " bytes, leaving no user memory (" +
             prefix + "memory must exceed " + prefix + "kernel_reserved)";
      return false;
    }
  }

  *this = std::move(updated);
  return true;
}

const std::vector<ClusterConfig::OverrideKeyDoc>& ClusterConfig::override_keys() {
  static const std::vector<OverrideKeyDoc>* keys = new std::vector<OverrideKeyDoc>{
      {"nodes", "int", "workstation count (replicates the first node's hardware)"},
      {"reference_mhz", "double", "CPU speed the workload lifetimes were measured at"},
      {"page_fault_service", "duration", "page-fault service time (paper: 10ms)"},
      {"context_switch", "duration", "context-switch cost (paper: 0.1ms)"},
      {"quantum", "duration", "round-robin quantum of the local scheduler"},
      {"tick", "duration", "simulation tick (paper trace granularity: 10ms)"},
      {"network_mbps", "double", "Ethernet bandwidth (paper: 10)"},
      {"remote_submit_cost", "duration", "fixed remote submission cost r (paper: 0.1s)"},
      {"network_contention", "bool", "serialize migrations on the shared segment"},
      {"cpu_threshold", "int", "CPU threshold: max job slots per workstation"},
      {"memory_threshold", "double", "memory threshold of [3], fraction of user memory"},
      {"admission_demand_estimate", "bytes", "assumed demand of an unknown incoming job"},
      {"fault_rate_threshold", "double", "page-fault rate (faults/s EMA) marking pressure"},
      {"fault_rate_tau", "duration", "EMA time constant of the fault-rate monitor"},
      {"load_exchange_period", "duration", "load-index exchange period"},
      {"policy_period", "duration", "periodic policy pulse (pending retries, drains)"},
      {"pressure_callback_interval", "duration", "min spacing of on_node_pressure per node"},
      {"migration_cooldown", "duration", "min time between outgoing migrations per node"},
      {"resize.fixed_cost", "duration", "fixed malleable-resize pause; overrides job contracts"},
      {"resize.per_slot_cost", "duration",
       "per-slot malleable-resize pause; overrides job contracts"},
      {"resize.min_interval", "duration", "min spacing of resize starts per node (0 = off)"},
      {"fault_exposure_knee", "double", "knee of the fault-exposure curve (DESIGN.md §5)"},
      {"stochastic_faults", "bool", "Poisson-sample per-tick faults instead of expectation"},
      {"seed", "uint64", "cluster-internal RNG seed (stochastic faults)"},
      {"fault.mtbf", "duration", "per-node mean time between failures; 0 = generator off"},
      {"fault.mttr", "duration", "per-node mean time to repair"},
      {"fault.seed", "uint64", "fault-schedule RNG seed; 0 derives it from `seed`"},
      {"fault.restart", "string", "restart policy for killed jobs: lose | resubmit"},
      {"node.<i>.cpu_mhz", "double", "per-node CPU speed; <i> is an index or '*'"},
      {"node.<i>.memory", "bytes", "per-node physical memory, e.g. node.3.memory=128MB"},
      {"node.<i>.kernel_reserved", "bytes", "per-node kernel/daemon memory"},
  };
  return *keys;
}

}  // namespace vrc::cluster


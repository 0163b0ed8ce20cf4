// ClusterConfig::apply_overrides: the declarative cluster half of a
// scenario. Valid scalar and per-node overrides, unit-suffix parsing, the
// precise error text on bad input, and the transactional guarantee that a
// failed batch leaves the config untouched.
#include "cluster/config.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace vrc::cluster {
namespace {

TEST(ApplyOverridesTest, ScalarKnobsCoverEveryType) {
  ClusterConfig config = ClusterConfig::paper_cluster1(8);
  std::string error;
  ASSERT_TRUE(config.apply_overrides(
      {
          {"memory_threshold", "0.9"},
          {"cpu_threshold", "3"},
          {"network_contention", "true"},
          {"seed", "2024"},
          {"admission_demand_estimate", "18MB"},
          {"quantum", "20ms"},
      },
      &error))
      << error;
  EXPECT_DOUBLE_EQ(config.memory_threshold, 0.9);
  EXPECT_EQ(config.cpu_threshold, 3);
  EXPECT_TRUE(config.network_contention);
  EXPECT_EQ(config.seed, 2024u);
  EXPECT_EQ(config.admission_demand_estimate, megabytes(18));
  EXPECT_DOUBLE_EQ(config.quantum, 0.020);
}

TEST(ApplyOverridesTest, NodesResizeReplicatesTheFirstNode) {
  ClusterConfig config = ClusterConfig::paper_cluster2(4);
  ASSERT_TRUE(config.apply_overrides({{"nodes", "12"}}));
  ASSERT_EQ(config.num_nodes(), 12u);
  for (const NodeConfig& node : config.nodes) {
    EXPECT_DOUBLE_EQ(node.cpu_mhz, 233.0);
    EXPECT_EQ(node.memory, megabytes(128));
  }
}

TEST(ApplyOverridesTest, PerNodeOverridesHitOneOrAllNodes) {
  ClusterConfig config = ClusterConfig::paper_cluster1(4);
  std::string error;
  ASSERT_TRUE(config.apply_overrides(
      {
          {"node.3.memory", "128MB"},
          {"node.3.cpu_mhz", "233"},
          {"node.*.kernel_reserved", "20MB"},
      },
      &error))
      << error;
  EXPECT_EQ(config.nodes[3].memory, megabytes(128));
  EXPECT_DOUBLE_EQ(config.nodes[3].cpu_mhz, 233.0);
  EXPECT_EQ(config.nodes[0].memory, megabytes(384));  // others untouched
  for (const NodeConfig& node : config.nodes) EXPECT_EQ(node.kernel_reserved, megabytes(20));
}

TEST(ApplyOverridesTest, NodesResizeAppliesBeforePerNodeKeys) {
  // Map iteration visits "node.6..." before "nodes", but the resize must win
  // the ordering: per-node overrides always target the final node count.
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  std::string error;
  ASSERT_TRUE(config.apply_overrides({{"nodes", "8"}, {"node.6.cpu_mhz", "100"}}, &error))
      << error;
  ASSERT_EQ(config.num_nodes(), 8u);
  EXPECT_DOUBLE_EQ(config.nodes[6].cpu_mhz, 100.0);
}

TEST(ApplyOverridesTest, UnknownKeyListsKnownKeys) {
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  std::string error;
  EXPECT_FALSE(config.apply_overrides({{"turbo_mode", "1"}}, &error));
  EXPECT_NE(error.find("unknown config override 'turbo_mode'"), std::string::npos) << error;
  EXPECT_NE(error.find("memory_threshold"), std::string::npos) << error;
  EXPECT_NE(error.find("node.<i>.memory"), std::string::npos) << error;
}

TEST(ApplyOverridesTest, MalformedValueNamesKeyTypeAndExample) {
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  std::string error;
  EXPECT_FALSE(config.apply_overrides({{"memory_threshold", "most"}}, &error));
  EXPECT_NE(error.find("config override 'memory_threshold'"), std::string::npos) << error;
  EXPECT_NE(error.find("invalid value 'most'"), std::string::npos) << error;
  EXPECT_NE(error.find("expected positive double, e.g. memory_threshold=0.85"), std::string::npos)
      << error;

  EXPECT_FALSE(config.apply_overrides({{"quantum", "fast"}}, &error));
  EXPECT_NE(error.find("expected positive duration"), std::string::npos) << error;
  EXPECT_FALSE(config.apply_overrides({{"network_contention", "maybe"}}, &error));
  EXPECT_NE(error.find("expected bool"), std::string::npos) << error;
  EXPECT_FALSE(config.apply_overrides({{"node.0.memory", "lots"}}, &error));
  EXPECT_NE(error.find("expected bytes"), std::string::npos) << error;
  EXPECT_FALSE(config.apply_overrides({{"nodes", "0"}}, &error));
  EXPECT_NE(error.find("positive int"), std::string::npos) << error;
  // A zero period never ends the run; a zero quantum, slot threshold, CPU
  // speed or bandwidth leaves jobs unable to run or transfer.
  for (const std::string key : {"tick", "load_exchange_period", "policy_period", "quantum",
                                "cpu_threshold", "reference_mhz", "network_mbps"}) {
    EXPECT_FALSE(config.apply_overrides({{key, "0"}}, &error)) << key;
    EXPECT_NE(error.find("config override '" + key + "': invalid value '0'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("expected positive"), std::string::npos) << error;
  }
  // A NaN tick used to complete no job yet exit cleanly; the duration parser
  // now rejects it before the range check runs.
  EXPECT_FALSE(config.apply_overrides({{"tick", "nan"}}, &error));
  EXPECT_NE(error.find("config override 'tick': invalid value 'nan' (expected positive duration"),
            std::string::npos)
      << error;
}

TEST(ApplyOverridesTest, IntKeysRejectValuesBeyondInt) {
  // cpu_threshold=4294967297 used to run as 1, nodes=4294967297 to build a
  // 1-node cluster.
  for (const std::string key : {"cpu_threshold", "nodes"}) {
    ClusterConfig config = ClusterConfig::paper_cluster1(4);
    std::string error;
    EXPECT_FALSE(config.apply_overrides({{key, "4294967297"}}, &error)) << key;
    EXPECT_NE(error.find("config override '" + key + "': invalid value '4294967297'"),
              std::string::npos)
        << error;
    EXPECT_EQ(config.nodes.size(), 4u);
    EXPECT_EQ(config.cpu_threshold, ClusterConfig::paper_cluster1(4).cpu_threshold);
  }
}

TEST(ApplyOverridesTest, BadNodeKeysAreRejectedPrecisely) {
  ClusterConfig config = ClusterConfig::paper_cluster1(4);
  std::string error;
  EXPECT_FALSE(config.apply_overrides({{"node.9.memory", "128MB"}}, &error));
  EXPECT_NE(error.find("node index 9 out of range (cluster has 4 nodes)"), std::string::npos)
      << error;
  EXPECT_FALSE(config.apply_overrides({{"node.two.memory", "128MB"}}, &error));
  EXPECT_NE(error.find("node index must be a number or '*'"), std::string::npos) << error;
  EXPECT_FALSE(config.apply_overrides({{"node.memory", "128MB"}}, &error));
  EXPECT_NE(error.find("unknown config override 'node.memory'"), std::string::npos) << error;
  EXPECT_NE(error.find("node.<i>.memory"), std::string::npos) << error;
  EXPECT_FALSE(config.apply_overrides({{"node.0.ram", "128MB"}}, &error));
  EXPECT_NE(error.find("unknown config override 'node.0.ram'"), std::string::npos) << error;
  EXPECT_NE(error.find("node.<i>.cpu_mhz, node.<i>.memory, node.<i>.kernel_reserved"),
            std::string::npos)
      << error;
}

TEST(ApplyOverridesTest, FailedBatchLeavesConfigUntouched) {
  const ClusterConfig before = ClusterConfig::paper_cluster1(4);
  ClusterConfig config = before;
  std::string error;
  // The valid assignments sort before the bad one; none may stick.
  EXPECT_FALSE(config.apply_overrides(
      {{"cpu_threshold", "2"}, {"node.1.memory", "64MB"}, {"zzz_bogus", "1"}}, &error));
  EXPECT_EQ(config.cpu_threshold, before.cpu_threshold);
  EXPECT_EQ(config.nodes[1].memory, before.nodes[1].memory);
  EXPECT_EQ(config.num_nodes(), before.num_nodes());
}

TEST(ApplyOverridesTest, OverrideKeyDocsMatchAcceptedKeys) {
  // Every row's example and printed default must be accepted under its key,
  // so the listing and DESIGN.md §9.3 cannot drift from the implementation.
  const auto accepts = [](const std::string& key, const std::string& value) {
    ClusterConfig config = ClusterConfig::paper_cluster1(2);
    std::string error;
    EXPECT_TRUE(config.apply_overrides({{key, value}}, &error)) << key << "=" << value << ": "
                                                                << error;
  };
  const util::ParamList* tables[] = {&ClusterConfig::override_params(),
                                     &ClusterConfig::node_override_params()};
  std::size_t rows = 0;
  for (const util::ParamList* table : tables) {
    for (std::size_t i = 0; i < table->rows().size(); ++i) {
      const util::ParamRow& row = table->rows()[i];
      const std::string field = row.key;
      std::vector<std::string> keys = {field};
      if (field.starts_with("node.<i>.")) {
        keys = {"node.0." + field.substr(9), "node.*." + field.substr(9)};
      }
      for (const std::string& key : keys) {
        accepts(key, row.example);
        const util::ParamValue& value = table->default_values()[i];
        if (row.within(value)) accepts(key, row.write(value));
      }
      ++rows;
    }
  }
  EXPECT_EQ(rows, 31u);  // 28 scalar keys and 3 per-node ones
}

TEST(ApplyOverridesTest, NonFiniteValuesAreRejectedForEveryNumericKey) {
  // NaN passes every `x <= 0` range check and infinities overflow the Bytes
  // casts: fault.mttr=nan looped forever, memory_threshold=nan cast NaN.
  std::size_t checked = 0;
  const util::ParamList* tables[] = {&ClusterConfig::override_params(),
                                     &ClusterConfig::node_override_params()};
  for (const util::ParamList* table : tables) {
    for (const util::ParamRow& row : table->rows()) {
      if (row.kind != util::ParamKind::kDouble && row.kind != util::ParamKind::kDuration &&
          row.kind != util::ParamKind::kBytes) {
        continue;
      }
      std::string key = row.key;
      if (key.starts_with("node.<i>.")) key = "node.0." + key.substr(9);
      for (const std::string value : {"nan", "inf", "-inf", "1e999"}) {
        ClusterConfig config = ClusterConfig::paper_cluster1(2);
        std::string error;
        EXPECT_FALSE(config.apply_overrides({{key, value}}, &error)) << key << "=" << value;
        EXPECT_NE(error.find("config override '" + key + "': invalid value '" + value + "'"),
                  std::string::npos)
            << error;
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 20u);  // every double, duration and bytes key, per-node ones included
}

TEST(ApplyOverridesTest, FaultExposureKneeIsNonNegative) {
  // Exposure is O / (O + knee): a negative knee made it negative below
  // O = -knee and above 1 past it.
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  std::string error;
  EXPECT_FALSE(config.apply_overrides({{"fault_exposure_knee", "-0.05"}}, &error));
  EXPECT_NE(error.find("config override 'fault_exposure_knee': invalid value '-0.05' (expected "
                       "non-negative double, e.g. fault_exposure_knee=0.05)"),
            std::string::npos)
      << error;
  EXPECT_EQ(config.fault_exposure_knee, ClusterConfig::paper_cluster1(2).fault_exposure_knee);
  ASSERT_TRUE(config.apply_overrides({{"fault_exposure_knee", "0"}}, &error)) << error;
  EXPECT_EQ(config.fault_exposure_knee, 0.0);
}

TEST(ApplyOverridesTest, FaultRateThresholdIsNonNegative) {
  // A node is pressured once its fault EMA, never negative, exceeds the
  // threshold: below zero every node read as pressured and nothing was
  // ever admitted.
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  std::string error;
  EXPECT_FALSE(config.apply_overrides({{"fault_rate_threshold", "-1"}}, &error));
  EXPECT_NE(error.find("config override 'fault_rate_threshold': invalid value '-1' (expected "
                       "non-negative double, e.g. fault_rate_threshold=15)"),
            std::string::npos)
      << error;
  EXPECT_EQ(config.fault_rate_threshold, ClusterConfig::paper_cluster1(2).fault_rate_threshold);
  ASSERT_TRUE(config.apply_overrides({{"fault_rate_threshold", "0"}}, &error)) << error;
  EXPECT_EQ(config.fault_rate_threshold, 0.0);
}

TEST(ApplyOverridesTest, NodeHardwareAndMemoryThresholdAreRangeChecked) {
  ClusterConfig config = ClusterConfig::paper_cluster1(4);
  const ClusterConfig before = config;
  std::string error;
  // A non-positive CPU speed leaves the node's jobs unable to progress.
  for (const std::string value : {"0", "-400"}) {
    EXPECT_FALSE(config.apply_overrides({{"node.0.cpu_mhz", value}}, &error)) << value;
    EXPECT_NE(error.find("config override 'node.0.cpu_mhz': invalid value '" + value +
                         "' (expected positive double"),
              std::string::npos)
        << error;
  }
  // Memory at or below kernel_reserved leaves no user memory.
  EXPECT_FALSE(config.apply_overrides({{"node.*.memory", "0"}}, &error));
  EXPECT_NE(error.find("config override 'node.0.memory'"), std::string::npos) << error;
  EXPECT_NE(error.find("must exceed node.0.kernel_reserved"), std::string::npos) << error;
  EXPECT_FALSE(config.apply_overrides({{"node.2.memory", "16MB"}}, &error));  // == reserved
  EXPECT_NE(error.find("config override 'node.2.memory'"), std::string::npos) << error;
  EXPECT_FALSE(config.apply_overrides({{"node.1.kernel_reserved", "384MB"}}, &error));
  EXPECT_NE(error.find("config override 'node.1.memory'"), std::string::npos) << error;
  // A zero or negative memory threshold fails every local admission.
  for (const std::string value : {"0", "-0.5"}) {
    EXPECT_FALSE(config.apply_overrides({{"memory_threshold", value}}, &error)) << value;
    EXPECT_NE(error.find("config override 'memory_threshold': invalid value '" + value +
                         "' (expected positive double"),
              std::string::npos)
        << error;
  }
  EXPECT_EQ(config.nodes[0].cpu_mhz, before.nodes[0].cpu_mhz);
  EXPECT_EQ(config.nodes[0].memory, before.nodes[0].memory);
  EXPECT_EQ(config.memory_threshold, before.memory_threshold);

  // The memory check runs on the final config: raising kernel_reserved above
  // the old memory is fine when memory rises in the same batch, and lowering
  // memory below the old kernel_reserved is fine when it falls too.
  ASSERT_TRUE(config.apply_overrides({{"node.0.kernel_reserved", "400MB"},
                                      {"node.0.memory", "512MB"}},
                                     &error))
      << error;
  ASSERT_TRUE(config.apply_overrides({{"node.1.memory", "8MB"}, {"node.1.kernel_reserved", "4MB"}},
                                     &error))
      << error;
  EXPECT_EQ(config.nodes[0].kernel_reserved, megabytes(400));
  EXPECT_EQ(config.nodes[1].memory, megabytes(8));
}

}  // namespace
}  // namespace vrc::cluster

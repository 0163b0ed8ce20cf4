// Oracle-demand policy: dynamic load sharing with *known* memory demands.
//
// The paper's premise (inherited from [3]) is that a job's memory demand is
// unknown at submission and changes while it runs — which is why unsuitable
// placements happen and the blocking problem exists at all. This policy is
// the counterfactual: admission and migration decisions see every job's true
// peak working set. It upper-bounds what any predictor could achieve and
// quantifies the price of demand uncertainty (bench/paper_group1.scn).
#pragma once

#include "core/g_load_sharing.h"

namespace vrc::core {

/// G-Loadsharing with perfect demand knowledge: the admission hint for every
/// placement is the job's true peak working set, so no workstation ever
/// admits a set of jobs whose grown demands collide.
class OracleDemands : public GLoadSharing {
 public:
  OracleDemands() = default;
  explicit OracleDemands(Options options) : GLoadSharing(options) {}

  const char* name() const override { return "Oracle-Demands"; }

 private:
  /// Local, then least future-committed remote placement, both admitted on
  /// the job's true peak working set.
  bool try_place(Cluster& cluster, RunningJob& job) override;
};

}  // namespace vrc::core

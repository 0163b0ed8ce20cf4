#include "workload/catalog.h"

#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster.h"
#include "core/experiment.h"

namespace vrc::workload {
namespace {

TEST(CatalogTest, SpecGroupHasSixPrograms) {
  // Table 1 of the paper: apsi, gcc, gzip, mcf, vortex, bzip.
  const auto& programs = catalog(WorkloadGroup::kSpec);
  ASSERT_EQ(programs.size(), 6u);
  std::set<std::string> names;
  for (const auto& p : programs) names.insert(p.name);
  EXPECT_EQ(names, (std::set<std::string>{"apsi", "gcc", "gzip", "mcf", "vortex", "bzip"}));
}

TEST(CatalogTest, AppsGroupHasSevenPrograms) {
  // Table 2: bit-r, m-sort, m-m, t-sim, metis, r-sphere, r-wing.
  const auto& programs = catalog(WorkloadGroup::kApps);
  ASSERT_EQ(programs.size(), 7u);
  std::set<std::string> names;
  for (const auto& p : programs) names.insert(p.name);
  EXPECT_EQ(names, (std::set<std::string>{"bit-r", "m-sort", "m-m", "t-sim", "metis",
                                          "r-sphere", "r-wing"}));
}

TEST(CatalogTest, EveryProgramIsInternallyConsistent) {
  for (WorkloadGroup group : {WorkloadGroup::kSpec, WorkloadGroup::kApps}) {
    for (const auto& p : catalog(group)) {
      EXPECT_GT(p.working_set, 0) << p.name;
      EXPECT_GT(p.lifetime, 0.0) << p.name;
      EXPECT_GT(p.touch_rate, 0.0) << p.name;
      EXPECT_GT(p.mix_weight, 0.0) << p.name;
      EXPECT_EQ(p.group, group) << p.name;
      EXPECT_EQ(p.reference_mhz, reference_mhz(group)) << p.name;
      EXPECT_EQ(p.profile().peak(), p.working_set) << p.name;
      if (p.has_range()) {
        EXPECT_LT(p.working_set_min, p.working_set) << p.name;
      }
    }
  }
}

TEST(CatalogTest, SpecWorkingSetsFitPaperCluster1Memory) {
  // Every Table-1 program ran on a 384 MB workstation without replacement.
  for (const auto& p : catalog(WorkloadGroup::kSpec)) {
    EXPECT_LE(p.working_set, megabytes(384)) << p.name;
  }
}

TEST(CatalogTest, AppsWorkingSetsFitPaperCluster2Memory) {
  // Every Table-2 program ran on a 128 MB workstation.
  for (const auto& p : catalog(WorkloadGroup::kApps)) {
    EXPECT_LE(p.working_set, megabytes(128)) << p.name;
  }
}

TEST(CatalogTest, LargeJobsAreRareInMix) {
  // "The percentage of exceptionally large jobs is very low": the big jobs
  // (apsi/mcf/metis) carry small mix weights.
  for (WorkloadGroup group : {WorkloadGroup::kSpec, WorkloadGroup::kApps}) {
    const auto& programs = catalog(group);
    double total = 0.0, big = 0.0;
    Bytes max_ws = 0;
    for (const auto& p : programs) max_ws = std::max(max_ws, p.working_set);
    for (const auto& p : programs) {
      total += p.mix_weight;
      if (p.working_set * 2 > max_ws) big += p.mix_weight;
    }
    EXPECT_LT(big / total, 0.15) << to_string(group);
  }
}

TEST(CatalogTest, BigJobsAreTheLongest) {
  // The blocking problem needs large jobs with long remaining times.
  const auto& spec = catalog(WorkloadGroup::kSpec);
  double max_normal_lifetime = 0.0, min_big_lifetime = 1e18;
  for (const auto& p : spec) {
    if (p.working_set >= megabytes(150)) {
      min_big_lifetime = std::min(min_big_lifetime, p.lifetime);
    } else {
      max_normal_lifetime = std::max(max_normal_lifetime, p.lifetime);
    }
  }
  EXPECT_GT(min_big_lifetime, max_normal_lifetime);
}

TEST(CatalogTest, FindProgramLocatesBothGroups) {
  auto apsi = find_program("apsi");
  ASSERT_TRUE(apsi.has_value());
  EXPECT_EQ(apsi->group, WorkloadGroup::kSpec);
  auto metis = find_program("metis");
  ASSERT_TRUE(metis.has_value());
  EXPECT_EQ(metis->group, WorkloadGroup::kApps);
  EXPECT_TRUE(metis->has_range());
  EXPECT_FALSE(find_program("nonexistent").has_value());
}

TEST(CatalogTest, GroupNamesRoundTrip) {
  WorkloadGroup group;
  ASSERT_TRUE(parse_workload_group("spec", &group));
  EXPECT_EQ(group, WorkloadGroup::kSpec);
  ASSERT_TRUE(parse_workload_group("apps", &group));
  EXPECT_EQ(group, WorkloadGroup::kApps);
  EXPECT_FALSE(parse_workload_group("bogus", &group));
  EXPECT_STREQ(to_string(WorkloadGroup::kSpec), "spec");
  EXPECT_STREQ(to_string(WorkloadGroup::kApps), "apps");
}

TEST(CatalogTest, GrowthProfilesEndAtWorkingSet) {
  // Table 1/2 working sets are the *maximum* during execution; demand grows
  // toward it across the run.
  for (WorkloadGroup group : {WorkloadGroup::kSpec, WorkloadGroup::kApps}) {
    for (const auto& p : catalog(group)) {
      const auto profile = p.profile();
      EXPECT_EQ(profile.demand_at(1.0), p.working_set) << p.name;
      EXPECT_LT(profile.demand_at(0.0), p.working_set) << p.name;
    }
  }
}

// Tables 1 and 2 measure each program alone on its group's reference
// workstation. Run that way, every program finishes in its lifetime (up to
// the rounding of the tick sums) and never faults: its working set fits.
TEST(CatalogTest, EveryProgramRunsAloneInItsLifetimeWithoutFaults) {
  class Dedicated : public cluster::SchedulerPolicy {
   public:
    const char* name() const override { return "dedicated"; }
    void on_job_arrival(cluster::Cluster& cluster, cluster::RunningJob& job) override {
      cluster.place_local(job, 0);
    }
  };
  int programs = 0;
  for (WorkloadGroup group : {WorkloadGroup::kSpec, WorkloadGroup::kApps}) {
    for (const ProgramSpec& p : catalog(group)) {
      sim::Simulator sim;
      Dedicated policy;
      cluster::Cluster cluster(sim, core::paper_cluster_for(group, 1), policy);
      JobSpec spec;
      spec.id = 1;
      spec.program = p.name;
      spec.cpu_seconds = p.lifetime;
      spec.touch_rate = p.touch_rate;
      spec.memory = p.profile();
      cluster.submit_job(spec);
      sim.run_until(p.lifetime * 10.0 + 100.0);
      ASSERT_EQ(cluster.completed().size(), 1u) << p.name;
      const cluster::CompletedJob& job = cluster.completed()[0];
      EXPECT_NEAR(job.wall_clock(), p.lifetime, 1e-9 * p.lifetime) << p.name;
      EXPECT_EQ(job.faults, 0.0) << p.name;
      EXPECT_EQ(job.t_page, 0.0) << p.name;
      ++programs;
    }
  }
  EXPECT_EQ(programs, 13);
}

}  // namespace
}  // namespace vrc::workload

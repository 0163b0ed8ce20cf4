// Bounded live JobSpec storage for the arrival pump (DESIGN.md §14).
//
// Every run pumps its jobs through Cluster::submit_source, which moves each
// spec into the job it creates; the spec is freed when the job completes.
// This test streams a million jobs and holds the pump's live JobSpec storage
// to the jobs in flight, not the stream length. (The ten standard shapes are pinned through the same
// pump by tests/integration/standard_shape_fingerprint_test.cc.)
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "core/experiment.h"
#include "metrics/report.h"
#include "workload/arrival_source.h"

namespace vrc {
namespace {

// Cheap deterministic firehose: `total` short uniform jobs arriving at a
// rate the cluster can absorb, so only a handful are ever in flight. No RNG
// and no per-job allocations beyond the spec itself — the point is to make
// a million-job stream affordable in a unit test.
class UniformFirehose final : public workload::ArrivalSource {
 public:
  UniformFirehose(std::uint64_t total, std::uint32_t nodes, SimTime window)
      : total_(total), nodes_(nodes), window_(window) {}

  std::optional<workload::JobSpec> next() override {
    if (emitted_ == total_) return std::nullopt;
    workload::JobSpec spec;
    spec.id = static_cast<workload::JobId>(emitted_ + 1);
    spec.program = "uniform";
    spec.submit_time = arrival_time(emitted_);
    spec.home_node = static_cast<workload::NodeId>(emitted_ % nodes_);
    spec.cpu_seconds = 1.0;
    spec.touch_rate = 0.0;  // no paging: exercise the pump, not fault service
    spec.memory = workload::MemoryProfile::constant(megabytes(50));
    ++emitted_;
    return spec;
  }

  std::optional<SimTime> peek_time() override {
    if (emitted_ == total_) return std::nullopt;
    return arrival_time(emitted_);
  }

  const std::string& name() const override { return name_; }
  workload::WorkloadGroup group() const override { return workload::WorkloadGroup::kSpec; }
  std::optional<std::size_t> total_jobs() const override { return total_; }

 private:
  SimTime arrival_time(std::uint64_t index) const {
    return window_ * static_cast<double>(index) / static_cast<double>(total_);
  }

  std::uint64_t total_;
  std::uint32_t nodes_;
  SimTime window_;
  std::uint64_t emitted_ = 0;
  std::string name_ = "uniform-firehose";
};

// The headline memory claim: a million-job stream completes with live
// JobSpec storage bounded by the number of jobs in flight, not the stream
// length. Mirrors perfbench's large-cluster shape (short uniform jobs spread
// across many homes) so service keeps pace with arrivals and nearly every
// spec is freed long before the stream ends.
TEST(StreamingEquivalenceTest, MillionJobStreamBoundsLiveSpecStorage) {
  constexpr std::uint64_t kJobs = 1'000'000;
  constexpr std::uint32_t kNodes = 2048;
  // ~488 arrivals/s across 2048 nodes at 1 cpu-second each: per-node
  // utilization ~24%, so the in-flight population stays small.
  UniformFirehose source(kJobs, kNodes, /*window=*/2048.0);

  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, kNodes);
  config.tick = 0.1;                  // coarse ticks: measure the pump, not accounting
  config.load_exchange_period = 5.0;  // a 2k-node board refresh per second is wasted work

  core::ExperimentOptions options;
  options.max_sim_time = 50000.0;
  options.collector.sampling_intervals = {60.0};

  const auto report =
      core::run_policy_on_source(core::PolicySpec("local-only"), source, config, options);
  ASSERT_TRUE(report.has_value());

  EXPECT_TRUE(report->streamed);
  EXPECT_EQ(report->jobs_submitted, kJobs);
  EXPECT_EQ(report->jobs_completed, kJobs);
  EXPECT_GT(report->peak_live_specs, 0u);
  // The bound that makes streaming worthwhile: peak live storage is a tiny
  // fraction of the stream (in practice a few thousand specs, ~0.5%). A
  // materialized run would hold all 1M specs for the whole run.
  EXPECT_LT(report->peak_live_specs, kJobs / 100)
      << "pump retained " << report->peak_live_specs << " live specs";
}

}  // namespace
}  // namespace vrc

// Traced runs: the policy and arrival-source decorators that time each layer
// from outside the simulator. No simulator code changes; a traced cell must
// produce the bit-identical report of an untraced one.
//
// Spans are aggregated per name in memory (hooks fire millions of times on
// the large workloads) and read out when the cell ends. Self time is a span's
// duration minus the spans nested inside it, so self times never double
// count.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/policy.h"
#include "workload/arrival_source.h"

namespace perfbench {

enum class Span : std::size_t {
  kArrival,            // SchedulerPolicy::on_job_arrival
  kCompletion,         // on_job_completed (fires inside the tick loop)
  kPressure,           // on_node_pressure (fires inside the tick loop)
  kPeriodic,           // on_periodic
  kMigrationComplete,  // on_migration_complete
  kResizeComplete,     // on_resize_complete
  kNodeFailed,         // on_node_failed
  kNodeRecovered,      // on_node_recovered
  kTransferFailed,     // on_transfer_failed
  kSourcePeek,         // ArrivalSource::peek_time
  kSourceNext,         // ArrivalSource::next
  kCount,
};

/// Metric-name suffix of a span ("arrival", "migration_complete", ...).
const char* span_name(Span span);

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  // including nested spans
  std::uint64_t self_ns = 0;   // excluding nested spans
};

/// Per-name span aggregates for one traced cell.
class SpanRecorder {
 public:
  void begin(Span span);
  void end();  // closes the innermost open span

  const SpanTotals& totals(Span span) const { return totals_[static_cast<std::size_t>(span)]; }

 private:
  struct Open {
    Span span;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  std::array<SpanTotals, static_cast<std::size_t>(Span::kCount)> totals_{};
  std::vector<Open> stack_;
};

/// Forwards every SchedulerPolicy call to `inner`.
class ForwardingPolicy : public vrc::cluster::SchedulerPolicy {
 public:
  explicit ForwardingPolicy(vrc::cluster::SchedulerPolicy& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  void attach(vrc::cluster::Cluster& cluster) override { inner_.attach(cluster); }
  void on_job_arrival(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override {
    inner_.on_job_arrival(cluster, job);
  }
  void on_job_completed(vrc::cluster::Cluster& cluster,
                        const vrc::cluster::CompletedJob& record) override {
    inner_.on_job_completed(cluster, record);
  }
  void on_node_pressure(vrc::cluster::Cluster& cluster, vrc::cluster::Workstation& node) override {
    inner_.on_node_pressure(cluster, node);
  }
  void on_periodic(vrc::cluster::Cluster& cluster) override { inner_.on_periodic(cluster); }
  void on_migration_complete(vrc::cluster::Cluster& cluster,
                             vrc::cluster::RunningJob& job) override {
    inner_.on_migration_complete(cluster, job);
  }
  void on_resize_complete(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override {
    inner_.on_resize_complete(cluster, job);
  }
  void on_node_failed(vrc::cluster::Cluster& cluster, vrc::workload::NodeId node) override {
    inner_.on_node_failed(cluster, node);
  }
  void on_node_recovered(vrc::cluster::Cluster& cluster, vrc::workload::NodeId node) override {
    inner_.on_node_recovered(cluster, node);
  }
  void on_transfer_failed(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override {
    inner_.on_transfer_failed(cluster, job);
  }
  std::vector<std::pair<std::string, double>> stats() const override { return inner_.stats(); }

 protected:
  vrc::cluster::SchedulerPolicy& inner_;
};

/// Records one span per hook around the forwarded call.
class TracingPolicy final : public ForwardingPolicy {
 public:
  TracingPolicy(vrc::cluster::SchedulerPolicy& inner, SpanRecorder& spans)
      : ForwardingPolicy(inner), spans_(spans) {}

  void on_job_arrival(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override;
  void on_job_completed(vrc::cluster::Cluster& cluster,
                        const vrc::cluster::CompletedJob& record) override;
  void on_node_pressure(vrc::cluster::Cluster& cluster, vrc::cluster::Workstation& node) override;
  void on_periodic(vrc::cluster::Cluster& cluster) override;
  void on_migration_complete(vrc::cluster::Cluster& cluster,
                             vrc::cluster::RunningJob& job) override;
  void on_resize_complete(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override;
  void on_node_failed(vrc::cluster::Cluster& cluster, vrc::workload::NodeId node) override;
  void on_node_recovered(vrc::cluster::Cluster& cluster, vrc::workload::NodeId node) override;
  void on_transfer_failed(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override;

 private:
  SpanRecorder& spans_;
};

/// Reads the clock at every on_periodic pulse (every config.policy_period of
/// simulated time) and nothing else. The simulation is deterministic, so the
/// k-th interval between pulses holds the same work in every pass; timing
/// each interval lets the untraced passes be compared piece by piece.
class PulseClock final : public ForwardingPolicy {
 public:
  PulseClock(vrc::cluster::SchedulerPolicy& inner, std::vector<std::uint64_t>& stamps_ns)
      : ForwardingPolicy(inner), stamps_ns_(stamps_ns) {}

  void on_periodic(vrc::cluster::Cluster& cluster) override;

 private:
  std::vector<std::uint64_t>& stamps_ns_;
};

/// Monotonic host clock in nanoseconds.
std::uint64_t now_ns();

/// Forwards every ArrivalSource call to `inner`, timing peek_time and next.
class TimedSource final : public vrc::workload::ArrivalSource {
 public:
  TimedSource(vrc::workload::ArrivalSource& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  std::optional<vrc::SimTime> peek_time() override;
  std::optional<vrc::workload::JobSpec> next() override;
  std::optional<std::size_t> total_jobs() const override { return inner_.total_jobs(); }
  const std::string& name() const override { return inner_.name(); }
  vrc::workload::WorkloadGroup group() const override { return inner_.group(); }

 private:
  vrc::workload::ArrivalSource& inner_;
  SpanRecorder& spans_;
};

}  // namespace perfbench

#include "tracing.h"

#include <chrono>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

namespace {

/// Opens a span for the enclosing scope.
class Scoped {
 public:
  Scoped(SpanRecorder& spans, Span span) : spans_(spans) { spans_.begin(span); }
  ~Scoped() { spans_.end(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& spans_;
};

}  // namespace

const char* span_name(Span span) {
  switch (span) {
    case Span::kArrival:
      return "arrival";
    case Span::kCompletion:
      return "completion";
    case Span::kPressure:
      return "pressure";
    case Span::kPeriodic:
      return "periodic";
    case Span::kMigrationComplete:
      return "migration_complete";
    case Span::kResizeComplete:
      return "resize_complete";
    case Span::kNodeFailed:
      return "node_failed";
    case Span::kNodeRecovered:
      return "node_recovered";
    case Span::kTransferFailed:
      return "transfer_failed";
    case Span::kSourcePeek:
      return "source_peek";
    case Span::kSourceNext:
      return "source_next";
    case Span::kCount:
      break;
  }
  return "?";
}

void SpanRecorder::begin(Span span) { stack_.push_back({span, now_ns(), 0}); }

void SpanRecorder::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = now_ns() - open.start_ns;
  SpanTotals& totals = totals_[static_cast<std::size_t>(open.span)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

void TracingPolicy::on_job_arrival(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) {
  Scoped span(spans_, Span::kArrival);
  inner_.on_job_arrival(cluster, job);
}

void TracingPolicy::on_job_completed(vrc::cluster::Cluster& cluster,
                                     const vrc::cluster::CompletedJob& record) {
  Scoped span(spans_, Span::kCompletion);
  inner_.on_job_completed(cluster, record);
}

void TracingPolicy::on_node_pressure(vrc::cluster::Cluster& cluster,
                                     vrc::cluster::Workstation& node) {
  Scoped span(spans_, Span::kPressure);
  inner_.on_node_pressure(cluster, node);
}

void TracingPolicy::on_periodic(vrc::cluster::Cluster& cluster) {
  Scoped span(spans_, Span::kPeriodic);
  inner_.on_periodic(cluster);
}

void TracingPolicy::on_migration_complete(vrc::cluster::Cluster& cluster,
                                          vrc::cluster::RunningJob& job) {
  Scoped span(spans_, Span::kMigrationComplete);
  inner_.on_migration_complete(cluster, job);
}

void TracingPolicy::on_resize_complete(vrc::cluster::Cluster& cluster,
                                       vrc::cluster::RunningJob& job) {
  Scoped span(spans_, Span::kResizeComplete);
  inner_.on_resize_complete(cluster, job);
}

void TracingPolicy::on_node_failed(vrc::cluster::Cluster& cluster, vrc::workload::NodeId node) {
  Scoped span(spans_, Span::kNodeFailed);
  inner_.on_node_failed(cluster, node);
}

void TracingPolicy::on_node_recovered(vrc::cluster::Cluster& cluster,
                                      vrc::workload::NodeId node) {
  Scoped span(spans_, Span::kNodeRecovered);
  inner_.on_node_recovered(cluster, node);
}

void TracingPolicy::on_transfer_failed(vrc::cluster::Cluster& cluster,
                                       vrc::cluster::RunningJob& job) {
  Scoped span(spans_, Span::kTransferFailed);
  inner_.on_transfer_failed(cluster, job);
}

void PulseClock::on_periodic(vrc::cluster::Cluster& cluster) {
  stamps_ns_.push_back(now_ns());
  inner_.on_periodic(cluster);
}

std::optional<vrc::SimTime> TimedSource::peek_time() {
  Scoped span(spans_, Span::kSourcePeek);
  return inner_.peek_time();
}

std::optional<vrc::workload::JobSpec> TimedSource::next() {
  Scoped span(spans_, Span::kSourceNext);
  return inner_.next();
}

}  // namespace perfbench

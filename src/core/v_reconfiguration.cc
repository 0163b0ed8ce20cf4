#include "core/v_reconfiguration.h"

#include <algorithm>

#include "metrics/perf_counters.h"
#include "util/log.h"

namespace vrc::core {

VReconfiguration::VReconfiguration(Options options)
    : GLoadSharing(options.base), options_(options) {}

void VReconfiguration::attach(Cluster& cluster) {
  GLoadSharing::attach(cluster);
  reservations_.clear();
  last_blocking_seen_ = -1e18;
  last_drain_timeout_ = -1e18;
  reservations_started_ = 0;
  reservations_cancelled_ = 0;
  reserved_migrations_ = 0;
  declined_max_reservations_ = 0;
  declined_low_idle_ = 0;
  declined_no_candidate_ = 0;
  drains_timed_out_ = 0;
  reservations_failed_ = 0;
}

void VReconfiguration::on_node_pressure(Cluster& cluster, Workstation& node) {
  // Normal dynamic load sharing first: if a qualified migration destination
  // exists, there is no blocking problem.
  if (try_migrate_from(cluster, node)) return;
  ++failed_migrations_;

  // Page faults with no destination: the blocking problem is detected.
  last_blocking_seen_ = cluster.simulator().now();
  handle_blocking(cluster, node);
}

bool VReconfiguration::handle_blocking(Cluster& cluster, Workstation& node) {
  // The blocking problem is rooted in unsuitable placements of jobs with
  // large memory demands. Pressure on a node that is not substantially
  // overcommitted, or whose jobs are all normal-sized, is ordinary load —
  // reserving a workstation cannot help it (and the migration freeze would
  // cost more than the paging it cures).
  if (node.overcommit() < options_.min_overcommit) return false;
  RunningJob* big = node.most_memory_intensive_job();
  if (big == nullptr || big->demand < big_job_threshold(cluster)) return false;

  // (1) An existing reserved workstation with enough available resources.
  if (Reservation* usable =
          find_usable_reservation(cluster, headroom_for(big->demand), big->width)) {
    if (cluster.start_migration(node.id(), big->id(), usable->node)) {
      ++reserved_migrations_;
      usable->state = ReservationState::kServing;
      VRC_LOG(kInfo) << "t=" << cluster.simulator().now() << " blocking: job " << big->id()
                     << " sent to existing reserved node " << usable->node;
      return true;
    }
  }

  // (2) Start a reserving period, if reconfiguration can help at all. Up to
  // max_reservations workstations ("a small set") may be reserved at once,
  // but only one may be draining at a time, and a recently abandoned drain
  // (§2.3: truly heavily loaded) imposes a backoff.
  if (static_cast<int>(reservations_.size()) >= options_.max_reservations ||
      has_draining_reservation()) {
    ++declined_max_reservations_;
    return false;
  }
  if (cluster.simulator().now() - last_drain_timeout_ < options_.timeout_backoff) {
    return false;
  }
  // The reconfiguration routine gathers a fresh view when triggered (it is
  // a rare control-path operation); the board's sender-side decrements would
  // otherwise understate the accumulated idle memory.
  const Bytes cluster_idle = cluster.live_idle_memory();
  const Bytes avg_user = cluster.board().average_user_memory();
  if (static_cast<double>(cluster_idle) <
      options_.min_cluster_idle_factor * static_cast<double>(avg_user)) {
    // §2.3: accumulated idle memory too small — memory is genuinely
    // exhausted; reconfiguration would not be effective.
    ++declined_low_idle_;
    return false;
  }
  auto candidate = pick_reservation_candidate(cluster, node.id());
  if (!candidate) {
    ++declined_no_candidate_;
    return false;
  }

  cluster.set_reserved(*candidate, true);
  reservations_.push_back(
      {*candidate, ReservationState::kDraining, cluster.simulator().now()});
  ++reservations_started_;
  VRC_LOG(kInfo) << "t=" << cluster.simulator().now() << " blocking: reserving node "
                 << *candidate << " (idle=" << to_megabytes(cluster_idle) << " MB cluster-wide)";

  // A reserved workstation with no running jobs is usable immediately.
  on_periodic(cluster);
  return true;
}

std::optional<NodeId> VReconfiguration::pick_reservation_candidate(Cluster& cluster,
                                                                   NodeId pressured) const {
  // Largest idle memory first (committed demand is the best observable
  // proxy for how fast the reserving period completes — small residents
  // are short-lived jobs, per the lifetime-prediction argument of [5]),
  // then fewest jobs, then lowest id. A rare control-path step (one per
  // detected blocking episode), so a scan of the live workstations.
  metrics::perf_add(&metrics::PerfCounters::reservation_scans);
  const Workstation* best = nullptr;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    const Workstation& node = cluster.node(static_cast<NodeId>(i));
    if (node.failed() || node.reserved() || node.id() == pressured) continue;
    if (node.incoming_count() != 0) continue;  // placements in flight
    if (best == nullptr || node.idle_memory() > best->idle_memory() ||
        (node.idle_memory() == best->idle_memory() &&
         node.active_jobs() < best->active_jobs())) {
      best = &node;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id();
}

Bytes VReconfiguration::big_job_threshold(const Cluster& cluster) const {
  return saturating_bytes(options_.big_job_factor *
                          static_cast<double>(cluster.config().admission_demand_estimate));
}

Bytes VReconfiguration::headroom_for(Bytes demand) const {
  return saturating_bytes(options_.growth_headroom * static_cast<double>(demand));
}

RunningJob* VReconfiguration::find_cluster_big_job(Cluster& cluster, NodeId* src) const {
  const Bytes big_threshold = big_job_threshold(cluster);
  RunningJob* best = nullptr;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    Workstation& node = cluster.node(static_cast<NodeId>(i));
    if (node.failed() || node.reserved() || node.overcommit() < options_.min_overcommit) {
      continue;
    }
    RunningJob* candidate = node.most_memory_intensive_job();
    if (candidate == nullptr || candidate->demand < big_threshold) continue;
    if (!best || candidate->demand > best->demand) {
      best = candidate;
      *src = node.id();
    }
  }
  return best;
}

bool VReconfiguration::has_draining_reservation() const {
  return std::any_of(reservations_.begin(), reservations_.end(), [](const Reservation& r) {
    return r.state == ReservationState::kDraining;
  });
}

VReconfiguration::Reservation* VReconfiguration::find_usable_reservation(Cluster& cluster,
                                                                         Bytes demand,
                                                                         int width) {
  // Migration preserves the big job's width; the reserved node must hold it.
  for (Reservation& reservation : reservations_) {
    Workstation& node = cluster.node(reservation.node);
    if (node.failed()) continue;
    const bool drained =
        reservation.state == ReservationState::kServing || node.active_jobs() == 0;
    if (drained && node.fits(width, demand)) return &reservation;
  }
  return nullptr;
}

std::vector<std::pair<std::string, double>> VReconfiguration::stats() const {
  auto stats = GLoadSharing::stats();
  stats.emplace_back("reservations_started", static_cast<double>(reservations_started_));
  stats.emplace_back("reservations_cancelled", static_cast<double>(reservations_cancelled_));
  stats.emplace_back("reserved_migrations", static_cast<double>(reserved_migrations_));
  stats.emplace_back("declined_max", static_cast<double>(declined_max_reservations_));
  stats.emplace_back("declined_idle", static_cast<double>(declined_low_idle_));
  stats.emplace_back("declined_candidate", static_cast<double>(declined_no_candidate_));
  stats.emplace_back("drains_timed_out", static_cast<double>(drains_timed_out_));
  stats.emplace_back("reservations_failed", static_cast<double>(reservations_failed_));
  return stats;
}

void VReconfiguration::on_periodic(Cluster& cluster) {
  GLoadSharing::on_periodic(cluster);
  maintain_reservations(cluster);
}

void VReconfiguration::on_job_completed(Cluster& cluster,
                                        const cluster::CompletedJob& record) {
  GLoadSharing::on_job_completed(cluster, record);
  maintain_reservations(cluster);
}

void VReconfiguration::on_node_failed(Cluster& cluster, NodeId node) {
  (void)node;
  maintain_reservations(cluster);  // abandons a reservation on the dead node
}

VReconfiguration::End VReconfiguration::step(Cluster& cluster, Reservation& reservation,
                                             SimTime now) {
  Workstation& node = cluster.node(reservation.node);
  // A dead workstation's big job, if it served one, has already been killed
  // and re-enqueued by the cluster; the node rejoins the pool on recovery.
  if (node.failed()) return End::kNodeFailed;
  if (reservation.state == ReservationState::kServing) {
    return node.active_jobs() == 0 && node.incoming_count() == 0 ? End::kServed : End::kKeep;
  }
  // Adaptive switch-back: no blocking for a while, cancel the drain.
  if (now - last_blocking_seen_ > options_.blocking_resolve_timeout) return End::kResolved;
  // §2.3: the workstation could not be drained within the interval — the
  // cluster is truly heavily loaded; give the node back.
  if (now - reservation.started > options_.reserve_timeout) return End::kTimedOut;

  // The reserving period is over once every job has left, or (early
  // release) as soon as the node fits the cluster's big job.
  const bool emptied = node.active_jobs() == 0;
  if (!emptied && !options_.early_release) return End::kKeep;
  NodeId src = 0;
  RunningJob* big = find_cluster_big_job(cluster, &src);
  // No big job left on an emptied node: the blocking problem resolved itself
  // during the reserving period.
  if (big == nullptr) return emptied ? End::kResolved : End::kKeep;
  // A big job that does not fit yet keeps the node draining until a timeout
  // ends the reservation.
  if (!node.fits(big->width, headroom_for(big->demand))) return End::kKeep;
  if (cluster.start_migration(src, big->id(), reservation.node)) {
    ++reserved_migrations_;
    reservation.state = ReservationState::kServing;
    VRC_LOG(kInfo) << "t=" << now << " reserving period over: job " << big->id() << " ("
                   << to_megabytes(big->demand) << " MB) -> reserved node " << reservation.node;
  }
  return End::kKeep;
}

void VReconfiguration::maintain_reservations(Cluster& cluster) {
  const SimTime now = cluster.simulator().now();
  for (std::size_t i = 0; i < reservations_.size();) {
    const End end = step(cluster, reservations_[i], now);
    if (end == End::kKeep) {
      ++i;
      continue;
    }
    // The one way a reservation ends: the node rejoins the normal pool.
    const NodeId node = reservations_[i].node;
    cluster.set_reserved(node, false);
    VRC_LOG(kInfo) << "t=" << now << " reservation on node " << node << " released";
    if (end == End::kNodeFailed) ++reservations_failed_;
    if (end == End::kResolved) ++reservations_cancelled_;
    if (end == End::kTimedOut) {
      ++drains_timed_out_;
      last_drain_timeout_ = now;
    }
    reservations_.erase(reservations_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

}  // namespace vrc::core

// Static description of a single job instance in a trace.
//
// Mirrors the paper's trace header item (submission time, job ID, lifetime
// measured in the dedicated environment) plus the compact form of the
// per-10 ms activity records: a memory-demand profile and a page-touch
// intensity (see DESIGN.md §5).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "util/units.h"
#include "workload/memory_profile.h"

namespace vrc::workload {

using JobId = std::uint32_t;
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Malleability contract of a job (DESIGN.md §15): the width range it can
/// run at, the cost of changing width while running, and how extra width
/// converts to useful work. Width is measured in CPU slots on the owning
/// workstation — a width-w job holds w of the node's round-robin shares, so
/// shrinking it frees slots in place (the third reconfiguration axis next to
/// migration and suspension). Memory demand is width-independent: resizing
/// never moves or grows the working set.
struct Malleability {
  /// Narrowest width the job still makes progress at (>= 1).
  int min_width = 1;
  /// Widest width the job can exploit; the job is submitted at this width.
  int max_width = 1;
  /// Fixed pause (seconds) every resize costs regardless of the delta —
  /// barrier/drain overhead of the DMR-style reconfiguration point.
  double resize_fixed_cost = 0.5;
  /// Additional pause per slot of |new_width - old_width| (data
  /// redistribution scales with the reconfiguration delta).
  double resize_per_slot_cost = 0.25;
  /// Per-width speedup curve exponent: running at width w progresses
  /// s(w) = w^alpha times faster than at width 1 under equal contention.
  /// 1.0 is perfect scaling; 0.0 means extra width is pure overhead.
  double speedup_alpha = 0.8;

  /// True when the width can actually change at runtime.
  bool resizable() const { return max_width > min_width; }

  /// s(w): useful-work multiplier of width w relative to width 1.
  double speedup(int width) const {
    return std::pow(static_cast<double>(width), speedup_alpha);
  }
};

/// One job of a workload trace. Immutable during simulation; runtime state
/// (progress, accounting) lives in the cluster module.
struct JobSpec {
  JobId id = 0;
  std::string program;        // catalog program name this instance runs
  SimTime submit_time = 0.0;  // arrival at the home workstation
  NodeId home_node = 0;       // workstation the user submits to
  SimTime cpu_seconds = 0.0;  // dedicated CPU demand on the trace's reference CPU
  double touch_rate = 0.0;    // new-page touches per CPU-second
  MemoryProfile memory = MemoryProfile::constant(0);
  /// Width contract. The default block (min == max == 1) is a rigid
  /// single-slot job, which keeps every pre-malleability trace bit-identical.
  Malleability malleability;

  /// Peak memory demand of this instance.
  Bytes working_set() const { return memory.peak(); }

  /// Width the job is submitted at (malleable jobs ask for their maximum;
  /// the M-Reconfiguration policy shrinks them later if that blocks others).
  int initial_width() const { return malleability.max_width; }

  /// True when the job's width is not the rigid single slot.
  bool malleable() const {
    return malleability.max_width > 1 || malleability.min_width > 1 ||
           malleability.resizable();
  }
};

}  // namespace vrc::workload

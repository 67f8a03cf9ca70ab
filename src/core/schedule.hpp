// Candidate schedules (paper §4, §6).
//
// A candidate schedule linearizes the pending tasks in policy-priority order
// onto the site's processors (running tasks keep their processors until
// their expected completion) and reads off each task's expected start and
// completion per Eq. 2. Admission control and server quotes are both
// computed from this projection.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"

namespace mbts {

/// One pending task as input to list scheduling.
struct PendingItem {
  TaskId id = kInvalidTask;
  double rpt = 0.0;
  /// Processors the task gang-schedules onto (1 for the paper's model).
  std::size_t width = 1;
};

/// Projected placement of one pending task.
struct ScheduleEntry {
  TaskId id = kInvalidTask;
  double start = 0.0;
  double completion = 0.0;
};

/// Greedy list scheduling: assigns `ordered` (highest priority first) to
/// the earliest-free processors. A width-w item gangs onto the w
/// earliest-free processors, starting when the last of them frees (a
/// conservative projection: no backfilling around waiting wide tasks).
/// `proc_free` holds each processor's next free time (>= now for busy
/// processors; == now for idle ones). Returns one entry per pending item,
/// in the input order. Keeps the free times as a sorted array: O(p log p)
/// to sort them, then O(p) per item (a branch-free pass for width 1 on up
/// to 8 processors, a binary search and a shift otherwise).
std::vector<ScheduleEntry> list_schedule(std::span<const double> proc_free,
                                         std::span<const PendingItem> ordered);

/// Expected completion of the item at `index` in `ordered` under
/// list_schedule — a convenience that avoids materializing all entries when
/// only one task's quote is needed. Semantics identical to
/// list_schedule(...)[index].completion.
double completion_of(std::span<const double> proc_free,
                     std::span<const PendingItem> ordered, std::size_t index);

/// Allocation-free variant for hot paths: `free_scratch` is clobbered and
/// reused as the sorted free-time array. Bit-identical to completion_of
/// above.
double completion_of(std::span<const double> proc_free,
                     std::span<const PendingItem> ordered, std::size_t index,
                     std::vector<double>& free_scratch);

}  // namespace mbts

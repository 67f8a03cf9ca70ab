// Dispatch selection from two rankings, extracted from SiteScheduler so the
// dispatch path and its property test (tests/test_dispatch_select.cpp)
// share one implementation.
#pragma once

#include <cstddef>
#include <span>

namespace mbts {

/// Picks the target running set from the pending ranking and the running
/// ranking, each sorted by (score desc, id asc). Walks their merge under
/// (score desc, running first, id asc) — ties keep running tasks in place,
/// so dispatches never flap — and admits each entry while its width fits
/// the remaining `capacity`: gang scheduling with aggressive backfill and
/// no reservation, which with every width 1 keeps the top `capacity`.
/// Calls start(entry) for each admitted pending entry and preempt(entry)
/// for each running entry left out, both in merge order. Once the capacity
/// is spent nothing else fits (widths are >= 1) and every running entry
/// left is displaced, so the walk never touches the pending tail. A
/// non-preemptive dispatch passes no running entries and the free
/// processor count as `capacity`.
template <typename Entry, typename WidthOf, typename Start, typename Preempt>
void select_from_rankings(std::span<const Entry> pending,
                          std::span<const Entry> running,
                          std::size_t capacity, WidthOf width_of, Start start,
                          Preempt preempt) {
  std::size_t free = capacity;
  std::size_t p = 0;
  std::size_t r = 0;
  while (free > 0 && (p < pending.size() || r < running.size())) {
    const bool take_running =
        r < running.size() &&
        (p == pending.size() || running[r].score >= pending[p].score);
    const Entry& entry = take_running ? running[r++] : pending[p++];
    const std::size_t width = width_of(entry);
    if (width <= free) {
      free -= width;
      if (!take_running) start(entry);
    } else if (take_running) {
      preempt(entry);
    }
  }
  for (; r < running.size(); ++r) preempt(running[r]);
}

}  // namespace mbts

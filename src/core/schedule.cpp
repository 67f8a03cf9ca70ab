#include "core/schedule.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mbts {

namespace {

/// Up to this many processors a width-1 step is one branch-free pass over
/// the free times; beyond it a binary search and a shift are cheaper
/// (measured crossover between 8 and 12 processors).
constexpr std::size_t kBranchFreeProcessors = 8;

/// One greedy list-scheduling step on `free_at`, the processors' free times
/// sorted ascending: `item` claims the `width` earliest-free processors,
/// starts when the last of them frees (free_at[width - 1]) and hands them
/// back at its completion, which replaces the claimed entries in sorted
/// position. The start depends only on the multiset of free times, so any
/// exact implementation (the oracle's erase-and-insert, a binary heap)
/// projects bit-identical times. Returns the start.
double place(std::vector<double>& free_at, const PendingItem& item) {
  MBTS_DCHECK(item.rpt > 0.0);
  const std::size_t p = free_at.size();
  MBTS_CHECK_MSG(item.width >= 1 && item.width <= p,
                 "task width exceeds site capacity");
  double* a = free_at.data();
  const double start = a[item.width - 1];
  const double completion = start + item.rpt;
  if (item.width == 1 && p > 1 && p <= kBranchFreeProcessors) {
    // Drop the minimum and insert the completion (>= a[0]) in one
    // branch-free pass: entry j becomes the j-th smallest of a[1..p) and
    // the completion. Entry 0 needs no max (completion >= a[0]), which
    // keeps the next item's start two operations from this one's.
    a[0] = std::min(a[1], completion);
    for (std::size_t j = 1; j + 1 < p; ++j)
      a[j] = std::min(a[j + 1], std::max(a[j], completion));
    a[p - 1] = std::max(a[p - 1], completion);
  } else {
    // A gang (or a wide site, where the O(p) pass costs more than a
    // search): shift the survivors that free first down over the claimed
    // entries, then seat the `width` copies of the completion behind them.
    double* const seat = std::upper_bound(a + item.width, a + p, completion);
    double* const moved = std::copy(a + item.width, seat, a);
    std::fill(moved, seat, completion);
  }
  MBTS_DCHECK(std::is_sorted(free_at.begin(), free_at.end()));
  return start;
}

}  // namespace

std::vector<ScheduleEntry> list_schedule(
    std::span<const double> proc_free, std::span<const PendingItem> ordered) {
  MBTS_CHECK_MSG(!proc_free.empty(), "need at least one processor");
  std::vector<double> free_at(proc_free.begin(), proc_free.end());
  std::sort(free_at.begin(), free_at.end());
  std::vector<ScheduleEntry> entries;
  entries.reserve(ordered.size());
  for (const PendingItem& item : ordered) {
    const double start = place(free_at, item);
    entries.push_back({item.id, start, start + item.rpt});
  }
  return entries;
}

double completion_of(std::span<const double> proc_free,
                     std::span<const PendingItem> ordered, std::size_t index) {
  std::vector<double> free_scratch;
  return completion_of(proc_free, ordered, index, free_scratch);
}

double completion_of(std::span<const double> proc_free,
                     std::span<const PendingItem> ordered, std::size_t index,
                     std::vector<double>& free_scratch) {
  MBTS_CHECK(index < ordered.size());
  MBTS_CHECK_MSG(!proc_free.empty(), "need at least one processor");
  // The same steps as list_schedule, keeping only the free-time array.
  free_scratch.assign(proc_free.begin(), proc_free.end());
  std::sort(free_scratch.begin(), free_scratch.end());
  for (std::size_t i = 0; i < index; ++i) place(free_scratch, ordered[i]);
  return place(free_scratch, ordered[index]) + ordered[index].rpt;
}

}  // namespace mbts

// The pending ranking a site keeps sorted across events, extracted from
// SiteScheduler so the scheduler and its property test
// (tests/test_ranked_backlog.cpp) share one implementation.
//
// Between two rankings of a backlog little changes: scores drift (often not
// at all, within one instant) and an arrival or two joins. The ranking is
// therefore kept as one persistent {score, slot} array sorted by (score
// desc, id asc), plus the count of leading entries the last ranking
// sorted. Arrivals append behind that prefix; a ranking rescores every
// entry in place and, when the prefix is still in order, seats each
// arrival by binary search instead of re-sorting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rank_sort.hpp"
#include "util/check.hpp"

namespace mbts {

/// One ranked pending task: its score at the last ranking and its slot in
/// the owner's slot-indexed pending array.
struct RankEntry {
  double score = 0.0;
  std::uint32_t slot = 0;
};

class RankedBacklog {
 public:
  /// More arrivals than this since the last ranking are sorted with the
  /// rest instead of seated one by one: each seat shifts O(n) entries.
  /// Seating 17-32 arrivals still measured about 2x under the fallback;
  /// larger batches were rare, or bulk loads (a preload) that must sort.
  static constexpr std::size_t kMaxSeats = 32;

  std::size_t size() const { return entries_.size(); }
  /// Leading entries sorted by the last ranking (the rest are arrivals).
  std::size_t sorted_count() const { return sorted_; }
  std::span<const RankEntry> entries() const { return entries_; }

  /// An arrival at `slot` (== the owner's new pending size - 1) joins
  /// unranked at the back.
  void push(std::uint32_t slot) {
    MBTS_DCHECK(slot == entries_.size());
    entries_.push_back({0.0, slot});
  }

  /// Drops `slot`. The owner erases by swap-with-back, so the entry naming
  /// its last slot is renamed to `slot`. One pass keeps the order.
  void erase(std::uint32_t slot) {
    MBTS_DCHECK(slot < entries_.size());
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      RankEntry entry = entries_[i];
      if (entry.slot == slot) {
        if (i < sorted_) --sorted_;
        continue;
      }
      if (entry.slot == last) entry.slot = slot;
      entries_[out++] = entry;
    }
    MBTS_DCHECK(out + 1 == entries_.size());
    entries_.pop_back();
  }

  /// Rescores every entry from `scores` (indexed by slot) and sorts by
  /// (score desc, id_of(slot) asc), a strict total order when ids are
  /// distinct, so the result is the unique sorted permutation whichever
  /// path reaches it. One pass writes the scores and counts the adjacent
  /// inversions of the sorted prefix; a still-sorted prefix takes the
  /// arrivals by binary search and a shift, anything else falls back to
  /// adaptive_sort.
  template <typename IdOf>
  void rank(std::span<const double> scores, IdOf id_of) {
    MBTS_DCHECK(scores.size() == entries_.size());
    const auto less = [&](const RankEntry& a, const RankEntry& b) {
      if (a.score != b.score) return a.score > b.score;
      return id_of(a.slot) < id_of(b.slot);
    };
    const std::size_t n = entries_.size();
    RankEntry* const e = entries_.data();
    std::size_t inversions = 0;
    for (std::size_t i = 0; i < sorted_; ++i) {
      e[i].score = scores[e[i].slot];
      if (i > 0) inversions += static_cast<std::size_t>(less(e[i], e[i - 1]));
    }
    for (std::size_t i = sorted_; i < n; ++i) e[i].score = scores[e[i].slot];
    if (inversions == 0 && n - sorted_ <= kMaxSeats) {
      for (std::size_t i = sorted_; i < n; ++i) {
        const RankEntry arrival = e[i];
        RankEntry* const seat = std::upper_bound(e, e + i, arrival, less);
        std::move_backward(seat, e + i, e + i + 1);
        *seat = arrival;
      }
    } else {
      adaptive_sort(entries_, less);
    }
    sorted_ = n;
    MBTS_DCHECK(std::is_sorted(entries_.begin(), entries_.end(), less));
  }

 private:
  std::vector<RankEntry> entries_;
  std::size_t sorted_ = 0;
};

}  // namespace mbts

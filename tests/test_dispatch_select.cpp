// Property test for select_from_rankings, the kFresh dispatch selection:
// walking the merge of the ranked pending and ranked running sets must pick
// exactly what a full sort of both under (score desc, running first, id
// asc) followed by the gang walk picks — the reference scheduler's
// selection (src/oracle/reference_scheduler.cpp).
#include "core/dispatch_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace mbts {
namespace {

struct Entry {
  double score;
  std::uint64_t id;
  std::size_t width;
  bool running;
};

bool rank_less(const Entry& a, const Entry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

struct Selection {
  std::vector<std::uint64_t> started;
  std::vector<std::uint64_t> preempted;
};

Selection select(std::vector<Entry> pending, std::vector<Entry> running,
                 std::size_t capacity) {
  std::sort(pending.begin(), pending.end(), rank_less);
  std::sort(running.begin(), running.end(), rank_less);
  Selection out;
  select_from_rankings<Entry>(
      pending, running, capacity, [](const Entry& e) { return e.width; },
      [&](const Entry& e) { out.started.push_back(e.id); },
      [&](const Entry& e) { out.preempted.push_back(e.id); });
  return out;
}

// Full sort of both sets, then admit each entry while its width fits.
Selection reference(const std::vector<Entry>& pending,
                    const std::vector<Entry>& running,
                    std::size_t capacity) {
  std::vector<Entry> all = pending;
  all.insert(all.end(), running.begin(), running.end());
  std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.running != b.running) return a.running;
    return a.id < b.id;
  });
  Selection out;
  std::size_t free = capacity;
  for (const Entry& e : all) {
    if (e.width <= free) {
      free -= e.width;
      if (!e.running) out.started.push_back(e.id);
    } else if (e.running) {
      out.preempted.push_back(e.id);
    }
  }
  return out;
}

struct Scenario {
  std::vector<Entry> pending;
  std::vector<Entry> running;
  std::size_t capacity = 0;
};

// Scores come from a handful of values, so pending/pending,
// running/running and pending/running ties are common; some running tasks
// sit at kDoneEpsilon, which the scheduler scores kInf (immovable). Ids are
// shuffled so rank order and id order disagree.
Scenario draw(Xoshiro256& rng, bool gang, bool preemptive) {
  Scenario s;
  s.capacity = 1 + rng.below(8);
  const std::size_t max_width = gang ? 4 : 1;
  std::vector<std::uint64_t> ids(1 + rng.below(40));
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  for (std::size_t i = ids.size(); i > 1; --i)
    std::swap(ids[i - 1], ids[rng.below(i)]);
  std::size_t busy = 0;
  for (const std::uint64_t id : ids) {
    const double score = static_cast<double>(rng.below(5));
    const std::size_t width =
        1 + rng.below(std::min(max_width, s.capacity));
    // Running tasks occupy processors, so their widths fit the capacity.
    if (preemptive && busy + width <= s.capacity && rng.bernoulli(0.4)) {
      busy += width;
      const bool done = rng.bernoulli(0.2);
      s.running.push_back({done ? kInf : score, id, width, true});
    } else {
      s.pending.push_back({score, id, width, false});
    }
  }
  // A non-preemptive dispatch sees only the processors running tasks left.
  if (!preemptive) s.capacity = rng.below(s.capacity + 1);
  return s;
}

void check_matches_reference(bool gang, bool preemptive, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (int round = 0; round < 2000; ++round) {
    const Scenario s = draw(rng, gang, preemptive);
    const Selection got = select(s.pending, s.running, s.capacity);
    const Selection want = reference(s.pending, s.running, s.capacity);
    ASSERT_EQ(got.started, want.started) << "round " << round;
    ASSERT_EQ(got.preempted, want.preempted) << "round " << round;
  }
}

TEST(DispatchSelect, Width1PreemptiveMatchesFullSort) {
  check_matches_reference(/*gang=*/false, /*preemptive=*/true, 1);
}

TEST(DispatchSelect, Width1NonPreemptiveMatchesFullSort) {
  check_matches_reference(/*gang=*/false, /*preemptive=*/false, 2);
}

TEST(DispatchSelect, GangPreemptiveMatchesFullSort) {
  check_matches_reference(/*gang=*/true, /*preemptive=*/true, 3);
}

TEST(DispatchSelect, GangNonPreemptiveMatchesFullSort) {
  check_matches_reference(/*gang=*/true, /*preemptive=*/false, 4);
}

TEST(DispatchSelect, TiesKeepRunningTasksInPlace) {
  // One processor, a running task and a pending one at the same score:
  // the running task stays even though the pending id is smaller.
  const Selection s =
      select({{1.0, 0, 1, false}}, {{1.0, 9, 1, true}}, /*capacity=*/1);
  EXPECT_TRUE(s.started.empty());
  EXPECT_TRUE(s.preempted.empty());
}

TEST(DispatchSelect, StartsInRankOrder) {
  const Selection s = select({{1.0, 4, 1, false},
                              {3.0, 7, 1, false},
                              {3.0, 2, 1, false},
                              {2.0, 1, 1, false}},
                             {}, /*capacity=*/3);
  EXPECT_EQ(s.started, (std::vector<std::uint64_t>{2, 7, 1}));
}

TEST(DispatchSelect, WideTaskIsBackfilledAround) {
  // The top task needs 3 of 2 free processors; the two below it backfill.
  const Selection s = select({{5.0, 0, 3, false},
                              {4.0, 1, 1, false},
                              {3.0, 2, 1, false},
                              {2.0, 3, 1, false}},
                             {}, /*capacity=*/2);
  EXPECT_EQ(s.started, (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace mbts

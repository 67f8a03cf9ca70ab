#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "oracle/reference_math.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mbts {
namespace {

TEST(ListSchedule, SingleProcessorIsSequential) {
  const std::vector<double> proc{0.0};
  const std::vector<PendingItem> items{{1, 10.0}, {2, 5.0}, {3, 2.0}};
  const auto entries = list_schedule(proc, items);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].start, 0.0);
  EXPECT_EQ(entries[0].completion, 10.0);
  EXPECT_EQ(entries[1].start, 10.0);
  EXPECT_EQ(entries[1].completion, 15.0);
  EXPECT_EQ(entries[2].start, 15.0);
  EXPECT_EQ(entries[2].completion, 17.0);
}

TEST(ListSchedule, TwoProcessorsInterleave) {
  const std::vector<double> proc{0.0, 0.0};
  const std::vector<PendingItem> items{{1, 10.0}, {2, 4.0}, {3, 2.0}};
  const auto entries = list_schedule(proc, items);
  // Item 3 goes to the processor freed by item 2 at t=4.
  EXPECT_EQ(entries[0].start, 0.0);
  EXPECT_EQ(entries[1].start, 0.0);
  EXPECT_EQ(entries[2].start, 4.0);
  EXPECT_EQ(entries[2].completion, 6.0);
}

TEST(ListSchedule, BusyProcessorsDelayStarts) {
  // One processor free at 5, one at 12.
  const std::vector<double> proc{12.0, 5.0};
  const std::vector<PendingItem> items{{1, 3.0}, {2, 1.0}};
  const auto entries = list_schedule(proc, items);
  EXPECT_EQ(entries[0].start, 5.0);
  EXPECT_EQ(entries[0].completion, 8.0);
  EXPECT_EQ(entries[1].start, 8.0);  // earliest of {12, 8}
}

TEST(ListSchedule, EmptyPendingGivesNoEntries) {
  const std::vector<double> proc{0.0};
  EXPECT_TRUE(list_schedule(proc, {}).empty());
}

TEST(ListSchedule, PreservesInputOrderInOutput) {
  const std::vector<double> proc{0.0, 0.0};
  const std::vector<PendingItem> items{{42, 1.0}, {7, 2.0}};
  const auto entries = list_schedule(proc, items);
  EXPECT_EQ(entries[0].id, 42u);
  EXPECT_EQ(entries[1].id, 7u);
}

TEST(ListSchedule, NoProcessorsThrows) {
  EXPECT_THROW(list_schedule({}, {}), CheckError);
}

TEST(ListSchedule, MakespanIsWorkConserving) {
  // With identical free times, total completion span must be at least
  // total_work / p and at most total_work (one proc's worth).
  const std::vector<double> proc{0.0, 0.0, 0.0, 0.0};
  std::vector<PendingItem> items;
  double total = 0.0;
  for (TaskId i = 0; i < 32; ++i) {
    const double rpt = 1.0 + static_cast<double>(i % 7);
    items.push_back({i, rpt});
    total += rpt;
  }
  const auto entries = list_schedule(proc, items);
  double makespan = 0.0;
  for (const auto& e : entries) makespan = std::max(makespan, e.completion);
  EXPECT_GE(makespan, total / 4.0);
  EXPECT_LE(makespan, total);
}

TEST(ListSchedule, StartsNeverBeforeProcessorFree) {
  const std::vector<double> proc{3.0, 8.0};
  const std::vector<PendingItem> items{{1, 1.0}, {2, 1.0}, {3, 1.0}};
  for (const auto& e : list_schedule(proc, items))
    EXPECT_GE(e.start, 3.0);
}

TEST(CompletionOf, MatchesFullSchedule) {
  const std::vector<double> proc{2.0, 0.0};
  const std::vector<PendingItem> items{{1, 5.0}, {2, 3.0}, {3, 7.0}, {4, 1.0}};
  const auto entries = list_schedule(proc, items);
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(completion_of(proc, items, i), entries[i].completion) << i;
}

TEST(CompletionOf, IndexOutOfRangeThrows) {
  const std::vector<double> proc{0.0};
  const std::vector<PendingItem> items{{1, 5.0}};
  EXPECT_THROW(completion_of(proc, items, 1), CheckError);
}

TEST(CompletionOf, WidthOverCapacityThrows) {
  const std::vector<double> proc{0.0, 0.0};
  const std::vector<PendingItem> items{{1, 5.0, 1}, {2, 5.0, 3}};
  EXPECT_EQ(completion_of(proc, items, 0), 5.0);
  EXPECT_THROW(completion_of(proc, items, 1), CheckError);
  EXPECT_THROW(list_schedule(proc, items), CheckError);
}

TEST(CompletionOf, MatchesListScheduleAndOracleOnGangs) {
  // Random free times with ties and idle processors, gangs of every width,
  // every index: the sorted-array projection must agree exactly with the
  // full list schedule and with the oracle's erase-and-insert reference.
  Xoshiro256 rng(11);
  for (const std::size_t p : {1u, 2u, 6u, 24u}) {
    for (int rep = 0; rep < 40; ++rep) {
      const double now = std::floor(rng.uniform(0.0, 50.0));
      std::vector<double> proc(p);
      for (double& f : proc) {
        const std::uint64_t kind = rng.below(3);
        if (kind == 0) f = now;  // idle
        else if (kind == 1) f = now + std::floor(rng.uniform(1.0, 8.0));  // ties
        else f = now + rng.uniform(0.0, 30.0);
      }
      const std::size_t n = 1 + rng.below(30);
      std::vector<PendingItem> items(n);
      std::vector<Task> tasks(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double rpt = rng.bernoulli(0.3) ? std::floor(rng.uniform(1.0, 5.0))
                                              : rng.uniform(0.5, 20.0);
        const std::size_t width = 1 + rng.below(p);
        items[i] = {static_cast<TaskId>(i + 1), rpt, width};
        tasks[i].id = items[i].id;
        tasks[i].runtime = rpt;
        tasks[i].width = width;
      }
      const std::vector<ScheduleEntry> entries = list_schedule(proc, items);
      std::vector<double> scratch;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string label = "p=" + std::to_string(p) + " rep " +
                                  std::to_string(rep) + " index " +
                                  std::to_string(i);
        std::vector<oracle::RefPending> ahead;
        for (std::size_t j = 0; j < i; ++j)
          ahead.push_back({&tasks[j], items[j].rpt, 0.0});
        const double expected = entries[i].completion;
        EXPECT_EQ(completion_of(proc, items, i), expected) << label;
        EXPECT_EQ(completion_of(proc, items, i, scratch), expected) << label;
        EXPECT_EQ(oracle::naive_completion(proc, ahead, tasks[i], i),
                  expected)
            << label;
        EXPECT_EQ(entries[i].start + items[i].rpt, expected) << label;
      }
    }
  }
}

}  // namespace
}  // namespace mbts

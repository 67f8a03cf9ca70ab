// adaptive_sort (core/rank_sort.hpp): the scheduler's warm-start rank
// re-sort. Every case is cross-checked against std::sort on a copy — the
// warm start is a cost model, never a correctness assumption. The
// rotate-by-16 case pins the latent budget-trip path: few adjacent
// inversions but O(n) displacement per insertion, which the original
// in-scheduler version mis-costed before the move budget existed.
#include "core/rank_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mbts {
namespace {

/// The scheduler's rank comparator shape: (score desc, id asc).
struct Ranked {
  double score = 0.0;
  std::uint64_t id = 0;
  friend bool operator==(const Ranked&, const Ranked&) = default;
};

bool rank_less(const Ranked& a, const Ranked& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

void expect_matches_std_sort(std::vector<Ranked> v, const std::string& label) {
  std::vector<Ranked> expected = v;
  std::sort(expected.begin(), expected.end(), rank_less);
  adaptive_sort(v, rank_less);
  ASSERT_EQ(v.size(), expected.size()) << label;
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_EQ(v[i], expected[i]) << label << " at " << i;
}

TEST(AdaptiveSort, TrivialInputs) {
  expect_matches_std_sort({}, "empty");
  expect_matches_std_sort({{5.0, 1}}, "single");
  expect_matches_std_sort({{1.0, 3}, {1.0, 1}, {1.0, 2}}, "all equal scores");
}

TEST(AdaptiveSort, AlreadySortedIsUntouched) {
  std::vector<Ranked> v;
  for (std::uint64_t i = 0; i < 100; ++i)
    v.push_back({100.0 - static_cast<double>(i), i});
  expect_matches_std_sort(v, "sorted");
}

TEST(AdaptiveSort, FewDisplacedElements) {
  // The intended warm-start case: sorted order with a handful of elements
  // nudged out of place (score drift + one new arrival).
  Xoshiro256 rng(5);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<Ranked> v;
    for (std::uint64_t i = 0; i < 200; ++i)
      v.push_back({200.0 - static_cast<double>(i), i});
    for (int k = 0; k < 5; ++k) {
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform(0.0, 200.0)) % 200;
      v[i].score += rng.uniform(-3.0, 3.0);
    }
    // One "arrival" appended out of order.
    v.push_back({rng.uniform(0.0, 200.0), 777});
    expect_matches_std_sort(v, "displaced rep " + std::to_string(rep));
  }
}

TEST(AdaptiveSort, DriftOnALargeBacklog) {
  // A dispatch at a new instant on a deep queue: hundreds of neighbours
  // trade places, far more than 16 adjacent inversions but few relative to
  // n, which the insertion pass takes.
  Xoshiro256 rng(9);
  std::vector<Ranked> v;
  for (std::uint64_t i = 0; i < 10000; ++i)
    v.push_back({10000.0 - static_cast<double>(i), i});
  for (int k = 0; k < 400; ++k) {
    const std::size_t i = rng.below(v.size());
    v[i].score += rng.uniform(-2.5, 2.5);
  }
  expect_matches_std_sort(v, "drift n=10000");
}

TEST(AdaptiveSort, RandomShuffles) {
  Xoshiro256 rng(6);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 300.0));
    std::vector<Ranked> v;
    for (std::uint64_t i = 0; i < n; ++i) {
      // Coarse scores: plenty of ties, so the id tie-break matters.
      v.push_back({std::floor(rng.uniform(0.0, 20.0)), i});
    }
    for (std::size_t i = n; i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(
                              rng.uniform(0.0, static_cast<double>(i)))]);
    expect_matches_std_sort(v, "shuffle rep " + std::to_string(rep));
  }
}

TEST(AdaptiveSort, RotationTripsMoveBudgetButStaysSorted) {
  // A sorted array rotated left by 16 has exactly 16... no: exactly ONE
  // adjacent inversion per rotated element boundary — few enough to enter
  // the insertion pass — yet each displaced element must travel O(n) to
  // its seat. The move budget trips mid-pass and the fallback std::sort
  // must still produce the fully sorted permutation (the re-seat bug this
  // test pins: losing the in-flight element corrupts the queue).
  for (const std::size_t n : {64u, 1024u, 4096u}) {
    std::vector<Ranked> v;
    for (std::uint64_t i = 0; i < n; ++i)
      v.push_back({static_cast<double>(n) - static_cast<double>(i),
                   i});
    std::rotate(v.begin(), v.begin() + 16, v.end());
    expect_matches_std_sort(v, "rotate-16 n=" + std::to_string(n));
  }
}

TEST(AdaptiveSort, ChurnLoopStaysConsistent) {
  // Simulates the scheduler's life: repeatedly drift scores, erase and
  // insert a few entries, re-sort, and verify against std::sort each time.
  Xoshiro256 rng(7);
  std::vector<Ranked> v;
  std::uint64_t next_id = 0;
  for (std::uint64_t i = 0; i < 64; ++i)
    v.push_back({rng.uniform(0.0, 100.0), next_id++});
  std::sort(v.begin(), v.end(), rank_less);
  for (int round = 0; round < 300; ++round) {
    for (auto& r : v)
      if (rng.bernoulli(0.1)) r.score += rng.uniform(-1.0, 1.0);
    if (!v.empty() && rng.bernoulli(0.4)) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(v.size())));
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(i % v.size()));
    }
    if (rng.bernoulli(0.6)) v.push_back({rng.uniform(0.0, 100.0), next_id++});

    std::vector<Ranked> expected = v;
    std::sort(expected.begin(), expected.end(), rank_less);
    adaptive_sort(v, rank_less);
    ASSERT_EQ(v, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace mbts

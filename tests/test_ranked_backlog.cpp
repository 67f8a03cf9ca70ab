// RankedBacklog (core/ranked_backlog.hpp): the scheduler's persistent
// pending ranking. Seeded random sequences of pushes, erases (ranked
// entries, the top entry, unranked arrivals) and rankings (same scores, a
// new instant's drift, forced ties, order-breaking drift) drive it against
// a model of the owner's slot-indexed pending array; after every ranking
// the entries must equal std::sort under (score desc, id asc).
#include "core/ranked_backlog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mbts {
namespace {

/// The owner's side: ids and scores indexed by slot, erased by
/// swap-with-back exactly as SiteScheduler::erase_pending does.
struct Model {
  std::vector<std::uint64_t> ids;
  std::vector<double> scores;
  std::uint64_t next_id = 1;
  RankedBacklog backlog;

  void push(double score) {
    const auto slot = static_cast<std::uint32_t>(ids.size());
    // Ids arrive out of order so the tie-break is not arrival order.
    ids.push_back(next_id++ * 0x9e3779b97f4a7c15ULL);
    scores.push_back(score);
    backlog.push(slot);
  }

  void erase(std::uint32_t slot) {
    ids[slot] = ids.back();
    ids.pop_back();
    scores[slot] = scores.back();
    scores.pop_back();
    backlog.erase(slot);
  }

  void rank() {
    backlog.rank(scores, [this](std::uint32_t slot) { return ids[slot]; });
  }
};

void expect_ranked(const Model& m, const std::string& label) {
  const std::span<const RankEntry> got = m.backlog.entries();
  ASSERT_EQ(got.size(), m.ids.size()) << label;
  EXPECT_EQ(m.backlog.sorted_count(), got.size()) << label;
  std::vector<std::uint32_t> expected(m.ids.size());
  for (std::uint32_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::sort(expected.begin(), expected.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (m.scores[a] != m.scores[b]) return m.scores[a] > m.scores[b];
              return m.ids[a] < m.ids[b];
            });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i].slot, expected[i]) << label << " at " << i;
    ASSERT_EQ(got[i].score, m.scores[got[i].slot]) << label << " at " << i;
  }
}

TEST(RankedBacklog, EmptyAndSingle) {
  Model m;
  m.rank();
  expect_ranked(m, "empty");
  m.push(3.0);
  EXPECT_EQ(m.backlog.sorted_count(), 0u);
  m.rank();
  expect_ranked(m, "single");
  m.erase(0);
  EXPECT_EQ(m.backlog.sorted_count(), 0u);
  m.rank();
  expect_ranked(m, "emptied");
}

TEST(RankedBacklog, SortedCountTracksErases) {
  Model m;
  for (int i = 0; i < 8; ++i) m.push(static_cast<double>(i));
  m.rank();
  ASSERT_EQ(m.backlog.sorted_count(), 8u);
  m.push(100.0);
  m.push(-1.0);
  EXPECT_EQ(m.backlog.sorted_count(), 8u);
  // An unranked arrival leaves the sorted prefix alone.
  m.erase(m.backlog.entries()[9].slot);
  EXPECT_EQ(m.backlog.sorted_count(), 8u);
  // The top entry and a middle one each shorten it.
  m.erase(m.backlog.entries()[0].slot);
  EXPECT_EQ(m.backlog.sorted_count(), 7u);
  m.erase(m.backlog.entries()[3].slot);
  EXPECT_EQ(m.backlog.sorted_count(), 6u);
  m.rank();
  expect_ranked(m, "after erases");
}

TEST(RankedBacklog, EqualScoresBreakTiesById) {
  Model m;
  for (int i = 0; i < 40; ++i) m.push(1.0);
  m.rank();
  expect_ranked(m, "all tied");
  // Tied arrivals seated into a sorted, all-tied prefix.
  for (int i = 0; i < 5; ++i) m.push(1.0);
  m.rank();
  expect_ranked(m, "tied arrivals");
}

TEST(RankedBacklog, ManyArrivalsFallBackToASort) {
  Model m;
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) m.push(rng.uniform(0.0, 10.0));
  m.rank();
  expect_ranked(m, "first ranking");
  for (std::size_t i = 0; i < RankedBacklog::kMaxSeats + 5; ++i)
    m.push(rng.uniform(0.0, 10.0));
  m.rank();
  expect_ranked(m, "bulk arrivals");
}

TEST(RankedBacklog, RandomSequencesMatchStdSort) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256 rng(seed);
    Model m;
    for (int i = 0; i < 50; ++i) m.push(rng.uniform(0.0, 100.0));
    m.rank();
    expect_ranked(m, "seed " + std::to_string(seed) + " initial");
    for (int step = 0; step < 400; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::uint64_t op = rng.below(10);
      if (op < 3) {
        // Arrivals, sometimes tied with a ranked entry's score.
        const std::uint64_t k = 1 + rng.below(3);
        for (std::uint64_t j = 0; j < k; ++j) {
          if (!m.scores.empty() && rng.bernoulli(0.3))
            m.push(m.scores[rng.below(m.scores.size())]);
          else
            m.push(rng.uniform(0.0, 100.0));
        }
        continue;
      }
      if (op < 6 && !m.ids.empty()) {
        // Erase: a ranked entry, the top entry, or an unranked arrival.
        const std::span<const RankEntry> e = m.backlog.entries();
        const std::size_t ranked = m.backlog.sorted_count();
        std::size_t at = rng.below(e.size());
        const std::uint64_t kind = rng.below(3);
        if (kind == 0 && ranked > 0) at = rng.below(ranked);
        if (kind == 1 && ranked > 0) at = 0;
        if (kind == 2 && ranked < e.size())
          at = ranked + rng.below(e.size() - ranked);
        const std::size_t before = m.backlog.sorted_count();
        m.erase(e[at].slot);
        EXPECT_EQ(m.backlog.sorted_count(), at < before ? before - 1 : before)
            << label;
        continue;
      }
      // A ranking: at the same instant, at a new one, with forced ties, or
      // after drift large enough to break the order.
      const std::uint64_t kind = rng.below(4);
      if (kind == 1) {
        for (double& s : m.scores) s *= 0.999;  // order-preserving step
      } else if (kind == 2) {
        for (double& s : m.scores) s = std::floor(s / 10.0);
      } else if (kind == 3) {
        for (double& s : m.scores)
          if (rng.bernoulli(0.2)) s += rng.uniform(-20.0, 20.0);
      }
      m.rank();
      expect_ranked(m, label);
    }
  }
}

}  // namespace
}  // namespace mbts

// Warm-start adaptive sort: the fallback of RankedBacklog::rank
// (core/ranked_backlog.hpp) when score drift breaks the persistent ranking
// or too many arrivals wait to be seated.
//
// The input is then *almost* sorted: scores drifted slightly and a
// handful of arrivals sit out of place. Correctness never rests on the
// warm start — the result is always fully sorted by `less` (DCHECKed by
// the caller and cross-checked against std::sort in
// tests/test_rank_sort.cpp) — only the cost model does.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace mbts {

template <typename T, typename Less>
void adaptive_sort(std::vector<T>& v, Less less) {
  std::size_t inversions = 0;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (less(v[i], v[i - 1])) ++inversions;
  if (inversions == 0) return;
  // Adjacent inversions that are few relative to n mean drift — scores
  // moved a little since the last sort, plus a handful of arrivals at the
  // back: insertion sort finishes in O(n + displacement). On a large
  // backlog even small drift makes dozens of them, so the cut-off scales
  // with n. Anything messier (the first sort of a fresh queue) falls back
  // to std::sort, also if the move budget trips mid-pass — few adjacent
  // inversions do not bound total displacement (e.g. a sorted array
  // rotated by a few elements has a handful of adjacent inversions but
  // O(n) moves per insertion).
  if (inversions <= 16 + v.size() / 8) {
    std::size_t moves = 0;
    const std::size_t budget = 4 * v.size() + 256;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (!less(v[i], v[i - 1])) continue;
      const T x = v[i];
      std::size_t j = i;
      do {
        v[j] = v[j - 1];
        --j;
        if (++moves > budget) {
          // Re-seat the in-flight element so v is a permutation again
          // before handing it to std::sort.
          v[j] = x;
          std::sort(v.begin(), v.end(), less);
          return;
        }
      } while (j > 0 && less(x, v[j - 1]));
      v[j] = x;
    }
    return;
  }
  std::sort(v.begin(), v.end(), less);
}

}  // namespace mbts

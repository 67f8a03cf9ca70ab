#include "core/policies/first_price.hpp"

#include <algorithm>

#include "core/metrics.hpp"
#include "core/score_kernels.hpp"

namespace mbts {

double FirstPricePolicy::priority(const Task& task, double rpt,
                                  const MixView& mix) const {
  return unit_gain(task, mix.now, rpt, basis_);
}

void FirstPricePolicy::kernel_make_cache(const ScoreColumnsView& cols,
                                         const MixView& mix, double* a,
                                         double* b, double* c) const {
  (void)b;
  (void)c;
  kernels::unit_gain_scores(cols, mix.now,
                            basis_ == YieldBasis::kAtCompletion, a);
}

void FirstPricePolicy::kernel_priority(const ScoreColumnsView& cols,
                                       const double* a, const double* b,
                                       const double* c, const MixView& mix,
                                       double* out) const {
  (void)b;
  (void)c;
  (void)mix;
  std::copy(a, a + cols.n, out);
}

}  // namespace mbts

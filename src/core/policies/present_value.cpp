#include "core/policies/present_value.hpp"

#include <algorithm>

#include "core/metrics.hpp"
#include "core/score_kernels.hpp"
#include "util/check.hpp"

namespace mbts {

double PresentValuePolicy::priority(const Task& task, double rpt,
                                    const MixView& mix) const {
  MBTS_DCHECK(rpt > 0.0);
  const double yield = yield_for_ranking(task, mix.now, rpt, basis_);
  return present_value(yield, mix.discount_rate, rpt) /
         (rpt * static_cast<double>(task.width));
}

void PresentValuePolicy::kernel_make_cache(const ScoreColumnsView& cols,
                                           const MixView& mix, double* a,
                                           double* b, double* c) const {
  (void)b;
  (void)c;
  kernels::present_value_scores(cols, mix.now, mix.discount_rate,
                                basis_ == YieldBasis::kAtCompletion, a);
}

void PresentValuePolicy::kernel_priority(const ScoreColumnsView& cols,
                                         const double* a, const double* b,
                                         const double* c, const MixView& mix,
                                         double* out) const {
  (void)b;
  (void)c;
  (void)mix;
  std::copy(a, a + cols.n, out);
}

}  // namespace mbts

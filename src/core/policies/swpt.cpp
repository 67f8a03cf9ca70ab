#include "core/policies/swpt.hpp"

#include <algorithm>

#include "core/score_kernels.hpp"
#include "util/check.hpp"

namespace mbts {

double SwptPolicy::priority(const Task& task, double rpt,
                            const MixView& mix) const {
  MBTS_DCHECK(rpt > 0.0);
  // Instantaneous rate: equals the static weight for linear value functions
  // and tracks the active segment of variable-rate profiles.
  const double weight =
      task.value.decay_at_delay(task.delay_at_completion(mix.now));
  return weight / rpt;
}

void SwptPolicy::kernel_make_cache(const ScoreColumnsView& cols,
                                   const MixView& mix, double* a, double* b,
                                   double* c) const {
  (void)b;
  (void)c;
  kernels::swpt_scores(cols, mix.now, a);
}

void SwptPolicy::kernel_priority(const ScoreColumnsView& cols, const double* a,
                                 const double* b, const double* c,
                                 const MixView& mix, double* out) const {
  (void)b;
  (void)c;
  (void)mix;
  std::copy(a, a + cols.n, out);
}

}  // namespace mbts

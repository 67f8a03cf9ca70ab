#include "core/policies/first_reward.hpp"

#include <algorithm>
#include <sstream>

#include "core/metrics.hpp"
#include "core/score_kernels.hpp"
#include "util/check.hpp"

namespace mbts {

FirstRewardPolicy::FirstRewardPolicy(double alpha, YieldBasis basis)
    : alpha_(alpha), basis_(basis) {
  MBTS_CHECK_MSG(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0, 1]");
}

std::string FirstRewardPolicy::name() const {
  std::ostringstream os;
  os << "FirstReward(a=" << alpha_ << ')';
  return os.str();
}

double FirstRewardPolicy::priority(const Task& task, double rpt,
                                   const MixView& mix) const {
  return first_reward_index(task, rpt, mix, alpha_, basis_);
}

ScoreCache FirstRewardPolicy::make_cache(const Task& task, double rpt,
                                         const MixView& mix) const {
  MBTS_DCHECK(rpt > 0.0);
  const double yield = yield_for_ranking(task, mix.now, rpt, basis_);
  const double pv = present_value(yield, mix.discount_rate, rpt);
  ScoreCache cache;
  cache.a = alpha_ * pv;
  cache.b = task.value.decay_at_delay(task.delay_at_completion(mix.now));
  cache.c = rpt * static_cast<double>(task.width);
  return cache;
}

double FirstRewardPolicy::priority_from_cache(const ScoreCache& cache,
                                              const Task& task, double rpt,
                                              const MixView& mix) const {
  double cost;
  if (!mix.any_bounded) {
    // Eq. 5: cache.b is exactly the own-decay term opportunity_cost would
    // recompute; the subtraction/max/multiply sequence is unchanged.
    const double others = mix.total_live_decay - cache.b;
    cost = std::max(others, 0.0) * rpt;
  } else {
    cost = opportunity_cost(task, rpt, mix);
  }
  return (cache.a - (1.0 - alpha_) * cost) / cache.c;
}

void FirstRewardPolicy::kernel_make_cache(const ScoreColumnsView& cols,
                                          const MixView& mix, double* a,
                                          double* b, double* c) const {
  kernels::first_reward_cache(cols, mix.now, mix.discount_rate, alpha_,
                              basis_ == YieldBasis::kAtCompletion, a, b, c);
}

void FirstRewardPolicy::kernel_priority(const ScoreColumnsView& cols,
                                        const double* a, const double* b,
                                        const double* c, const MixView& mix,
                                        double* out) const {
  if (mix.any_bounded) {
    // Eq. 4 opportunity cost walks the competitor list per task — no flat
    // columnar form, so fall back to the scalar combine per slot.
    for (std::size_t i = 0; i < cols.n; ++i)
      out[i] = priority_from_cache({a[i], b[i], c[i]}, *cols.tasks[i],
                                   cols.rpt[i], mix);
    return;
  }
  kernels::first_reward_combine(cols, a, b, c, mix.total_live_decay, alpha_,
                                out);
}

}  // namespace mbts

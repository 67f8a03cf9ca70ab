// FirstReward (§5.3, Eq. 6): the paper's contribution. Balances discounted
// expected gains (weight alpha) against opportunity cost (weight 1 - alpha):
//
//   reward_i = (alpha * PV_i - (1 - alpha) * cost_i) / RPT_i
//
// alpha = 1 with discount 0 reduces to FirstPrice; alpha = 0 reduces to the
// cost-only variant the paper relates to SWPT.
#pragma once

#include "core/policy.hpp"

namespace mbts {

class FirstRewardPolicy final : public SchedulingPolicy {
 public:
  explicit FirstRewardPolicy(double alpha,
                             YieldBasis basis = YieldBasis::kAtCompletion);

  std::string name() const override;
  double priority(const Task& task, double rpt,
                  const MixView& mix) const override;

  /// Eq. 6 decomposes as (alpha*PV - (1-alpha)*cost) / (RPT*width) where
  /// only `cost` reads the mix. The cache holds a = alpha*PV, b = the
  /// task's own decay rate (subtracted from the aggregate on the Eq. 5
  /// path), c = RPT*width; priority_from_cache redoes exactly the
  /// remaining float ops, so the result is bit-identical.
  bool cacheable() const override { return true; }
  ScoreCache make_cache(const Task& task, double rpt,
                        const MixView& mix) const override;
  double priority_from_cache(const ScoreCache& cache, const Task& task,
                             double rpt, const MixView& mix) const override;

  /// SoA kernels. A bounded mix drops the combine to the scalar Eq. 4
  /// loop over priority_from_cache.
  bool kernelizable() const override { return true; }
  void kernel_make_cache(const ScoreColumnsView& cols, const MixView& mix,
                         double* a, double* b, double* c) const override;
  void kernel_priority(const ScoreColumnsView& cols, const double* a,
                       const double* b, const double* c, const MixView& mix,
                       double* out) const override;

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  YieldBasis basis_;
};

}  // namespace mbts

// Millennium's FirstPrice heuristic (§4): greedy by unit gain,
// yield_i / RPT_i — the expected yield per unit of resource per unit time if
// the task is started now. The paper's primary baseline for Figs. 3–7.
#pragma once

#include "core/policy.hpp"

namespace mbts {

class FirstPricePolicy final : public SchedulingPolicy {
 public:
  explicit FirstPricePolicy(YieldBasis basis = YieldBasis::kAtCompletion)
      : basis_(basis) {}
  std::string name() const override { return "FirstPrice"; }
  double priority(const Task& task, double rpt,
                  const MixView& mix) const override;

  // Unit gain reads nothing mix-varying, so the cached score is the score.
  bool cacheable() const override { return true; }
  ScoreCache make_cache(const Task& task, double rpt,
                        const MixView& mix) const override {
    return {priority(task, rpt, mix), 0.0, 0.0};
  }
  double priority_from_cache(const ScoreCache& cache, const Task&, double,
                             const MixView&) const override {
    return cache.a;
  }

  // SoA kernels: the cached score lives in column a; the priority pass is
  // a straight copy.
  bool kernelizable() const override { return true; }
  void kernel_make_cache(const ScoreColumnsView& cols, const MixView& mix,
                         double* a, double* b, double* c) const override;
  void kernel_priority(const ScoreColumnsView& cols, const double* a,
                       const double* b, const double* c, const MixView& mix,
                       double* out) const override;

 private:
  YieldBasis basis_;
};

}  // namespace mbts

// The Present Value heuristic (§5.1): FirstPrice with future gains
// discounted at a configurable rate (Eq. 3), selecting by PV_i / RPT_i.
// At discount rate 0 it is exactly FirstPrice; higher rates make the
// scheduler more risk-averse, preferring tasks that pay off sooner.
#pragma once

#include "core/policy.hpp"

namespace mbts {

class PresentValuePolicy final : public SchedulingPolicy {
 public:
  explicit PresentValuePolicy(YieldBasis basis = YieldBasis::kAtCompletion)
      : basis_(basis) {}
  std::string name() const override { return "PV"; }
  double priority(const Task& task, double rpt,
                  const MixView& mix) const override;

  // PV reads only mix.now/discount_rate, so the cached score is the score.
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

// Shortest Weighted Processing Time (§4): the classical TWCT heuristic.
//
// Orders by decay / RPT — optimal for Total Weighted Completion Time on one
// processor when all tasks are released together. Value-blind: it minimizes
// loss, never weighing the gain of completing a task.
#pragma once

#include "core/policy.hpp"

namespace mbts {

class SwptPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "SWPT"; }
  double priority(const Task& task, double rpt,
                  const MixView& mix) const override;

  // decay/RPT reads only mix.now, so the cached score is the score.
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
};

}  // namespace mbts

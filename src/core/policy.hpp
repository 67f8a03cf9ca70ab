// Scheduling-policy interface (paper §4–§5).
//
// A policy is a pure priority index: given a task, its remaining processing
// time, and a snapshot of the competing mix, it returns a score; the
// scheduler runs the highest-scored tasks. Statelessness keeps FCFS, SRPT,
// SWPT, FirstPrice, PV, and FirstReward interchangeable and independently
// testable, and makes one dispatch O(n) scoring + O(n log k) selection.
#pragma once

#include <memory>
#include <string>

#include "core/metrics.hpp"
#include "core/mix.hpp"
#include "core/score_columns.hpp"
#include "core/task.hpp"

namespace mbts {

/// Per-task scoring cache for policies whose index decomposes into terms
/// depending only on (task, rpt, now) plus a cheap mix-dependent
/// combination. The three doubles are opaque to the scheduler; their
/// meaning is policy-specific.
struct ScoreCache {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual std::string name() const = 0;

  /// Priority of running `task` next; higher runs earlier. `rpt` is the
  /// task's remaining processing time (> 0).
  virtual double priority(const Task& task, double rpt,
                          const MixView& mix) const = 0;

  /// True when make_cache/priority_from_cache are implemented. Contract:
  ///
  ///   priority_from_cache(make_cache(task, rpt, mix), task, rpt, mix)
  ///
  /// must be BIT-IDENTICAL to priority(task, rpt, mix) for every mix whose
  /// now/discount_rate match the one make_cache saw. The scheduler exploits
  /// this to amortize the (task, rpt, now)-only subexpressions across the
  /// many rescores that happen at one instant (quote bursts, dispatch);
  /// debug builds cross-check the two paths on every score.
  virtual bool cacheable() const { return false; }

  /// Precomputes the (task, rpt, now)-only terms. Implementations may read
  /// only mix.now and mix.discount_rate — never the mix-varying fields
  /// (aggregate decay, competitors), which change between make_cache and
  /// priority_from_cache.
  virtual ScoreCache make_cache(const Task& task, double rpt,
                                const MixView& mix) const {
    (void)task;
    (void)rpt;
    (void)mix;
    return {};
  }

  /// Combines a cache from make_cache (same task, rpt, and instant) with
  /// the current mix. Default falls back to the uncached computation.
  virtual double priority_from_cache(const ScoreCache& cache,
                                     const Task& task, double rpt,
                                     const MixView& mix) const {
    (void)cache;
    return priority(task, rpt, mix);
  }

  /// True when the SoA kernel pair below is implemented. Same contract as
  /// cacheable(), lifted to columns: kernel_make_cache must fill (a, b, c)
  /// bit-identical to make_cache and kernel_priority must be bit-identical
  /// to priority_from_cache — for every slot whose value function is
  /// single-segment (cols.linear). The scheduler overwrites non-linear
  /// slots with scalar make_cache results before calling kernel_priority,
  /// so only the cache pass may price them loosely; debug builds
  /// cross-check the kernel scores against priority().
  virtual bool kernelizable() const { return false; }

  /// Columnwise make_cache: fills the cache columns for all cols.n slots.
  /// May read only mix.now and mix.discount_rate, like make_cache.
  virtual void kernel_make_cache(const ScoreColumnsView& cols,
                                 const MixView& mix, double* a, double* b,
                                 double* c) const {
    for (std::size_t i = 0; i < cols.n; ++i) {
      const ScoreCache cache = make_cache(*cols.tasks[i], cols.rpt[i], mix);
      a[i] = cache.a;
      b[i] = cache.b;
      c[i] = cache.c;
    }
  }

  /// Columnwise priority_from_cache: combines the cache columns with the
  /// current mix into out[0..cols.n).
  virtual void kernel_priority(const ScoreColumnsView& cols, const double* a,
                               const double* b, const double* c,
                               const MixView& mix, double* out) const {
    for (std::size_t i = 0; i < cols.n; ++i)
      out[i] = priority_from_cache({a[i], b[i], c[i]}, *cols.tasks[i],
                                   cols.rpt[i], mix);
  }
};

/// Declarative policy selection used by experiment configs and CLIs.
struct PolicySpec {
  enum class Kind {
    kFcfs,
    kSrpt,
    kSwpt,
    kFirstPrice,
    kPresentValue,
    kFirstReward,
    kRandom,
  };

  Kind kind = Kind::kFirstPrice;
  /// FirstReward's risk/reward weight (Eq. 6); ignored by other policies.
  double alpha = 0.5;
  /// Seed for kRandom; ignored by other policies.
  std::uint64_t seed = 1;
  /// Where the value-aware policies evaluate yield for ranking (ablation;
  /// the paper's Eq. 2 formulation is kAtCompletion).
  YieldBasis yield_basis = YieldBasis::kAtCompletion;

  static PolicySpec fcfs() { return {.kind = Kind::kFcfs}; }
  static PolicySpec srpt() { return {.kind = Kind::kSrpt}; }
  static PolicySpec swpt() { return {.kind = Kind::kSwpt}; }
  static PolicySpec first_price() { return {.kind = Kind::kFirstPrice}; }
  static PolicySpec present_value() { return {.kind = Kind::kPresentValue}; }
  static PolicySpec first_reward(double alpha) {
    return {.kind = Kind::kFirstReward, .alpha = alpha};
  }
  static PolicySpec random(std::uint64_t seed) {
    return {.kind = Kind::kRandom, .seed = seed};
  }

  PolicySpec with_basis(YieldBasis basis) const {
    PolicySpec copy = *this;
    copy.yield_basis = basis;
    return copy;
  }

  std::string to_string() const;
};

/// Instantiates the policy named by the spec.
std::unique_ptr<SchedulingPolicy> make_policy(const PolicySpec& spec);

/// Parses "fcfs" | "srpt" | "swpt" | "firstprice" | "pv" |
/// "firstreward:<alpha>" | "random". Throws CheckError on unknown names.
PolicySpec parse_policy_spec(const std::string& text);

}  // namespace mbts

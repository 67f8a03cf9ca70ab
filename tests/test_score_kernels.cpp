// SoA batch-scoring kernel properties (see src/core/score_kernels.hpp):
//
//  - Bit-identity: for every kernelizable policy, the columnwise
//    kernel_make_cache / kernel_priority pair reproduces the scalar
//    make_cache / priority_from_cache / priority chain bit-for-bit over
//    randomized populations salted with the nasty inputs (denormal and
//    zero decay, huge decay, negative slack, infinite penalty bounds).
//  - Dispatch equivalence: the runtime-dispatched entry points (AVX2 when
//    the host has it) agree bitwise with the portable reference loops.
//  - ScoreColumns bookkeeping: push / swap_erase mirror a naive queue
//    model slot-for-slot under random churn.
//  - Whole-run identity: a full simulation with kernels on equals the
//    scalar path (ScoreKernelMode::kOff) on every RunStats field,
//    including piecewise value functions (the scalar-fixup lane).
#include "core/score_kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/policies/first_price.hpp"
#include "core/policies/first_reward.hpp"
#include "core/policies/present_value.hpp"
#include "core/policies/swpt.hpp"
#include "core/policy.hpp"
#include "core/score_columns.hpp"
#include "experiments/runner.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace mbts {
namespace {

// --- population ---------------------------------------------------------

/// Tasks live in a deque so pointers stored in ScoreColumns stay stable.
struct Population {
  std::deque<Task> tasks;
  std::vector<double> rpts;
  ScoreColumns columns;

  void add(Task task, double rpt) {
    tasks.push_back(task);
    rpts.push_back(rpt);
    columns.push(tasks.back(), rpt);
  }
};

Task make_task(TaskId id, double arrival, double runtime, double value,
               double decay, double bound = kInf) {
  Task t;
  t.id = id;
  t.arrival = arrival;
  t.runtime = runtime;
  t.value = ValueFunction(value, decay, bound);
  return t;
}

/// Random single-segment population, salted with the adversarial inputs
/// the kernels must not mangle: denormal / zero / huge decay rates,
/// negative slack (now far past the anchor), unbounded (-inf floor) and
/// zero-bound functions, wide tasks, sub-unit rpt.
Population edge_population(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  Population pop;
  for (std::size_t i = 0; i < n; ++i) {
    const double arrival = rng.uniform(0.0, 50.0);
    const double runtime = rng.uniform(0.5, 30.0);
    double decay = rng.uniform(0.001, 2.0);
    double value = rng.uniform(1.0, 100.0);
    double bound = kInf;
    switch (i % 8) {
      case 0: bound = 0.0; break;                    // floors at zero
      case 1: bound = value * rng.uniform(0.5, 2.0); break;
      case 2: decay = 0.0; break;                    // never decays
      case 3: decay = 1e4; break;                    // expires ~instantly
      case 4:
        // Denormal decay: the yield line is numerically flat but every
        // intermediate must stay a number.
        decay = 5e-324;
        break;
      default: break;
    }
    Task t = make_task(static_cast<TaskId>(i + 1), arrival, runtime, value,
                       decay, bound);
    if (i % 5 == 0) t.width = 1 + i % 7;
    // Declared runtime below the true one: negative slack once running.
    if (i % 6 == 0) t.declared_runtime = runtime * 0.5;
    const double rpt = (i % 4 == 0) ? rng.uniform(0.01, 0.5)
                                    : rng.uniform(0.5, runtime);
    pop.add(t, rpt);
  }
  return pop;
}

/// Mix snapshot at `now`. The kernels may read now, discount_rate,
/// total_live_decay, and any_bounded; competitors stay empty (the
/// bounded-mix opportunity cost is a scalar lane by design).
MixView mix_at(double now, double discount = 0.01,
               double total_live_decay = 7.25, bool any_bounded = false) {
  MixView mix;
  mix.now = now;
  mix.discount_rate = discount;
  mix.total_live_decay = total_live_decay;
  mix.any_bounded = any_bounded;
  return mix;
}

// --- bit-level comparison helpers ---------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs the policy's kernel pair (make_cache + priority) over the columns.
std::vector<double> kernel_scores(const SchedulingPolicy& policy,
                                  Population& pop, const MixView& mix) {
  ScoreColumns& cols = pop.columns;
  const ScoreColumnsView view = cols.view();
  policy.kernel_make_cache(view, mix, cols.cache_a(), cols.cache_b(),
                           cols.cache_c());
  std::vector<double> out(view.n);
  policy.kernel_priority(view, cols.cache_a(), cols.cache_b(), cols.cache_c(),
                         mix, out.data());
  return out;
}

/// Scalar reference: make_cache -> priority_from_cache per task, asserted
/// equal to the direct priority() (the cacheable() contract) on the way.
std::vector<double> scalar_scores(const SchedulingPolicy& policy,
                                  const Population& pop, const MixView& mix) {
  std::vector<double> out;
  for (std::size_t i = 0; i < pop.tasks.size(); ++i) {
    const Task& task = pop.tasks[i];
    const double rpt = pop.rpts[i];
    const ScoreCache cache = policy.make_cache(task, rpt, mix);
    const double score = policy.priority_from_cache(cache, task, rpt, mix);
    EXPECT_EQ(bits(score), bits(policy.priority(task, rpt, mix)))
        << policy.name() << " cacheable() contract broke at slot " << i;
    out.push_back(score);
  }
  return out;
}

/// Every kernelizable policy under test, in both yield bases where the
/// basis matters.
std::vector<std::unique_ptr<SchedulingPolicy>> kernel_policies() {
  std::vector<std::unique_ptr<SchedulingPolicy>> ps;
  ps.push_back(std::make_unique<FirstPricePolicy>(YieldBasis::kAtCompletion));
  ps.push_back(std::make_unique<FirstPricePolicy>(YieldBasis::kAtNow));
  ps.push_back(
      std::make_unique<PresentValuePolicy>(YieldBasis::kAtCompletion));
  ps.push_back(std::make_unique<PresentValuePolicy>(YieldBasis::kAtNow));
  ps.push_back(std::make_unique<SwptPolicy>());
  ps.push_back(
      std::make_unique<FirstRewardPolicy>(0.5, YieldBasis::kAtCompletion));
  ps.push_back(
      std::make_unique<FirstRewardPolicy>(0.3, YieldBasis::kAtNow));
  return ps;
}

// --- kExact bit-identity ------------------------------------------------

TEST(ScoreKernels, ExactVariantMatchesScalarBitwise) {
  for (const auto& policy : kernel_policies()) {
    ASSERT_TRUE(policy->kernelizable()) << policy->name();
    for (std::uint64_t seed : {11u, 12u, 13u}) {
      Population pop = edge_population(seed, 257);  // odd: exercises tails
      // Scoring instants before, inside, and far past the population's
      // anchors (the last one drives every slack negative).
      for (double now : {0.0, 40.0, 1e4}) {
        const MixView mix = mix_at(now);
        const auto kernel = kernel_scores(*policy, pop, mix);
        const auto scalar = scalar_scores(*policy, pop, mix);
        for (std::size_t i = 0; i < kernel.size(); ++i) {
          ASSERT_EQ(bits(kernel[i]), bits(scalar[i]))
              << policy->name() << " slot " << i << " at now=" << now
              << ": kernel " << kernel[i] << " vs scalar " << scalar[i];
          EXPECT_FALSE(std::isnan(kernel[i]))
              << policy->name() << " slot " << i;
        }
      }
    }
  }
}

TEST(ScoreKernels, BoundedMixFallsBackToScalarLane) {
  // With a bounded competitor in the mix FirstReward's combine must price
  // the Eq. 4 opportunity cost through the scalar lane — still bit-equal.
  const FirstRewardPolicy policy(0.5);
  Population pop = edge_population(21, 64);
  const MixView mix = mix_at(30.0, 0.01, 5.0, /*any_bounded=*/true);
  const auto kernel = kernel_scores(policy, pop, mix);
  const auto scalar = scalar_scores(policy, pop, mix);
  for (std::size_t i = 0; i < kernel.size(); ++i)
    EXPECT_EQ(bits(kernel[i]), bits(scalar[i])) << "slot " << i;
}

// A policy that opts into the kernel path but keeps the base-class
// kernel_make_cache / kernel_priority defaults (scalar loops over
// make_cache / priority_from_cache, which themselves default to
// priority()). The scheduler must get bit-correct scores from a policy
// that only implements the paper's pure priority index.
class DefaultKernelPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "default-kernel"; }
  double priority(const Task& task, double rpt,
                  const MixView& mix) const override {
    return task.value.max_value() / rpt - mix.now * 1e-6;
  }
  bool kernelizable() const override { return true; }
};

TEST(ScoreKernels, BaseClassDefaultsFallBackToScalarPriority) {
  const DefaultKernelPolicy policy;
  Population pop = edge_population(51, 97);
  const MixView mix = mix_at(12.0);
  const auto kernel = kernel_scores(policy, pop, mix);
  for (std::size_t i = 0; i < kernel.size(); ++i)
    EXPECT_EQ(bits(kernel[i]),
              bits(policy.priority(pop.tasks[i], pop.rpts[i], mix)))
        << "slot " << i;
}

// --- dispatched vs portable ---------------------------------------------

TEST(ScoreKernels, DispatchedMatchesPortableBitwise) {
  // On AVX2 hosts this pins the vector lanes against the portable loops;
  // elsewhere the dispatcher *is* the portable loop and the test is a
  // tautology that still guards the plumbing.
  if (kernels::avx2_active())
    std::puts("[ note ] AVX2 lanes active: comparing against portable");
  Population pop = edge_population(31, 203);
  const ScoreColumnsView view = pop.columns.view();
  const std::size_t n = view.n;
  std::vector<double> a(n), b(n), c(n), pa(n), pb(n), pc(n), out(n), pout(n);
  for (const bool at_completion : {true, false}) {
    for (const double now : {0.0, 55.0}) {
      kernels::unit_gain_scores(view, now, at_completion, out.data());
      kernels::portable::unit_gain_scores(view, now, at_completion,
                                          pout.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(out[i]), bits(pout[i])) << "unit_gain slot " << i;

      kernels::present_value_scores(view, now, 0.01, at_completion,
                                    out.data());
      kernels::portable::present_value_scores(view, now, 0.01, at_completion,
                                              pout.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(out[i]), bits(pout[i])) << "pv slot " << i;

      kernels::swpt_scores(view, now, out.data());
      kernels::portable::swpt_scores(view, now, pout.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(out[i]), bits(pout[i])) << "swpt slot " << i;

      kernels::first_reward_cache(view, now, 0.01, 0.5, at_completion,
                                  a.data(), b.data(), c.data());
      kernels::portable::first_reward_cache(view, now, 0.01, 0.5,
                                            at_completion, pa.data(),
                                            pb.data(), pc.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(a[i]), bits(pa[i])) << "fr cache a slot " << i;
        ASSERT_EQ(bits(b[i]), bits(pb[i])) << "fr cache b slot " << i;
        ASSERT_EQ(bits(c[i]), bits(pc[i])) << "fr cache c slot " << i;
      }

      kernels::first_reward_combine(view, a.data(), b.data(), c.data(), 9.5,
                                    0.5, out.data());
      kernels::portable::first_reward_combine(view, pa.data(), pb.data(),
                                              pc.data(), 9.5, 0.5,
                                              pout.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(out[i]), bits(pout[i])) << "fr combine slot " << i;
    }
  }
}

// --- ScoreColumns bookkeeping -------------------------------------------

TEST(ScoreColumns, PushAndSwapEraseMirrorNaiveQueue) {
  Xoshiro256 rng(71);
  std::deque<Task> storage;
  ScoreColumns cols;
  // Naive model of the index-swap queue: (task, rpt) pairs.
  std::vector<std::pair<const Task*, double>> model;

  const auto check = [&] {
    ASSERT_EQ(cols.size(), model.size());
    std::size_t nonlinear = 0;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(&cols.task(i), model[i].first) << "slot " << i;
      ASSERT_EQ(cols.rpt(i), model[i].second) << "slot " << i;
      ASSERT_EQ(cols.linear(i), model[i].first->value.is_linear())
          << "slot " << i;
      nonlinear += model[i].first->value.is_linear() ? 0u : 1u;
    }
    ASSERT_EQ(cols.nonlinear_count(), nonlinear);
  };

  for (int step = 0; step < 2000; ++step) {
    const bool push = model.empty() || rng.uniform(0.0, 1.0) < 0.55;
    if (push) {
      Task t = make_task(static_cast<TaskId>(step + 1),
                         rng.uniform(0.0, 10.0), rng.uniform(1.0, 20.0),
                         rng.uniform(1.0, 50.0), rng.uniform(0.01, 1.0));
      if (step % 3 == 0) {
        // Piecewise profile: must be tracked in nonlinear_count.
        t.value = ValueFunction::piecewise(
            40.0, {{10.0, 0.5}, {kInf, 1.0}}, kInf);
      }
      storage.push_back(t);
      const double rpt = rng.uniform(0.5, 20.0);
      cols.push(storage.back(), rpt);
      model.emplace_back(&storage.back(), rpt);
    } else {
      const std::size_t slot =
          static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                   static_cast<double>(model.size())) %
          model.size();
      cols.swap_erase(slot);
      model[slot] = model.back();
      model.pop_back();
    }
    check();
  }
  cols.clear();
  EXPECT_EQ(cols.size(), 0u);
  EXPECT_EQ(cols.nonlinear_count(), 0u);
}

// --- whole-run identity -------------------------------------------------

WorkloadSpec run_spec(bool piecewise) {
  WorkloadSpec spec;
  spec.num_jobs = 500;
  spec.processors = 4;
  spec.load_factor = 2.5;
  if (piecewise) spec.cliff_grace = 0.3;  // deadline-cliff profiles
  return spec;
}

RunStats run_with(const Trace& trace, const PolicySpec& policy,
                  ScoreKernelMode mode) {
  SchedulerConfig config;
  config.processors = 4;
  config.preemption = true;
  config.discount_rate = 0.01;
  config.score_kernels = mode;
  return run_single_site(trace, config, policy, std::nullopt);
}

void expect_identical_stats(const RunStats& on, const RunStats& off,
                            const std::string& label) {
  EXPECT_EQ(on.submitted, off.submitted) << label;
  EXPECT_EQ(on.accepted, off.accepted) << label;
  EXPECT_EQ(on.completed, off.completed) << label;
  EXPECT_EQ(on.dropped, off.dropped) << label;
  EXPECT_EQ(bits(on.total_yield), bits(off.total_yield)) << label;
  EXPECT_EQ(bits(on.yield_rate), bits(off.yield_rate)) << label;
  EXPECT_EQ(bits(on.last_completion), bits(off.last_completion)) << label;
  EXPECT_EQ(bits(on.utilization), bits(off.utilization)) << label;
  EXPECT_EQ(on.preemptions, off.preemptions) << label;
  EXPECT_EQ(on.dispatches, off.dispatches) << label;
  EXPECT_EQ(bits(on.delay.mean()), bits(off.delay.mean())) << label;
  EXPECT_EQ(bits(on.delay.max()), bits(off.delay.max())) << label;
  EXPECT_EQ(bits(on.realized_yield.mean()), bits(off.realized_yield.mean()))
      << label;
}

TEST(ScoreKernels, WholeRunBitIdenticalToScalarPath) {
  const PolicySpec policies[] = {
      PolicySpec{.kind = PolicySpec::Kind::kFirstPrice},
      PolicySpec{.kind = PolicySpec::Kind::kPresentValue},
      PolicySpec{.kind = PolicySpec::Kind::kSwpt},
      PolicySpec{.kind = PolicySpec::Kind::kFirstReward, .alpha = 0.3},
  };
  for (const bool piecewise : {false, true}) {
    Xoshiro256 rng(2026);
    const Trace trace = generate_trace(run_spec(piecewise), rng);
    for (const auto& policy : policies) {
      const RunStats on = run_with(trace, policy, ScoreKernelMode::kExact);
      const RunStats off = run_with(trace, policy, ScoreKernelMode::kOff);
      expect_identical_stats(
          on, off,
          policy.to_string() + (piecewise ? " piecewise" : " linear"));
    }
  }
}

}  // namespace
}  // namespace mbts

// Naive reference implementations of the paper's equations (Eq. 3-8).
//
// Everything in mbts::oracle is deliberately slow and allocation-happy: each
// function recomputes its inputs from scratch, straight from the equations as
// printed, with no caches, no incremental state, and no truncation. The
// optimized stack (MixTracker, ScoreCache, batched scoring, admission prefix
// truncation) must agree with these functions BIT FOR BIT — the differential
// harness (tests/differential, tools/diff_fuzz) runs both sides on randomized
// scenarios and fails on the first diverging bit.
//
// Bit-level agreement constrains the reference in one deliberate way: where
// the paper gives two algebraically-equal forms (the Eq. 4 per-competitor sum
// vs the Eq. 5 aggregate), floating-point addition is not associative, so the
// reference commits to the same form selection and the same summation order
// as the spec'd behavior (aggregate when no competitor is bounded, summing
// live decay in mix-slot order). Those choices are part of the observable
// contract, not an implementation detail borrowed from the optimized code.
#pragma once

#include <cstddef>
#include <vector>

#include "core/policy.hpp"
#include "core/task.hpp"
#include "core/types.hpp"

namespace mbts::oracle {

/// One competitor as the reference cost model sees it. Mirrors the shape of
/// the data (a task decaying at `decay` for another `time_to_expire` units),
/// recomputed from the Task on every evaluation.
struct RefCompetitor {
  TaskId id = kInvalidTask;
  double decay = 0.0;
  double time_to_expire = kInf;
};

/// A from-scratch snapshot of the task mix at one instant. `competitors` is
/// in mix-slot order (freed slots present as zeroed entries) because the
/// slot-order sum is the canonical association for total_live_decay; a
/// transient bid candidate, when present, is always the last entry.
struct RefMixView {
  SimTime now = 0.0;
  double discount_rate = 0.0;
  double total_live_decay = 0.0;
  bool any_bounded = false;
  std::vector<RefCompetitor> competitors;
};

/// Recomputes one competitor entry from its task at `now` (Eq. 1/2 applied
/// to the decay profile; no cached breakpoints).
RefCompetitor competitor_of(const Task& task, SimTime now);

/// Eq. 3: PV = yield / (1 + discount_rate * horizon).
double present_value(double yield, double discount_rate, double horizon);

/// Eq. 4/5: aggregate yield decline inflicted on the rest of the mix by
/// running `task` for `rpt` units. Uses the Eq. 5 aggregate form when no
/// competitor's value function expires, else the Eq. 4 per-competitor sum
/// (in competitor order) with each term capped at the competitor's remaining
/// decay time.
double opportunity_cost(const Task& task, double rpt, const RefMixView& mix);

/// Eq. 6: reward_i = (alpha * PV_i - (1 - alpha) * cost_i) / (RPT_i * w_i),
/// with PV_i discounted over the task's own remaining run time.
double first_reward(const Task& task, double rpt, const RefMixView& mix,
                    double alpha);

/// The priority index of any PolicySpec, recomputed naively (the policy
/// registry in src/core/policies is never consulted). Only the paper's
/// kAtCompletion yield basis is supported.
double ref_priority(const PolicySpec& spec, const Task& task, double rpt,
                    const RefMixView& mix);

/// One pending task in a reference candidate schedule, highest priority
/// first.
struct RefPending {
  const Task* task = nullptr;
  double rpt = 0.0;
  double score = 0.0;
};

/// Greedy list schedule over a sorted free-time array: each item claims
/// the `width` earliest-free processors and starts when the last of them
/// frees. Returns the completion of `ordered[index]`. It erases and
/// inserts where core/schedule.cpp's completion_of merges in place; both
/// hold the same multiset of free times after every item, so the result is
/// bit-identical.
double naive_completion(std::vector<double> proc_free,
                        const std::vector<RefPending>& ordered,
                        const Task& candidate, std::size_t position);

/// Outcome of the reference admission evaluation (Eq. 7/8).
struct RefAdmission {
  bool accept = false;
  std::size_t position = 0;
  SimTime expected_completion = 0.0;
  double expected_yield = 0.0;
  double slack = 0.0;
};

/// Eq. 8 cost: decay inflicted on every task ranked behind the candidate.
/// `literal_eq8` charges decay_j * runtime_j as printed; the default charges
/// decay_j * runtime_i (see DESIGN.md section 4).
double admission_cost(const Task& candidate,
                      const std::vector<RefPending>& ranked,
                      std::size_t position, SimTime now, bool literal_eq8);

/// Eq. 7/8 evaluated from scratch: ranks the candidate into `ranked` (ties
/// go behind earlier arrivals), projects its completion with
/// naive_completion, and derives the slack
///   slack_i = (PV_i - cost_i) / decay_i
/// with PV discounted over the projected wait. `threshold` is the accept
/// cutoff; pass `accept_all` to model the AcceptAll policy (slack = kInf,
/// always accept, no Eq. 8 evaluation).
RefAdmission slack_admission(const PolicySpec& spec, const Task& candidate,
                             const RefMixView& mix,
                             const std::vector<RefPending>& ranked,
                             std::vector<double> proc_free, double threshold,
                             bool literal_eq8, bool accept_all);

}  // namespace mbts::oracle

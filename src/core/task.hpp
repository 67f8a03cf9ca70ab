// The batch task model (paper §2–§4).
//
// A task is a single-processor batch job: it consumes a processor for
// `runtime` units and delivers no value until it completes. Its bid is the
// tuple (runtime, value, decay, bound) — exactly the contract the market
// layer negotiates over (§6).
#pragma once

#include <string>

#include "core/types.hpp"
#include "core/value_function.hpp"

namespace mbts {

struct Task {
  TaskId id = kInvalidTask;
  /// Release time (arrival_i).
  SimTime arrival = 0.0;
  /// Minimum run time (runtime_i): the task's true service demand.
  SimTime runtime = 0.0;
  /// Processors requested (gang-scheduled: the task runs on exactly
  /// `width` processors simultaneously or not at all). The paper assumes
  /// width 1 "for simplicity"; wider requests exercise the backfilling
  /// dispatch it references.
  std::size_t width = 1;
  /// The run time the client *declared* in its bid. The paper assumes
  /// estimates are accurate (§4) and defers exceedance handling to future
  /// work; we implement that extension: schedulers and quotes see the
  /// estimate, execution consumes the true runtime. 0 (the default) means
  /// "accurate" — accessors then fall back to `runtime`.
  SimTime declared_runtime = 0.0;
  ValueFunction value = ValueFunction::bounded_at_zero(0.0, 0.0);

  friend bool operator==(const Task&, const Task&) = default;

  /// The runtime visible to scheduling heuristics and admission control.
  SimTime estimate() const {
    return declared_runtime > 0.0 ? declared_runtime : runtime;
  }
  bool estimate_is_exact() const {
    return declared_runtime == 0.0 || declared_runtime == runtime;
  }

  /// Delay as the *contract* measures it (Eq. 2 rearranged): the value
  /// function is anchored at arrival + the declared runtime, so a client
  /// that under-declared pays decay even when served immediately. Negative
  /// values clamp to 0 (a task cannot be "early" — it earns at most its
  /// maximum value). With accurate estimates this is exactly
  /// completion - (arrival + runtime).
  double delay_at_completion(SimTime completion) const {
    const double d = completion - (arrival + estimate());
    return d > 0.0 ? d : 0.0;
  }

  /// Realized yield when completing at `completion` (Eq. 1 + Eq. 2).
  double yield_at_completion(SimTime completion) const {
    return value.yield_at_delay(delay_at_completion(completion));
  }

  /// Yield charged when the site cannot deliver at all (a crashed site's
  /// breached contract): the paper's penalty bound when the value function
  /// has one, else the decayed yield at the breach instant capped at zero —
  /// non-delivery never earns a positive price.
  double breach_yield(SimTime at) const {
    if (value.bounded()) return -value.penalty_bound();
    const double decayed = yield_at_completion(at);
    return decayed < 0.0 ? decayed : 0.0;
  }

  /// Completion promised by an immediate dispatch, per the bid.
  SimTime earliest_completion() const { return arrival + estimate(); }

  /// Absolute time at which the value function stops decaying (kInf when
  /// it never does).
  SimTime expire_time() const {
    const double d = value.delay_to_expire();
    return d == kInf ? kInf : arrival + estimate() + d;
  }

  /// Absolute time at which the yield crosses zero.
  SimTime zero_value_time() const {
    const double d = value.delay_to_zero();
    return d == kInf ? kInf : arrival + estimate() + d;
  }

  std::string to_string() const;
};

/// Validates the fields a site would sanity-check before considering a bid.
/// Returns an empty string when valid, else a diagnostic.
std::string validate_task(const Task& task);

}  // namespace mbts

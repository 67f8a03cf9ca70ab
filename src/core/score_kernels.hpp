// Flat-array scoring kernels over `ScoreColumns` (Eqs. 3–6 across the
// whole pending set per dispatch).
//
// Contract: every element runs the *same operation order* as the scalar
// policy code (`unit_gain`,
// `present_value`, `decay_at_delay`, `FirstRewardPolicy::make_cache` /
// `priority_from_cache` for single-segment value functions), so outputs
// are bit-identical to the scalar path — pinned by test_score_kernels and
// the differential oracle. The build compiles with -ffp-contract=off so no
// FMA contraction can reassociate a*b+c between the two paths.
//
// Each entry point dispatches at runtime to an explicit AVX2
// implementation when the binary carries one (CMake feature check) and the
// CPU supports it, with `portable::` — plain auto-vectorizable loops over
// the inline element functions below — as the fallback. The AVX2 loops use
// only per-lane operations whose NaN/±0 semantics match the scalar
// expressions (see score_kernels_avx2.cpp), so both implementations agree
// bitwise; test_score_kernels asserts portable == dispatched on every run.
//
// Piecewise (multi-segment) value functions are *not* handled here: the
// kernels price every slot as if single-segment, and the scheduler
// overwrites non-linear slots with scalar `make_cache` results afterwards
// (ScoreColumnsView::linear marks them). Those lanes are garbage-in
// garbage-out but still deterministic and finite-formula, so the two
// implementations agree on them too.
#pragma once

#include <cstddef>

#include "core/score_columns.hpp"

namespace mbts::kernels {

/// True when the binary contains the AVX2 translation unit.
bool avx2_compiled();
/// True when avx2_compiled() and the running CPU reports AVX2.
bool avx2_active();

namespace detail {

/// max(completion - anchor, 0): `Task::delay_at_completion`, element form.
inline double clamped_delay(double completion, double anchor) {
  const double d = completion - anchor;
  return d > 0.0 ? d : 0.0;
}

/// Single-segment `ValueFunction::yield_at_delay`: the linear decay line
/// floored at -penalty_bound. `raw < neg_bound ? neg_bound : raw` is
/// std::max(raw, neg_bound) spelled out.
inline double linear_yield(double d, double max_value, double rate,
                           double neg_bound) {
  const double raw = max_value - d * rate;
  return raw < neg_bound ? neg_bound : raw;
}

/// Single-segment `ValueFunction::decay_at_delay` at pre-clamped d >= 0.
inline double linear_decay(double d, double rate, double expire) {
  return d >= expire ? 0.0 : rate;
}

}  // namespace detail

// Every kernel writes exactly view.n elements. `at_completion` selects the
// YieldBasis: true anchors yield at now + rpt (kAtCompletion), false at
// now (kAtNow).

/// FirstPrice: yield / (rpt * width) per slot.
void unit_gain_scores(const ScoreColumnsView& cols, double now,
                      bool at_completion, double* out);

/// PresentValue: yield / (1 + discount_rate * rpt) / (rpt * width).
void present_value_scores(const ScoreColumnsView& cols, double now,
                          double discount_rate, bool at_completion,
                          double* out);

/// SWPT: current decay weight / rpt.
void swpt_scores(const ScoreColumnsView& cols, double now, double* out);

/// FirstReward cache terms (`ScoreCache` columns): a = alpha * PV(yield),
/// b = own live decay at now, c = rpt * width.
void first_reward_cache(const ScoreColumnsView& cols, double now,
                        double discount_rate, double alpha, bool at_completion,
                        double* a, double* b, double* c);

/// FirstReward Eq. 6 combine against an all-unbounded mix (Eq. 5 cost):
/// (a - (1-alpha) * max(total_live_decay - b, 0) * rpt) / c.
void first_reward_combine(const ScoreColumnsView& cols, const double* a,
                          const double* b, const double* c,
                          double total_live_decay, double alpha, double* out);

/// Portable reference loops (what the dispatcher falls back to). Exposed
/// so tests can pin dispatched == portable bit-equality on AVX2 hosts.
namespace portable {
void unit_gain_scores(const ScoreColumnsView& cols, double now,
                      bool at_completion, double* out);
void present_value_scores(const ScoreColumnsView& cols, double now,
                          double discount_rate, bool at_completion,
                          double* out);
void swpt_scores(const ScoreColumnsView& cols, double now, double* out);
void first_reward_cache(const ScoreColumnsView& cols, double now,
                        double discount_rate, double alpha, bool at_completion,
                        double* a, double* b, double* c);
void first_reward_combine(const ScoreColumnsView& cols, const double* a,
                          const double* b, const double* c,
                          double total_live_decay, double alpha, double* out);
}  // namespace portable

#if defined(MBTS_HAVE_AVX2)
namespace avx2 {
void unit_gain_scores(const ScoreColumnsView& cols, double now,
                      bool at_completion, double* out);
void present_value_scores(const ScoreColumnsView& cols, double now,
                          double discount_rate, bool at_completion,
                          double* out);
void swpt_scores(const ScoreColumnsView& cols, double now, double* out);
void first_reward_cache(const ScoreColumnsView& cols, double now,
                        double discount_rate, double alpha, bool at_completion,
                        double* a, double* b, double* c);
void first_reward_combine(const ScoreColumnsView& cols, const double* a,
                          const double* b, const double* c,
                          double total_live_decay, double alpha, double* out);
}  // namespace avx2
#endif

}  // namespace mbts::kernels

// Portable kernel loops + the runtime AVX2 dispatcher.
//
// The portable loops are written as straight-line per-element code over
// contiguous columns — no per-element branches beyond the clamp/floor
// selects the scalar formulas themselves contain (which compile to
// maxsd/cmp+blend, not branches). The yield-basis switch is hoisted out of
// the loops via a template parameter.
#include "core/score_kernels.hpp"

namespace mbts::kernels {

namespace {

bool detect_avx2() {
#if defined(MBTS_HAVE_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool avx2_compiled() {
#if defined(MBTS_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool avx2_active() {
  static const bool active = detect_avx2();
  return active;
}

namespace portable {

namespace {

// AtCompletion: yield anchored at now + rpt (YieldBasis::kAtCompletion).
template <bool AtCompletion>
void unit_gain_loop(const ScoreColumnsView& cols, double now, double* out) {
  for (std::size_t i = 0; i < cols.n; ++i) {
    const double completion = AtCompletion ? now + cols.rpt[i] : now;
    const double d = detail::clamped_delay(completion, cols.anchor[i]);
    const double y =
        detail::linear_yield(d, cols.max_value[i], cols.rate[i],
                             cols.neg_bound[i]);
    out[i] = y / cols.rptw[i];
  }
}

template <bool AtCompletion>
void present_value_loop(const ScoreColumnsView& cols, double now,
                        double discount_rate, double* out) {
  for (std::size_t i = 0; i < cols.n; ++i) {
    const double completion = AtCompletion ? now + cols.rpt[i] : now;
    const double d = detail::clamped_delay(completion, cols.anchor[i]);
    const double y =
        detail::linear_yield(d, cols.max_value[i], cols.rate[i],
                             cols.neg_bound[i]);
    const double pv = y / (1.0 + discount_rate * cols.rpt[i]);
    out[i] = pv / cols.rptw[i];
  }
}

template <bool AtCompletion>
void first_reward_cache_loop(const ScoreColumnsView& cols, double now,
                             double discount_rate, double alpha, double* a,
                             double* b, double* c) {
  for (std::size_t i = 0; i < cols.n; ++i) {
    const double completion = AtCompletion ? now + cols.rpt[i] : now;
    const double d = detail::clamped_delay(completion, cols.anchor[i]);
    const double y =
        detail::linear_yield(d, cols.max_value[i], cols.rate[i],
                             cols.neg_bound[i]);
    const double pv = y / (1.0 + discount_rate * cols.rpt[i]);
    a[i] = alpha * pv;
    const double d0 = detail::clamped_delay(now, cols.anchor[i]);
    b[i] = detail::linear_decay(d0, cols.rate[i], cols.expire[i]);
    c[i] = cols.rptw[i];
  }
}

}  // namespace

void unit_gain_scores(const ScoreColumnsView& cols, double now,
                      bool at_completion, double* out) {
  at_completion ? unit_gain_loop<true>(cols, now, out)
                : unit_gain_loop<false>(cols, now, out);
}

void present_value_scores(const ScoreColumnsView& cols, double now,
                          double discount_rate, bool at_completion,
                          double* out) {
  at_completion ? present_value_loop<true>(cols, now, discount_rate, out)
                : present_value_loop<false>(cols, now, discount_rate, out);
}

void swpt_scores(const ScoreColumnsView& cols, double now, double* out) {
  for (std::size_t i = 0; i < cols.n; ++i) {
    const double d = detail::clamped_delay(now, cols.anchor[i]);
    const double w = detail::linear_decay(d, cols.rate[i], cols.expire[i]);
    out[i] = w / cols.rpt[i];
  }
}

void first_reward_cache(const ScoreColumnsView& cols, double now,
                        double discount_rate, double alpha, bool at_completion,
                        double* a, double* b, double* c) {
  at_completion
      ? first_reward_cache_loop<true>(cols, now, discount_rate, alpha, a, b, c)
      : first_reward_cache_loop<false>(cols, now, discount_rate, alpha, a, b,
                                       c);
}

void first_reward_combine(const ScoreColumnsView& cols, const double* a,
                          const double* b, const double* c,
                          double total_live_decay, double alpha, double* out) {
  // (1 - alpha) hoisted; the scalar priority_from_cache computes the same
  // value per call, so the product below is bit-identical.
  const double weight = 1.0 - alpha;
  for (std::size_t i = 0; i < cols.n; ++i) {
    const double others = total_live_decay - b[i];
    // std::max(others, 0.0) spelled out: (others < 0) ? 0 : others.
    const double cost = (others < 0.0 ? 0.0 : others) * cols.rpt[i];
    const double num = a[i] - weight * cost;
    out[i] = num / c[i];
  }
}

}  // namespace portable

void unit_gain_scores(const ScoreColumnsView& cols, double now,
                      bool at_completion, double* out) {
#if defined(MBTS_HAVE_AVX2)
  if (avx2_active()) {
    avx2::unit_gain_scores(cols, now, at_completion, out);
    return;
  }
#endif
  portable::unit_gain_scores(cols, now, at_completion, out);
}

void present_value_scores(const ScoreColumnsView& cols, double now,
                          double discount_rate, bool at_completion,
                          double* out) {
#if defined(MBTS_HAVE_AVX2)
  if (avx2_active()) {
    avx2::present_value_scores(cols, now, discount_rate, at_completion, out);
    return;
  }
#endif
  portable::present_value_scores(cols, now, discount_rate, at_completion, out);
}

void swpt_scores(const ScoreColumnsView& cols, double now, double* out) {
#if defined(MBTS_HAVE_AVX2)
  if (avx2_active()) {
    avx2::swpt_scores(cols, now, out);
    return;
  }
#endif
  portable::swpt_scores(cols, now, out);
}

void first_reward_cache(const ScoreColumnsView& cols, double now,
                        double discount_rate, double alpha, bool at_completion,
                        double* a, double* b, double* c) {
#if defined(MBTS_HAVE_AVX2)
  if (avx2_active()) {
    avx2::first_reward_cache(cols, now, discount_rate, alpha, at_completion, a,
                             b, c);
    return;
  }
#endif
  portable::first_reward_cache(cols, now, discount_rate, alpha, at_completion,
                               a, b, c);
}

void first_reward_combine(const ScoreColumnsView& cols, const double* a,
                          const double* b, const double* c,
                          double total_live_decay, double alpha, double* out) {
#if defined(MBTS_HAVE_AVX2)
  if (avx2_active()) {
    avx2::first_reward_combine(cols, a, b, c, total_live_decay, alpha, out);
    return;
  }
#endif
  portable::first_reward_combine(cols, a, b, c, total_live_decay, alpha, out);
}

}  // namespace mbts::kernels

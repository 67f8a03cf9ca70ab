// Explicit AVX2 lanes for the score kernels. Compiled with -mavx2 in its
// own translation unit (see src/core/CMakeLists.txt); callers reach it only
// through the runtime dispatcher in score_kernels.cpp.
//
// Bit-identity with the portable/scalar path rests on per-lane semantics:
//  - clamp `d > 0 ? d : 0`  ==  and_pd(d, cmp_gt_oq(d, 0)): the compare
//    mask is all-ones exactly when d > 0 (false for NaN, -0, negatives),
//    so non-positive and NaN lanes collapse to +0.0 — the same +0.0 the
//    scalar ternary produces.
//  - floor `raw < nb ? nb : raw`  ==  max_pd(nb, raw): vmaxpd returns the
//    second operand when either compares unordered or when both are ±0,
//    matching the ternary for NaN in either operand and for -0/+0.
//  - expire select `d >= e ? 0 : rate`  ==  andnot_pd(cmp_ge_oq(d, e),
//    rate): unordered compares are false, so NaN falls through to rate,
//    exactly like the scalar `>=`.
//  - cost clamp `others < 0 ? 0 : others`  ==  max_pd(0, others): same
//    vmaxpd argument-order reasoning (NaN and ±0 lanes return others).
// Everything else is verbatim add/sub/mul/div in the scalar operation
// order, and -ffp-contract=off (plus no -mfma) keeps mul+sub from fusing.
#include "core/score_kernels.hpp"

#if defined(MBTS_HAVE_AVX2)

#include <immintrin.h>

namespace mbts::kernels::avx2 {

namespace {

inline __m256d clamped_delay4(__m256d completion, __m256d anchor) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d d = _mm256_sub_pd(completion, anchor);
  return _mm256_and_pd(d, _mm256_cmp_pd(d, zero, _CMP_GT_OQ));
}

inline __m256d linear_yield4(__m256d d, __m256d max_value, __m256d rate,
                             __m256d neg_bound) {
  const __m256d raw = _mm256_sub_pd(max_value, _mm256_mul_pd(d, rate));
  return _mm256_max_pd(neg_bound, raw);
}

inline __m256d linear_decay4(__m256d d, __m256d rate, __m256d expire) {
  return _mm256_andnot_pd(_mm256_cmp_pd(d, expire, _CMP_GE_OQ), rate);
}

template <bool AtCompletion>
void unit_gain_loop(const ScoreColumnsView& cols, double now, double* out) {
  const __m256d vnow = _mm256_set1_pd(now);
  std::size_t i = 0;
  for (; i + 4 <= cols.n; i += 4) {
    const __m256d rpt = _mm256_loadu_pd(cols.rpt + i);
    const __m256d completion =
        AtCompletion ? _mm256_add_pd(vnow, rpt) : vnow;
    const __m256d d =
        clamped_delay4(completion, _mm256_loadu_pd(cols.anchor + i));
    const __m256d y = linear_yield4(d, _mm256_loadu_pd(cols.max_value + i),
                                    _mm256_loadu_pd(cols.rate + i),
                                    _mm256_loadu_pd(cols.neg_bound + i));
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(y, _mm256_loadu_pd(cols.rptw + i)));
  }
  for (; i < cols.n; ++i) {
    const double completion = AtCompletion ? now + cols.rpt[i] : now;
    const double d = detail::clamped_delay(completion, cols.anchor[i]);
    const double y = detail::linear_yield(d, cols.max_value[i], cols.rate[i],
                                          cols.neg_bound[i]);
    out[i] = y / cols.rptw[i];
  }
}

template <bool AtCompletion>
void present_value_loop(const ScoreColumnsView& cols, double now,
                        double discount_rate, double* out) {
  const __m256d vnow = _mm256_set1_pd(now);
  const __m256d vdr = _mm256_set1_pd(discount_rate);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= cols.n; i += 4) {
    const __m256d rpt = _mm256_loadu_pd(cols.rpt + i);
    const __m256d completion =
        AtCompletion ? _mm256_add_pd(vnow, rpt) : vnow;
    const __m256d d =
        clamped_delay4(completion, _mm256_loadu_pd(cols.anchor + i));
    const __m256d y = linear_yield4(d, _mm256_loadu_pd(cols.max_value + i),
                                    _mm256_loadu_pd(cols.rate + i),
                                    _mm256_loadu_pd(cols.neg_bound + i));
    const __m256d pv =
        _mm256_div_pd(y, _mm256_add_pd(one, _mm256_mul_pd(vdr, rpt)));
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(pv, _mm256_loadu_pd(cols.rptw + i)));
  }
  for (; i < cols.n; ++i) {
    const double completion = AtCompletion ? now + cols.rpt[i] : now;
    const double d = detail::clamped_delay(completion, cols.anchor[i]);
    const double y = detail::linear_yield(d, cols.max_value[i], cols.rate[i],
                                          cols.neg_bound[i]);
    const double pv = y / (1.0 + discount_rate * cols.rpt[i]);
    out[i] = pv / cols.rptw[i];
  }
}

template <bool AtCompletion>
void first_reward_cache_loop(const ScoreColumnsView& cols, double now,
                             double discount_rate, double alpha, double* a,
                             double* b, double* c) {
  const __m256d vnow = _mm256_set1_pd(now);
  const __m256d vdr = _mm256_set1_pd(discount_rate);
  const __m256d valpha = _mm256_set1_pd(alpha);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= cols.n; i += 4) {
    const __m256d rpt = _mm256_loadu_pd(cols.rpt + i);
    const __m256d anchor = _mm256_loadu_pd(cols.anchor + i);
    const __m256d rate = _mm256_loadu_pd(cols.rate + i);
    const __m256d completion =
        AtCompletion ? _mm256_add_pd(vnow, rpt) : vnow;
    const __m256d d = clamped_delay4(completion, anchor);
    const __m256d y = linear_yield4(d, _mm256_loadu_pd(cols.max_value + i),
                                    rate, _mm256_loadu_pd(cols.neg_bound + i));
    const __m256d pv =
        _mm256_div_pd(y, _mm256_add_pd(one, _mm256_mul_pd(vdr, rpt)));
    _mm256_storeu_pd(a + i, _mm256_mul_pd(valpha, pv));
    const __m256d d0 = clamped_delay4(vnow, anchor);
    _mm256_storeu_pd(
        b + i, linear_decay4(d0, rate, _mm256_loadu_pd(cols.expire + i)));
    _mm256_storeu_pd(c + i, _mm256_loadu_pd(cols.rptw + i));
  }
  for (; i < cols.n; ++i) {
    const double completion = AtCompletion ? now + cols.rpt[i] : now;
    const double d = detail::clamped_delay(completion, cols.anchor[i]);
    const double y = detail::linear_yield(d, cols.max_value[i], cols.rate[i],
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
  const __m256d vnow = _mm256_set1_pd(now);
  std::size_t i = 0;
  for (; i + 4 <= cols.n; i += 4) {
    const __m256d d = clamped_delay4(vnow, _mm256_loadu_pd(cols.anchor + i));
    const __m256d w = linear_decay4(d, _mm256_loadu_pd(cols.rate + i),
                                    _mm256_loadu_pd(cols.expire + i));
    _mm256_storeu_pd(out + i, _mm256_div_pd(w, _mm256_loadu_pd(cols.rpt + i)));
  }
  for (; i < cols.n; ++i) {
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
  const double weight = 1.0 - alpha;
  const __m256d vtotal = _mm256_set1_pd(total_live_decay);
  const __m256d vweight = _mm256_set1_pd(weight);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= cols.n; i += 4) {
    const __m256d others = _mm256_sub_pd(vtotal, _mm256_loadu_pd(b + i));
    const __m256d cost = _mm256_mul_pd(_mm256_max_pd(zero, others),
                                       _mm256_loadu_pd(cols.rpt + i));
    const __m256d num =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_mul_pd(vweight, cost));
    _mm256_storeu_pd(out + i, _mm256_div_pd(num, _mm256_loadu_pd(c + i)));
  }
  for (; i < cols.n; ++i) {
    const double others = total_live_decay - b[i];
    const double cost = (others < 0.0 ? 0.0 : others) * cols.rpt[i];
    const double num = a[i] - weight * cost;
    out[i] = num / c[i];
  }
}

}  // namespace mbts::kernels::avx2

#endif  // MBTS_HAVE_AVX2

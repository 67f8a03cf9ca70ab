#include "core/admission.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/metrics.hpp"
#include "util/check.hpp"

namespace mbts {

AdmissionDecision project_candidate(const Task& candidate,
                                    const AdmissionContext& ctx) {
  MBTS_CHECK(ctx.mix != nullptr && ctx.policy != nullptr);
  MBTS_CHECK(ctx.pending_sorted.size() == ctx.pending_rpt.size());

  // The site believes the bid: score and project with the declared runtime.
  const double cand_priority =
      ctx.policy->priority(candidate, candidate.estimate(), *ctx.mix);

  // Pending tasks arrive already sorted by priority (descending). The
  // candidate slots in front of the first strictly-lower-priority task;
  // ties resolve behind existing tasks (they arrived earlier). The caller
  // may hand us the scores it sorted by; otherwise recompute them.
  std::size_t position = ctx.pending_sorted.size();
  if (!ctx.pending_scores.empty()) {
    MBTS_DCHECK(ctx.pending_scores.size() == ctx.pending_sorted.size());
    for (std::size_t i = 0; i < ctx.pending_scores.size(); ++i) {
      if (cand_priority > ctx.pending_scores[i]) {
        position = i;
        break;
      }
    }
  } else {
    for (std::size_t i = 0; i < ctx.pending_sorted.size(); ++i) {
      const double p = ctx.policy->priority(*ctx.pending_sorted[i],
                                            ctx.pending_rpt[i], *ctx.mix);
      if (cand_priority > p) {
        position = i;
        break;
      }
    }
  }

  // completion_of only schedules items [0, position], so the tasks ranked
  // behind the candidate never enter the projection at all.
  std::vector<PendingItem> local;
  std::vector<PendingItem>& ordered =
      ctx.projection_scratch != nullptr ? *ctx.projection_scratch : local;
  ordered.clear();
  ordered.reserve(position + 1);
  for (std::size_t i = 0; i < position; ++i)
    ordered.push_back({ctx.pending_sorted[i]->id, ctx.pending_rpt[i],
                       ctx.pending_sorted[i]->width});
  ordered.push_back({candidate.id, candidate.estimate(), candidate.width});

  AdmissionDecision decision;
  decision.queue_position = position;
  std::vector<double> local_free;
  decision.expected_completion = completion_of(
      ctx.proc_free, ordered, position,
      ctx.free_scratch != nullptr ? *ctx.free_scratch : local_free);
  decision.expected_yield =
      candidate.yield_at_completion(decision.expected_completion);
  return decision;
}

double admission_cost(const Task& candidate, const AdmissionContext& ctx,
                      std::size_t position, bool literal_eq8) {
  // Eq. 8: impact on the tasks behind the candidate in the pending order.
  // The caller may pass each task's live decay rate along (the scheduler's
  // mix cache holds exactly decay_at_delay at now); recompute otherwise.
  const bool have_decay = !ctx.pending_decay.empty();
  MBTS_DCHECK(!have_decay ||
              ctx.pending_decay.size() == ctx.pending_sorted.size());
  double cost = 0.0;
  for (std::size_t i = position; i < ctx.pending_sorted.size(); ++i) {
    const Task& behind = *ctx.pending_sorted[i];
    const double window =
        literal_eq8 ? behind.estimate() : candidate.estimate();
    const double rate =
        have_decay
            ? ctx.pending_decay[i]
            : behind.value.decay_at_delay(behind.delay_at_completion(ctx.now));
    MBTS_DCHECK(rate ==
                behind.value.decay_at_delay(behind.delay_at_completion(ctx.now)));
    cost += rate * window;
  }
  return cost;
}

double admission_slack(const Task& candidate, const AdmissionContext& ctx,
                       const AdmissionDecision& projection, double cost) {
  // Eq. 7 with the gain expressed as present value: the payoff matures when
  // the task is expected to complete, not merely after its run time.
  const double horizon =
      std::max(0.0, projection.expected_completion - ctx.now);
  const double pv = present_value(projection.expected_yield,
                                  ctx.mix->discount_rate, horizon);
  const double net = pv - cost;
  const double decay = candidate.value.decay();
  if (decay == 0.0) return net >= 0.0 ? kInf : -kInf;
  return net / decay;
}

AdmissionDecision AcceptAllAdmission::evaluate(
    const Task& candidate, const AdmissionContext& ctx) const {
  AdmissionDecision decision = project_candidate(candidate, ctx);
  decision.slack = kInf;
  decision.accept = true;
  return decision;
}

SlackAdmission::SlackAdmission(SlackAdmissionConfig config)
    : config_(config) {}

std::string SlackAdmission::name() const {
  std::ostringstream os;
  os << "Slack(threshold=" << config_.threshold << ')';
  return os.str();
}

AdmissionDecision SlackAdmission::evaluate(const Task& candidate,
                                           const AdmissionContext& ctx) const {
  AdmissionDecision decision = project_candidate(candidate, ctx);
  const double cost = admission_cost(candidate, ctx, decision.queue_position,
                                     config_.literal_eq8);
  decision.slack = admission_slack(candidate, ctx, decision, cost);
  decision.accept = decision.slack >= config_.threshold;
  return decision;
}

}  // namespace mbts

// Admission control and bid evaluation (paper §6).
//
// When a bid arrives, the site tentatively ranks the task into its candidate
// schedule, projects its expected completion and yield, and computes its
// *slack* (Eq. 7): the additional delay the task could absorb before its
// reward drops below zero,
//
//   slack_i = (PV_i - cost_i) / decay_i
//
// where cost_i charges the decay inflicted on every task behind i in the
// candidate schedule (Eq. 8). Bids whose slack falls below a configurable
// threshold are rejected; a low-slack task would constrain the site's
// flexibility to accept higher-value work later.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mix.hpp"
#include "core/policy.hpp"
#include "core/schedule.hpp"
#include "core/task.hpp"

namespace mbts {

/// Everything an acceptance heuristic may inspect about the site's state at
/// bid time. `pending_sorted`/`pending_rpt` are the queued tasks in policy
/// priority order (highest first); `proc_free` is each processor's expected
/// next free time. `mix` includes the candidate task itself.
///
/// When the admission policy declares reads_ranked_suffix() == false, the
/// scheduler may truncate the pending spans to the prefix that outranks the
/// candidate: the projection then ranks the candidate at the end of the
/// span, which is exactly its queue position in the full order.
///
/// `pending_scores` and `pending_decay` are optional caches aligned with
/// `pending_sorted`: the policy priority each task was sorted by, and its
/// live decay rate at `now` (from the scheduler's mix cache). When present
/// they spare the projection an O(n) rescore/decay rescan per bid; when
/// empty (standalone callers) the projection recomputes both — the policy's
/// priority and the value function's decay are pure in their arguments, so
/// the two paths are bit-identical.
struct AdmissionContext {
  SimTime now = 0.0;
  const MixView* mix = nullptr;
  const SchedulingPolicy* policy = nullptr;
  std::span<const double> proc_free;
  std::span<const Task* const> pending_sorted;
  std::span<const double> pending_rpt;
  std::span<const double> pending_scores;
  std::span<const double> pending_decay;
  /// Optional reusable buffers for the candidate-schedule projection; the
  /// scheduler points these at per-site scratch vectors so the quote path
  /// allocates nothing in steady state.
  std::vector<PendingItem>* projection_scratch = nullptr;
  std::vector<double>* free_scratch = nullptr;
};

/// Outcome of evaluating one bid. Expected fields are filled even on
/// rejection so clients can log why a quote was refused.
struct AdmissionDecision {
  bool accept = false;
  /// Candidate-schedule projection (Eq. 2).
  SimTime expected_completion = 0.0;
  double expected_yield = 0.0;
  /// Slack per Eq. 7 (kInf when decay == 0 and the task is profitable).
  double slack = 0.0;
  /// Zero-based rank the task would take in the pending order.
  std::size_t queue_position = 0;

  friend bool operator==(const AdmissionDecision&,
                         const AdmissionDecision&) = default;
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual std::string name() const = 0;
  virtual AdmissionDecision evaluate(const Task& candidate,
                                     const AdmissionContext& ctx) const = 0;
  /// True when evaluate() inspects the tasks ranked *behind* the candidate
  /// (e.g. the Eq. 8 cost sum over the suffix). When false, the scheduler
  /// may hand evaluate() a context whose entries below the candidate's rank
  /// are unsorted (the prefix that feeds the projection is always in
  /// priority order) — and may omit pending_decay entirely.
  virtual bool reads_ranked_suffix() const { return true; }
};

/// Accepts every bid (the §5 regime: the scheduler must run all tasks).
/// Still computes the projection so server quotes are available.
class AcceptAllAdmission final : public AdmissionPolicy {
 public:
  std::string name() const override { return "AcceptAll"; }
  AdmissionDecision evaluate(const Task& candidate,
                             const AdmissionContext& ctx) const override;
  bool reads_ranked_suffix() const override { return false; }
};

struct SlackAdmissionConfig {
  /// Minimum slack (in time units) a bid must retain to be accepted.
  double threshold = 0.0;
  /// Use the paper's Eq. 8 exactly as printed (decay_j * runtime_j). The
  /// default charges decay_j * runtime_i — the delay task i actually
  /// inflicts on each task j behind it; see DESIGN.md §4 item 1.
  bool literal_eq8 = false;
};

/// The paper's slack-threshold acceptance heuristic (Eq. 7/8).
class SlackAdmission final : public AdmissionPolicy {
 public:
  explicit SlackAdmission(SlackAdmissionConfig config);
  std::string name() const override;
  AdmissionDecision evaluate(const Task& candidate,
                             const AdmissionContext& ctx) const override;

  const SlackAdmissionConfig& config() const { return config_; }

 private:
  SlackAdmissionConfig config_;
};

/// Shared projection: ranks `candidate` into the pending order by policy
/// priority (ties go behind equals — arrival order), list-schedules, and
/// fills the expected completion/yield and queue position of the decision.
/// Returns the projected decision with accept unset (false) and slack 0.
AdmissionDecision project_candidate(const Task& candidate,
                                    const AdmissionContext& ctx);

/// Eq. 8 cost of accepting `candidate` at `position` in the pending order.
double admission_cost(const Task& candidate, const AdmissionContext& ctx,
                      std::size_t position, bool literal_eq8);

/// Eq. 7 slack given the projection and cost.
double admission_slack(const Task& candidate, const AdmissionContext& ctx,
                       const AdmissionDecision& projection, double cost);

}  // namespace mbts

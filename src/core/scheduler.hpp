// The task-service site scheduler (paper §4–§6).
//
// Event-driven: every arrival and completion triggers a dispatch that scores
// the mix under the configured policy and runs the top tasks. With
// preemption enabled a newly-scored pending task displaces the lowest-scored
// running task when it ranks strictly higher (ties always favor the running
// task, so dispatches never flap). Admission control is consulted once per
// submission; accepted tasks always run to completion — the §5/§6 regime —
// unless drop_expired is enabled (a Millennium-style extension).
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/processor_pool.hpp"
#include "core/admission.hpp"
#include "core/mix.hpp"
#include "core/policy.hpp"
#include "core/score_columns.hpp"
#include "core/task.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "stats/summary.hpp"

namespace mbts {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TraceRecorder;

/// When priorities are (re)computed (§5.2). kFresh rescans the whole mix at
/// every dispatch — priorities always reflect current yields. kAtEnqueue
/// computes a task's priority once when it enters the queue (submission or
/// preemption), the regime where a priority heap gives O(log n) dispatch;
/// time-varying indices like FirstPrice's unit gain then go stale as the
/// queue ages. Kept as an ablation of the paper's implicit design choice.
enum class RescorePolicy { kFresh, kAtEnqueue };

/// Whether the pending-queue rescore runs through the SoA batch kernels
/// (ScoreColumns + SchedulingPolicy::kernel_*) instead of the per-task
/// AoS ScoreCache path.
///  - kOff: the PR-1 AoS path, kept as the differential baseline.
///  - kExact (default): kernels with the scalar operation order — rankings
///    are bit-identical to kOff (golden fingerprint + oracle pinned).
///  - kFast: reciprocal-multiply kernels, deterministic but only
///    ulp-accurate vs kExact (DESIGN.md §6); opt-in.
/// Only engaged when the policy is kernelizable(); otherwise scoring falls
/// back to the AoS path regardless of this setting.
enum class ScoreKernelMode { kOff, kExact, kFast };

struct SchedulerConfig {
  std::size_t processors = 16;
  bool preemption = true;
  RescorePolicy rescore = RescorePolicy::kFresh;
  /// Discount rate for PV/FirstReward and admission slack (1% == 0.01).
  double discount_rate = 0.0;
  /// Extension: discard a task once its value function expires (only
  /// meaningful with bounded penalties; the realized yield is the floor).
  bool drop_expired = false;
  /// Extension (runtime misestimation): once a task has consumed its whole
  /// declared runtime without finishing, the scheduler keeps scoring it
  /// with this fraction of the declared runtime as its remaining estimate —
  /// "it must be almost done". Only reached when clients under-declare.
  double exceeded_estimate_fraction = 0.05;
  /// Debug/ablation: force a from-scratch recomputation of every mix entry
  /// before each refresh instead of trusting the incremental cache. Must be
  /// observationally identical (bit-for-bit RunStats) to the default; tests
  /// assert exactly that.
  bool mix_full_rebuild = false;
  /// SoA batch-scoring kernels on the rescore path (see ScoreKernelMode).
  ScoreKernelMode score_kernels = ScoreKernelMode::kExact;
};

/// Final disposition of one submitted task. kFailed is terminal like
/// kCompleted/kDropped: the task was killed by a site crash and settles at
/// its breach yield (Task::breach_yield).
enum class TaskOutcome {
  kRejected,
  kPending,
  kRunning,
  kCompleted,
  kDropped,
  kFailed,
};

struct TaskRecord {
  Task task;
  TaskOutcome outcome = TaskOutcome::kPending;
  /// Engine clock when the bid reached this site. Equals task.arrival for
  /// first-round submissions; later for broker retries/re-bids after an
  /// outage. Replay tooling (src/oracle) needs the actual submission
  /// instant, which is not recoverable from the task alone.
  SimTime submitted_at = 0.0;
  /// Quote from the admission projection at submission time.
  SimTime quoted_completion = 0.0;
  double quoted_yield = 0.0;
  double slack = 0.0;
  /// Filled when the task finishes (or is dropped).
  SimTime first_start = -1.0;
  SimTime completion = -1.0;
  double realized_yield = 0.0;
  int preemptions = 0;
};

/// Aggregate results of one run, computed on demand.
struct RunStats {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  /// Tasks killed by a site crash (CrashMode::kKill); their breach yield is
  /// included in total_yield.
  std::size_t failed = 0;
  /// Sum of realized yields (penalties included) over finished tasks.
  double total_yield = 0.0;
  /// total_yield / (last completion - first arrival); 0 for empty runs.
  double yield_rate = 0.0;
  SimTime first_arrival = 0.0;
  SimTime last_completion = 0.0;
  double utilization = 0.0;
  std::uint64_t preemptions = 0;
  std::uint64_t dispatches = 0;
  /// Crash/recovery bookkeeping (0 on fault-free runs).
  std::uint64_t crashes = 0;
  /// Running tasks suspended by a crash under CrashMode::kCheckpoint.
  std::uint64_t checkpoints = 0;
  /// Contract delay of completed tasks (Eq. 2): completion - (arrival +
  /// declared runtime), clamped at 0. This is the delay the value function
  /// charges for; it equals queueing delay (wait before service) only when
  /// runtime declarations are accurate. With under-declared runtimes it
  /// also counts the undeclared tail of the service time.
  Summary delay;
  Summary realized_yield; // per-task realized yield
};

class SiteScheduler {
 public:
  /// The engine outlives the scheduler; policy and admission are owned.
  SiteScheduler(SimEngine& engine, SchedulerConfig config,
                std::unique_ptr<SchedulingPolicy> policy,
                std::unique_ptr<AdmissionPolicy> admission);

  /// Submits one bid at the current simulated time (task.arrival must equal
  /// engine.now()). Returns the admission decision; accepted tasks are
  /// queued and a dispatch is triggered.
  AdmissionDecision submit(const Task& task);

  /// Schedules arrival events for an entire trace (tasks need not be
  /// sorted; arrivals must be >= engine.now()).
  void inject(std::span<const Task> trace);

  /// Bulk-enqueues tasks at the current simulated time, bypassing admission
  /// (every task is accepted, with no quote projection). Intended for trace
  /// replay and benchmarks that measure pure dispatch throughput; arrivals
  /// must be <= engine.now(). Triggers one coalesced dispatch.
  void preload(std::span<const Task> tasks);

  /// Evaluates a bid without committing it — the market layer's probe.
  /// Always declines while the site is down. The evaluation is memoised
  /// under (task, clock, state epoch) so that submit() — when the
  /// broker awards the bid it just polled — reuses it instead of ranking
  /// the backlog again. Any queue or outage change bumps the epoch, so a
  /// stale memo is re-evaluated.
  AdmissionDecision quote(const Task& task);

  // --- Crash semantics (fault injection) ---

  /// Takes the site down at the current instant. Every running task is
  /// either killed (kKill: terminal kFailed outcome, realized yield =
  /// Task::breach_yield at now, removed from the mix) or checkpointed
  /// (kCheckpoint: executed service preserved, task re-enters the pending
  /// queue and the mix stays consistent). Pending tasks survive either way
  /// and resume competing at recovery. Running tasks are drained in
  /// ascending task-id order (the internal layout is not canonical), so the
  /// returned kill list and checkpoint re-entry order are deterministic.
  /// Returns copies of the killed tasks so the market layer can breach
  /// their contracts and re-bid them.
  std::vector<Task> crash(CrashMode mode);

  /// Brings the site back up and triggers a dispatch over the surviving
  /// queue.
  void recover();

  bool down() const { return down_; }

  bool idle() const { return pending_.empty() && running_.empty(); }
  std::size_t pending_count() const { return pending_.size(); }
  std::size_t running_count() const { return running_.size(); }

  const SchedulingPolicy& policy() const { return *policy_; }
  const AdmissionPolicy& admission() const { return *admission_; }
  const SchedulerConfig& config() const { return config_; }

  /// Per-task records, in submission order (valid any time; final once the
  /// engine drains).
  const std::deque<TaskRecord>& records() const { return records_; }

  RunStats stats() const;

  /// Attaches opt-in telemetry (either pointer may be null). Trace events
  /// are labeled with `site` (the market passes the agent's id; standalone
  /// sites default to 0). Metric names are prefixed "site<id>/" when a
  /// registry is given. Detached — the default — every hook is one null
  /// test; attaching never alters scheduling behavior, only records it
  /// (the golden stats fingerprint pins the detached path bit-for-bit).
  void set_telemetry(TraceRecorder* trace, MetricsRegistry* metrics = nullptr,
                     SiteId site = 0);

 private:
  struct TaskState {
    Task task;
    TaskRecord* record = nullptr;
    double executed = 0.0;     // service consumed so far (excl. live segment)
    bool running = false;
    SimTime segment_start = 0; // start of the current run segment
    EventId completion_event = 0;
    /// Priority cached at enqueue time (RescorePolicy::kAtEnqueue only).
    double cached_score = 0.0;
    /// Policy score cache (see SchedulingPolicy::make_cache), valid while
    /// (now, rpt) match the stamps below. Lets one instant's burst of
    /// rescores (every quote rescans all pending) reuse the expensive
    /// per-task terms.
    ScoreCache score_cache;
    SimTime score_cache_now = -kInf;
    double score_cache_rpt = -1.0;
    /// This task's slot in the incremental mix tracker.
    MixTracker::Slot mix_slot = 0;
    /// scoring_remaining() latched when the task (re)enters the pending
    /// queue. Valid while pending: executed time is frozen, so the believed
    /// remaining runtime cannot change until the task starts.
    double queue_rpt = 0.0;
    /// Index of this task in pending_ (when !running) or running_ (when
    /// running) — lets both queues erase by swap-with-back in O(1).
    std::uint32_t queue_pos = 0;
  };

  /// One scored entry in the dispatch ranking. `slot` is a pending
  /// entry's index in pending_ (unused for running entries): ranking reads
  /// scores and writes rank_order_ by slot, never touching the TaskState.
  struct Scored {
    TaskState* ts;
    double score;
    std::uint32_t slot;
    bool running;
  };

  /// The last quote evaluated and the site state it was evaluated in.
  /// epoch 0 never matches (state_epoch_ starts at 1).
  struct QuoteMemo {
    Task task;
    SimTime now = 0.0;
    std::uint64_t epoch = 0;
    AdmissionDecision decision;
  };

  // Typed-event handlers. payload.target is the scheduler; for completions
  // payload.a is the task id, for arrivals it indexes injected_tasks_ (a
  // stable arena — deque slots never move, satisfying the payload lifetime
  // rule).
  static void handle_completion(SimEngine& engine, const EventPayload& payload);
  static void handle_dispatch(SimEngine& engine, const EventPayload& payload);
  static void handle_arrival(SimEngine& engine, const EventPayload& payload);

  /// Coalesces dispatch work: all arrivals and completions at one instant
  /// settle first (kArrival/kCompletion events), then a single kDispatch
  /// event ranks the whole mix. Without this, the first of a batch of
  /// simultaneous arrivals would grab a processor before its peers are even
  /// visible to the policy.
  void request_dispatch();
  void dispatch();
  /// kFresh selection: ranks pending (rank_pending) and running, then
  /// starts/preempts per select_from_rankings, in rank order.
  void dispatch_ranked(const MixView& mix);
  /// kAtEnqueue selection over enqueue-time scores.
  void dispatch_at_enqueue(const MixView& mix);
  /// Preempts and starts what select_from_rankings picks from the two
  /// rankings (each sorted by rank_less), preemptions first.
  void start_selected(std::span<const Scored> pending,
                      std::span<const Scored> running, std::size_t capacity);
  void start_task(TaskState& ts);
  void preempt_task(TaskState& ts);
  /// preempt_task's crash twin: suspends a running task without counting a
  /// scheduling preemption (the processor was lost, not reassigned).
  void checkpoint_task(TaskState& ts);
  void finish_task(TaskState& ts, bool dropped);
  /// Terminal crash outcome for a running task (CrashMode::kKill).
  void fail_task(TaskState& ts);
  void on_completion(TaskId id);
  /// Service consumed including the live segment of a running task.
  double executed_now(const TaskState& ts) const;
  /// True remaining service demand — what execution actually takes.
  double remaining(const TaskState& ts) const;
  /// Remaining time as the site believes it to be — what policies, quotes,
  /// and admission see. Differs from remaining() only when the client
  /// misdeclared its runtime.
  double scoring_remaining(const TaskState& ts) const;
  /// Score under the configured rescore policy: fresh from `mix` (with
  /// `rpt` the precomputed scoring_remaining), or the enqueue-time cache.
  double score_of(TaskState& ts, double rpt, const MixView& mix) const;
  /// Fresh policy score, routed through the per-task ScoreCache when the
  /// policy supports it (bit-identical; cross-checked in debug builds).
  double fresh_score(TaskState& ts, double rpt, const MixView& mix) const;
  /// Fresh scores for every pending task (rpt = queue_rpt) into
  /// batch_scores_ in slot (pending_) order, via the policy's batch entry
  /// points: one virtual call per scan. Element-wise bit-identical to
  /// fresh_score.
  void batch_fresh_scores(const MixView& mix);
  /// Kernel-path twin of batch_fresh_scores: refreshes the ScoreColumns
  /// cache columns for `mix.now` and runs the policy's columnwise priority
  /// kernel into batch_scores_ (slot order == pending_ order).
  /// Bit-identical to the AoS path under ScoreKernelMode::kExact;
  /// cross-checked in debug builds.
  void kernel_fresh_scores(const MixView& mix);
  /// Rebuilds stale cache columns (stamp_now != mix.now): one vector
  /// kernel_make_cache pass when everything is stale (the dispatch-at-a-
  /// new-instant common case, with a scalar fixup for piecewise slots),
  /// or a scalar per-slot pass when only a few slots missed (arrivals
  /// landing mid-instant between quotes).
  void kernel_refresh_columns(const MixView& mix);
  KernelVariant kernel_variant() const {
    return config_.score_kernels == ScoreKernelMode::kFast
               ? KernelVariant::kFast
               : KernelVariant::kExact;
  }
  /// (score desc, id asc) — the total order admission ranks pending by.
  static bool rank_less(const Scored& a, const Scored& b);

  /// Advances the mix tracker to now and returns the refreshed snapshot
  /// (honoring mix_full_rebuild; cross-checked against a from-scratch
  /// recomputation in debug builds).
  const MixView& mix_refresh();
  /// Like mix_refresh but with `candidate` appended — the quote-path view.
  const MixView& mix_refresh_with_candidate(const Task& candidate);

  /// Allocates (or recycles) backing storage for an accepted task.
  TaskState& acquire_state();
  /// O(1) queue bookkeeping via TaskState::queue_pos.
  void push_pending(TaskState& ts);
  void erase_pending(TaskState& ts);
  void push_running(TaskState& ts);
  void erase_running(TaskState& ts);
  /// Common tail of submit()/preload() for an accepted task.
  void enqueue_accepted(const Task& task, TaskRecord& record);

  /// Scores every pending task against `mix` and ranks them by rank_less
  /// into scored_, warm-started from rank_order_; writes the new order
  /// back to rank_order_. Shared by quotes and kFresh dispatch, so one
  /// site event ranks the backlog once.
  void rank_pending(const MixView& mix);
  /// quote(), optionally answered from a matching memo (submit's path).
  /// Either way it counts and traces the quote.
  AdmissionDecision quote_or_reuse(const Task& task, bool reuse);
  /// The admission evaluation behind quote(): refresh the candidate mix,
  /// rank, project.
  AdmissionDecision evaluate_quote(const Task& task);
  /// Invalidates the quote memo: the queues, the mix or the outage state
  /// changed.
  void bump_epoch() { ++state_epoch_; }

  /// Sorted pending view + processor free times for admission projection;
  /// fills the per-site scratch buffers. When the admission policy never
  /// reads the ranked suffix, only the prefix outranking `candidate` is
  /// sorted (bit-identical projection, O(n + k log k) instead of
  /// O(n log n)).
  AdmissionContext build_admission_context(const MixView& mix,
                                           const Task& candidate);

  SimEngine& engine_;
  SchedulerConfig config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::unique_ptr<AdmissionPolicy> admission_;
  ProcessorPool pool_;
  MixTracker mix_;

  std::deque<TaskState> states_;  // stable storage
  std::vector<TaskState*> free_states_;  // finished states ready for reuse
  std::unordered_map<TaskId, TaskState*> by_id_;
  std::vector<TaskState*> pending_;
  std::vector<TaskState*> running_;
  /// The pending slots in the priority order established by the last
  /// ranking — the warm start that makes the per-quote and per-dispatch
  /// sort an O(n) repair instead of O(n log n) from scratch. Slots, not
  /// TaskState pointers, so a ranking pass gathers from slot-indexed
  /// arrays instead of chasing every task in rank order.
  std::vector<std::uint32_t> rank_order_;
  std::deque<TaskRecord> records_;
  /// Arena for inject()ed trace tasks: arrival events carry an index into
  /// this deque instead of a task copy in a heap-allocated closure.
  std::deque<Task> injected_tasks_;

  // Scratch buffers reused across dispatches and quotes so the hot path
  // allocates nothing in steady state.
  std::vector<Scored> scored_;
  /// The running set scored and ranked for kFresh dispatch.
  std::vector<Scored> running_scored_;
  std::vector<const Task*> pending_sorted_;
  std::vector<double> pending_rpt_;
  std::vector<double> pending_scores_;
  std::vector<double> pending_decay_;
  std::vector<double> proc_free_;
  std::vector<PendingItem> projection_scratch_;
  std::vector<double> heap_scratch_;
  std::vector<TaskState*> droppable_;
  std::vector<TaskState*> to_start_;
  std::vector<TaskState*> to_preempt_;
  // Parallel arrays for the policy batch-scoring calls.
  std::vector<double> batch_scores_;
  std::vector<ScoreCache> batch_caches_;
  std::vector<const Task*> batch_tasks_;
  std::vector<double> batch_rpts_;
  std::vector<std::size_t> miss_idx_;
  std::vector<const Task*> miss_tasks_;
  std::vector<double> miss_rpts_;
  std::vector<ScoreCache> miss_caches_;
  /// SoA mirror of pending_ (slot i == pending_[i]; see score_columns.hpp),
  /// maintained only when kernel_enabled_.
  ScoreColumns columns_;

  // Telemetry (see set_telemetry). Metric instruments are resolved once at
  // attach time so hot-path hooks bump cached pointers, never do name
  // lookups.
  TraceRecorder* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  SiteId site_id_ = 0;
  Counter* m_quotes_ = nullptr;
  Counter* m_accepts_ = nullptr;
  Counter* m_rejects_ = nullptr;
  Counter* m_starts_ = nullptr;
  Counter* m_preempts_ = nullptr;
  Counter* m_completions_ = nullptr;
  Counter* m_drops_ = nullptr;
  Counter* m_fails_ = nullptr;
  Counter* m_checkpoints_ = nullptr;
  Counter* m_dispatch_count_ = nullptr;
  Gauge* m_pending_depth_ = nullptr;
  Histogram* m_slack_ = nullptr;
  Histogram* m_delay_ = nullptr;
  Histogram* m_ryield_ = nullptr;

  QuoteMemo quote_memo_;
  std::uint64_t state_epoch_ = 1;

  bool dispatch_pending_ = false;
  /// policy_->cacheable(), latched at construction.
  bool policy_cacheable_ = false;
  /// score_kernels != kOff && policy kernelizable+cacheable, latched at
  /// construction: whether batch rescores run the SoA kernel path.
  bool kernel_enabled_ = false;
  /// admission_->reads_ranked_suffix(), latched at construction.
  bool admission_reads_suffix_ = true;
  /// Any accepted task with width > 1 switches dispatch to the
  /// gang-scheduling/backfill path.
  bool any_wide_ = false;
  /// Site outage state: while down, quotes decline, dispatches are inert,
  /// and the pool is offline.
  bool down_ = false;
  std::uint64_t preemptions_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t checkpoints_ = 0;
  bool saw_arrival_ = false;
  SimTime first_arrival_ = 0.0;
  SimTime last_completion_ = 0.0;
};

}  // namespace mbts

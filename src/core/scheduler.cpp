#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "core/dispatch_select.hpp"
#include "core/rank_sort.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace mbts {

namespace {
// Running tasks whose remaining time has reached zero are about to see their
// completion event; they must never be preempted or rescored.
constexpr double kDoneEpsilon = 1e-9;
}  // namespace

SiteScheduler::SiteScheduler(SimEngine& engine, SchedulerConfig config,
                             std::unique_ptr<SchedulingPolicy> policy,
                             std::unique_ptr<AdmissionPolicy> admission)
    : engine_(engine),
      config_(config),
      policy_(std::move(policy)),
      admission_(std::move(admission)),
      pool_(config.processors) {
  MBTS_CHECK(policy_ != nullptr);
  MBTS_CHECK(admission_ != nullptr);
  MBTS_CHECK_MSG(config_.discount_rate >= 0.0,
                 "discount rate must be non-negative");
  mix_.set_discount_rate(config_.discount_rate);
  policy_cacheable_ = policy_->cacheable();
  kernel_enabled_ = policy_cacheable_ && policy_->kernelizable() &&
                    config_.score_kernels != ScoreKernelMode::kOff;
  admission_reads_suffix_ = admission_->reads_ranked_suffix();
  engine_.register_handler(EventKind::kTaskCompletion,
                           &SiteScheduler::handle_completion);
  engine_.register_handler(EventKind::kDispatch,
                           &SiteScheduler::handle_dispatch);
  engine_.register_handler(EventKind::kTaskArrival,
                           &SiteScheduler::handle_arrival);
}

void SiteScheduler::handle_completion(SimEngine& engine,
                                      const EventPayload& payload) {
  (void)engine;
  static_cast<SiteScheduler*>(payload.target)
      ->on_completion(static_cast<TaskId>(payload.a));
}

void SiteScheduler::handle_dispatch(SimEngine& engine,
                                    const EventPayload& payload) {
  (void)engine;
  auto& self = *static_cast<SiteScheduler*>(payload.target);
  self.dispatch_pending_ = false;
  self.dispatch();
}

void SiteScheduler::handle_arrival(SimEngine& engine,
                                   const EventPayload& payload) {
  (void)engine;
  auto& self = *static_cast<SiteScheduler*>(payload.target);
  self.submit(self.injected_tasks_[static_cast<std::size_t>(payload.a)]);
}

void SiteScheduler::set_telemetry(TraceRecorder* trace,
                                  MetricsRegistry* metrics, SiteId site) {
  trace_ = trace;
  metrics_ = metrics;
  site_id_ = site;
  if (metrics_ == nullptr) return;
  MetricsScope scope(*metrics_, "site" + std::to_string(site));
  m_quotes_ = &scope.counter("quotes");
  m_accepts_ = &scope.counter("accepts");
  m_rejects_ = &scope.counter("rejects");
  m_starts_ = &scope.counter("starts");
  m_preempts_ = &scope.counter("preemptions");
  m_completions_ = &scope.counter("completions");
  m_drops_ = &scope.counter("drops");
  m_fails_ = &scope.counter("failures");
  m_checkpoints_ = &scope.counter("checkpoints");
  m_dispatch_count_ = &scope.counter("dispatches");
  m_pending_depth_ = &scope.gauge("pending_depth");
  // Histogram shapes sized for the bundled workloads (mean runtime ~100
  // units); out-of-range samples clamp to the end bins, so outliers are
  // visible without being lost.
  m_slack_ = &scope.histogram("accept_slack", -1000.0, 4000.0, 50);
  m_delay_ = &scope.histogram("delay", 0.0, 5000.0, 50);
  m_ryield_ = &scope.histogram("realized_yield", -2000.0, 2000.0, 50);
}

double SiteScheduler::executed_now(const TaskState& ts) const {
  if (!ts.running) return ts.executed;
  return ts.executed + (engine_.now() - ts.segment_start);
}

double SiteScheduler::remaining(const TaskState& ts) const {
  return ts.task.runtime - executed_now(ts);
}

double SiteScheduler::scoring_remaining(const TaskState& ts) const {
  const double declared = ts.task.estimate();
  const double left = declared - executed_now(ts);
  // An exceeded estimate pins the belief at a small remainder rather than
  // zero: the site thinks the task is perpetually "almost done".
  const double floor = config_.exceeded_estimate_fraction * declared;
  return std::max(left, std::max(floor, 1e-9));
}

double SiteScheduler::fresh_score(TaskState& ts, double rpt,
                                  const MixView& mix) const {
  if (!policy_cacheable_) return policy_->priority(ts.task, rpt, mix);
  if (ts.score_cache_now != mix.now || ts.score_cache_rpt != rpt) {
    ts.score_cache = policy_->make_cache(ts.task, rpt, mix);
    ts.score_cache_now = mix.now;
    ts.score_cache_rpt = rpt;
  }
  const double score =
      policy_->priority_from_cache(ts.score_cache, ts.task, rpt, mix);
  MBTS_DCHECK(score == policy_->priority(ts.task, rpt, mix));
  return score;
}

double SiteScheduler::score_of(TaskState& ts, double rpt,
                               const MixView& mix) const {
  if (config_.rescore == RescorePolicy::kAtEnqueue) return ts.cached_score;
  return fresh_score(ts, rpt, mix);
}

void SiteScheduler::batch_fresh_scores(const MixView& mix) {
  MBTS_PROF_SCOPE("scheduler/rescore");
  const std::span<TaskState* const> tasks = pending_;
  const std::size_t n = tasks.size();
  batch_scores_.resize(n);
  if (!policy_cacheable_) {
    for (std::size_t i = 0; i < n; ++i)
      batch_scores_[i] =
          policy_->priority(tasks[i]->task, tasks[i]->queue_rpt, mix);
    return;
  }
  if (kernel_enabled_) {
    kernel_fresh_scores(mix);
    return;
  }
  batch_caches_.resize(n);
  batch_tasks_.resize(n);
  batch_rpts_.resize(n);
  std::size_t misses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskState& ts = *tasks[i];
    batch_tasks_[i] = &ts.task;
    batch_rpts_[i] = ts.queue_rpt;
    misses += static_cast<std::size_t>(ts.score_cache_now != mix.now ||
                                       ts.score_cache_rpt != ts.queue_rpt);
  }
  if (misses == 0) {
    // Quote burst at one instant: every cache is warm.
    for (std::size_t i = 0; i < n; ++i) batch_caches_[i] = tasks[i]->score_cache;
  } else if (misses == n) {
    // First scan at a new instant: rebuild everything in one call.
    policy_->batch_make_cache(batch_tasks_.data(), batch_rpts_.data(), n, mix,
                              batch_caches_.data());
    for (std::size_t i = 0; i < n; ++i) {
      TaskState& ts = *tasks[i];
      ts.score_cache = batch_caches_[i];
      ts.score_cache_now = mix.now;
      ts.score_cache_rpt = ts.queue_rpt;
    }
  } else {
    miss_idx_.clear();
    miss_tasks_.clear();
    miss_rpts_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      TaskState& ts = *tasks[i];
      if (ts.score_cache_now != mix.now ||
          ts.score_cache_rpt != ts.queue_rpt) {
        miss_idx_.push_back(i);
        miss_tasks_.push_back(&ts.task);
        miss_rpts_.push_back(ts.queue_rpt);
      } else {
        batch_caches_[i] = ts.score_cache;
      }
    }
    miss_caches_.resize(miss_idx_.size());
    policy_->batch_make_cache(miss_tasks_.data(), miss_rpts_.data(),
                              miss_idx_.size(), mix, miss_caches_.data());
    for (std::size_t j = 0; j < miss_idx_.size(); ++j) {
      TaskState& ts = *tasks[miss_idx_[j]];
      ts.score_cache = miss_caches_[j];
      ts.score_cache_now = mix.now;
      ts.score_cache_rpt = ts.queue_rpt;
      batch_caches_[miss_idx_[j]] = miss_caches_[j];
    }
  }
  policy_->batch_priority_from_cache(batch_caches_.data(),
                                     batch_tasks_.data(), batch_rpts_.data(),
                                     n, mix, batch_scores_.data());
#ifndef NDEBUG
  for (std::size_t i = 0; i < n; ++i)
    MBTS_DCHECK(batch_scores_[i] ==
                policy_->priority(tasks[i]->task, tasks[i]->queue_rpt, mix));
#endif
}

void SiteScheduler::kernel_refresh_columns(const MixView& mix) {
  const std::size_t m = columns_.size();
  double* stamp = columns_.stamp_now();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < m; ++i)
    hits += static_cast<std::size_t>(stamp[i] == mix.now);
  if (hits == m) return;  // quote burst at one instant: all columns warm
  const ScoreColumnsView view = columns_.view();
  double* a = columns_.cache_a();
  double* b = columns_.cache_b();
  double* c = columns_.cache_c();
  if (hits == 0) {
    // First scan at a new instant: one vector pass over every slot, then
    // overwrite the piecewise slots the flat columns cannot describe with
    // the scalar make_cache result (exact in every variant).
    policy_->kernel_make_cache(view, mix, kernel_variant(), a, b, c);
    if (columns_.nonlinear_count() > 0) {
      for (std::size_t i = 0; i < m; ++i) {
        if (view.linear[i]) continue;
        const ScoreCache cache =
            policy_->make_cache(*view.tasks[i], view.rpt[i], mix);
        a[i] = cache.a;
        b[i] = cache.b;
        c[i] = cache.c;
      }
    }
    std::fill(stamp, stamp + m, mix.now);
  } else {
    // Mid-instant arrivals: only the freshly-pushed slots are stale.
    // Scalar make_cache per miss — exact, so under kFast a slot scored at
    // a fresh instant and one refreshed here may differ by the documented
    // ulp tolerance, deterministically (DESIGN.md §6).
    for (std::size_t i = 0; i < m; ++i) {
      if (stamp[i] == mix.now) continue;
      const ScoreCache cache =
          policy_->make_cache(*view.tasks[i], view.rpt[i], mix);
      a[i] = cache.a;
      b[i] = cache.b;
      c[i] = cache.c;
      stamp[i] = mix.now;
    }
  }
}

void SiteScheduler::kernel_fresh_scores(const MixView& mix) {
  MBTS_PROF_SCOPE("scheduler/kernel_rescore");
  MBTS_DCHECK(columns_.size() == pending_.size() &&
              batch_scores_.size() == pending_.size());
  kernel_refresh_columns(mix);
  policy_->kernel_priority(columns_.view(), columns_.cache_a(),
                           columns_.cache_b(), columns_.cache_c(), mix,
                           kernel_variant(), batch_scores_.data());
#ifndef NDEBUG
  const std::span<TaskState* const> tasks = pending_;
  const std::size_t n = tasks.size();
  if (config_.score_kernels == ScoreKernelMode::kExact) {
    // Bit-identity cross-check against the scalar path. Exhaustive up to
    // 4096 pending; beyond that a strided sample keeps debug builds of the
    // 100k-pending fingerprint/bench scenarios from going quadratic (the
    // exhaustive check still runs in every normal-sized test).
    const std::size_t stride = n <= 4096 ? 1 : 97;
    for (std::size_t i = 0; i < n; i += stride)
      MBTS_DCHECK(batch_scores_[i] == policy_->priority(
                                          tasks[i]->task,
                                          tasks[i]->queue_rpt, mix));
    if (n > 0)
      MBTS_DCHECK(batch_scores_[n - 1] == policy_->priority(
                                              tasks[n - 1]->task,
                                              tasks[n - 1]->queue_rpt, mix));
  }
#endif
}

bool SiteScheduler::rank_less(const Scored& a, const Scored& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.ts->task.id < b.ts->task.id;
}

const MixView& SiteScheduler::mix_refresh() {
  const SimTime now = engine_.now();
  if (config_.mix_full_rebuild) mix_.recompute_all(now);
  const MixView& view = mix_.refresh(now);
  MBTS_DCHECK(mix_.consistent_with_rebuild(now));
  return view;
}

const MixView& SiteScheduler::mix_refresh_with_candidate(
    const Task& candidate) {
  const SimTime now = engine_.now();
  if (config_.mix_full_rebuild) mix_.recompute_all(now);
  const MixView& view = mix_.refresh_with_candidate(now, candidate);
  MBTS_DCHECK(mix_.consistent_with_rebuild(now));
  return view;
}

SiteScheduler::TaskState& SiteScheduler::acquire_state() {
  if (!free_states_.empty()) {
    TaskState& ts = *free_states_.back();
    free_states_.pop_back();
    // Field-wise reset that keeps ts.task alive: the caller copy-assigns the
    // new task into it next, reusing the old value-function capacity. A
    // `ts = TaskState{}` here would reallocate those buffers on every
    // recycle (the default Task carries a one-segment value function).
    ts.record = nullptr;
    ts.executed = 0.0;
    ts.running = false;
    ts.segment_start = 0;
    ts.completion_event = 0;
    ts.cached_score = 0.0;
    ts.score_cache = ScoreCache{};
    ts.score_cache_now = -kInf;
    ts.score_cache_rpt = -1.0;
    ts.mix_slot = 0;
    ts.queue_rpt = 0.0;
    ts.queue_pos = 0;
    return ts;
  }
  states_.push_back(TaskState{});
  return states_.back();
}

void SiteScheduler::push_pending(TaskState& ts) {
  bump_epoch();
  ts.queue_pos = static_cast<std::uint32_t>(pending_.size());
  pending_.push_back(&ts);
  // The SoA mirror gets the same slot: queue_rpt is already latched by
  // every caller, and ts.task is stable storage (states_ is a deque).
  if (kernel_enabled_) columns_.push(ts.task, ts.queue_rpt);
  // New arrivals join the rank cache at the back; the next ranking's
  // repair pass walks them into place.
  rank_order_.push_back(ts.queue_pos);
}

void SiteScheduler::erase_pending(TaskState& ts) {
  bump_epoch();
  const std::uint32_t pos = ts.queue_pos;
  MBTS_DCHECK(pos < pending_.size() && pending_[pos] == &ts);
  pending_[pos] = pending_.back();
  pending_[pos]->queue_pos = pos;
  pending_.pop_back();
  // Same swap-with-back on the SoA mirror keeps slot i == pending_[i].
  if (kernel_enabled_) columns_.swap_erase(pos);
  // The rank cache names slots: drop `pos`, and rename the last slot,
  // whose task the swap just moved into `pos`. One pass keeps the order.
  const auto last = static_cast<std::uint32_t>(pending_.size());
  std::size_t out = 0;
  for (const std::uint32_t slot : rank_order_) {
    if (slot == pos) continue;
    rank_order_[out++] = slot == last ? pos : slot;
  }
  MBTS_DCHECK(out + 1 == rank_order_.size());
  rank_order_.pop_back();
}

void SiteScheduler::push_running(TaskState& ts) {
  bump_epoch();
  ts.queue_pos = static_cast<std::uint32_t>(running_.size());
  running_.push_back(&ts);
}

void SiteScheduler::erase_running(TaskState& ts) {
  bump_epoch();
  const std::uint32_t pos = ts.queue_pos;
  MBTS_DCHECK(pos < running_.size() && running_[pos] == &ts);
  running_[pos] = running_.back();
  running_[pos]->queue_pos = pos;
  running_.pop_back();
}

void SiteScheduler::rank_pending(const MixView& mix) {
  MBTS_PROF_SCOPE("scheduler/rank");
  // Score every pending task once — one batched policy call — ranked by
  // (score desc, id asc). The scan walks rank_order_ (the order the
  // previous quote or dispatch established), so the sort is normally a
  // cheap repair pass. rank_less is a total order, so the sorted
  // permutation is unique however it is reached (core/rank_sort.hpp).
  MBTS_DCHECK(rank_order_.size() == pending_.size());
  batch_fresh_scores(mix);
  scored_.clear();
  for (const std::uint32_t slot : rank_order_) {
    MBTS_DCHECK(pending_[slot]->queue_rpt ==
                scoring_remaining(*pending_[slot]));
    scored_.push_back({pending_[slot], batch_scores_[slot], slot, false});
  }
  adaptive_sort(scored_, rank_less);
  // The warm start is a cost optimization only — the admission projection,
  // dispatch selection and the rank_order_ cache fed back below require a
  // fully sorted ranking whichever path the adaptive sort took.
  MBTS_DCHECK(std::is_sorted(scored_.begin(), scored_.end(), rank_less));
  for (std::size_t i = 0; i < scored_.size(); ++i)
    rank_order_[i] = scored_[i].slot;
}

AdmissionContext SiteScheduler::build_admission_context(
    const MixView& mix, const Task& candidate) {
  // The scores and per-task decay rates ride along in the context so the
  // projection never rescans the queue.
  rank_pending(mix);

  std::size_t fill = scored_.size();
  if (!admission_reads_suffix_) {
    // The projection only schedules the tasks ranked ahead of the candidate
    // (ties go ahead: they arrived earlier), so when the admission policy
    // never looks behind it the context spans can stop at the candidate's
    // rank: project_candidate then slots it at the end of the span, which
    // *is* its queue position in the full order.
    const double cand_priority =
        policy_->priority(candidate, candidate.estimate(), mix);
    const auto mid = std::partition_point(
        scored_.begin(), scored_.end(),
        [&](const Scored& s) { return s.score >= cand_priority; });
    fill = static_cast<std::size_t>(mid - scored_.begin());
  }

  pending_sorted_.clear();
  pending_rpt_.clear();
  pending_scores_.clear();
  pending_decay_.clear();
  for (std::size_t i = 0; i < fill; ++i) {
    const Scored& s = scored_[i];
    pending_sorted_.push_back(&s.ts->task);
    pending_rpt_.push_back(s.ts->queue_rpt);
    pending_scores_.push_back(s.score);
  }
  // Only the Eq. 8 cost sum reads per-task decay, and it runs over the
  // ranked suffix — skip the fill when the policy never gets there.
  if (admission_reads_suffix_)
    for (const Scored& s : scored_)
      pending_decay_.push_back(mix_.decay_of(s.ts->mix_slot));

  const SimTime now = engine_.now();
  proc_free_.assign(pool_.capacity(), now);
  std::size_t slot = 0;
  for (const TaskState* ts : running_) {
    // The site projects with what it believes, i.e. declared runtimes. A
    // width-w task occupies w processor slots until its believed finish.
    const double free_at = now + std::max(0.0, scoring_remaining(*ts));
    for (std::size_t w = 0; w < ts->task.width; ++w) {
      MBTS_DCHECK(slot < proc_free_.size());
      proc_free_[slot++] = free_at;
    }
  }

  AdmissionContext ctx;
  ctx.now = now;
  ctx.mix = &mix;
  ctx.policy = policy_.get();
  ctx.proc_free = proc_free_;
  ctx.pending_sorted = pending_sorted_;
  ctx.pending_rpt = pending_rpt_;
  ctx.pending_scores = pending_scores_;
  ctx.pending_decay = pending_decay_;
  ctx.projection_scratch = &projection_scratch_;
  ctx.heap_scratch = &heap_scratch_;
  return ctx;
}

AdmissionDecision SiteScheduler::evaluate_quote(const Task& task) {
  const MixView& mix = mix_refresh_with_candidate(task);
  const AdmissionContext ctx = build_admission_context(mix, task);
  MBTS_PROF_SCOPE("admission/evaluate");
  return admission_->evaluate(task, ctx);
}

AdmissionDecision SiteScheduler::quote(const Task& task) {
  return quote_or_reuse(task, /*reuse=*/false);
}

AdmissionDecision SiteScheduler::quote_or_reuse(const Task& task,
                                                bool reuse) {
  MBTS_PROF_SCOPE("scheduler/quote");
  const std::string problem = validate_task(task);
  MBTS_CHECK_MSG(problem.empty(), "invalid task: " + problem);
  // A down site quotes nothing: the bid is declined without touching the
  // (frozen) candidate schedule.
  if (down_) return AdmissionDecision{};
  // A quote is a pure function of the task, the clock and the site state,
  // and every state change bumps state_epoch_; so a memo that matches all
  // three is the evaluation itself (re-derived and compared in debug
  // builds). The whole bid is compared, not just its id, so a caller that
  // reuses an id for a different bid is priced afresh.
  const SimTime now = engine_.now();
  AdmissionDecision decision;
  if (reuse && quote_memo_.epoch == state_epoch_ && quote_memo_.now == now &&
      quote_memo_.task == task) {
    decision = quote_memo_.decision;
    MBTS_DCHECK(decision == evaluate_quote(task));
  } else {
    decision = evaluate_quote(task);
    // Field-wise, so the stored task's value-function segments reuse their
    // capacity instead of allocating per quote.
    quote_memo_.task = task;
    quote_memo_.now = now;
    quote_memo_.epoch = state_epoch_;
    quote_memo_.decision = decision;
  }
  if (m_quotes_ != nullptr) m_quotes_->add();
  if (trace_ != nullptr)
    trace_->record(engine_.now(),
                   decision.accept ? TraceEventKind::kQuoteAccept
                                   : TraceEventKind::kQuoteReject,
                   site_id_, task.id, decision.slack,
                   decision.expected_yield);
  return decision;
}

void SiteScheduler::enqueue_accepted(const Task& task, TaskRecord& record) {
  if (task.width > 1) any_wide_ = true;
  TaskState& ts = acquire_state();
  ts.task = task;
  ts.record = &record;
  by_id_[task.id] = &ts;
  // The mix entry must reference the stored task (it outlives this call).
  ts.mix_slot = mix_.add(ts.task, engine_.now());
  ts.queue_rpt = scoring_remaining(ts);
  if (config_.rescore == RescorePolicy::kAtEnqueue) {
    // Enqueue-time priority is scored against the mix including the task
    // itself — the same mix a fresh rescore would see right now.
    ts.cached_score = policy_->priority(ts.task, ts.queue_rpt, mix_refresh());
  }
  push_pending(ts);
  request_dispatch();
}

AdmissionDecision SiteScheduler::submit(const Task& task) {
  MBTS_CHECK_MSG(!by_id_.count(task.id),
                 "duplicate task id submitted: " + task.to_string());
  MBTS_CHECK_MSG(task.width <= pool_.capacity(),
                 "task width exceeds site capacity: " + task.to_string());
  // A broker award follows its poll at the same instant and state, so the
  // poll's evaluation is reused unless the site changed since.
  const AdmissionDecision decision = quote_or_reuse(task, /*reuse=*/true);

  if (!saw_arrival_ || task.arrival < first_arrival_)
    first_arrival_ = task.arrival;
  saw_arrival_ = true;

  records_.push_back(TaskRecord{});
  TaskRecord& record = records_.back();
  record.task = task;
  record.submitted_at = engine_.now();
  record.quoted_completion = decision.expected_completion;
  record.quoted_yield = decision.expected_yield;
  record.slack = decision.slack;

  if (trace_ != nullptr) {
    trace_->record(engine_.now(), TraceEventKind::kSubmit, site_id_, task.id,
                   task.arrival);
    trace_->record(engine_.now(),
                   decision.accept ? TraceEventKind::kAdmitAccept
                                   : TraceEventKind::kAdmitReject,
                   site_id_, task.id, decision.slack,
                   decision.expected_completion);
  }

  if (!decision.accept) {
    if (m_rejects_ != nullptr) m_rejects_->add();
    record.outcome = TaskOutcome::kRejected;
    return decision;
  }

  if (m_accepts_ != nullptr) {
    m_accepts_->add();
    m_slack_->add(decision.slack);
  }
  enqueue_accepted(task, record);
  return decision;
}

void SiteScheduler::preload(std::span<const Task> tasks) {
  for (const Task& task : tasks) {
    MBTS_CHECK_MSG(!by_id_.count(task.id),
                   "duplicate task id preloaded: " + task.to_string());
    MBTS_CHECK_MSG(task.width <= pool_.capacity(),
                   "task width exceeds site capacity: " + task.to_string());
    MBTS_CHECK_MSG(task.arrival <= engine_.now(),
                   "preloaded task arrives in the future: " +
                       task.to_string());
    const std::string problem = validate_task(task);
    MBTS_CHECK_MSG(problem.empty(), "invalid task: " + problem);

    if (!saw_arrival_ || task.arrival < first_arrival_)
      first_arrival_ = task.arrival;
    saw_arrival_ = true;

    records_.push_back(TaskRecord{});
    TaskRecord& record = records_.back();
    record.task = task;
    record.submitted_at = engine_.now();
    record.slack = kInf;
    if (trace_ != nullptr)
      trace_->record(engine_.now(), TraceEventKind::kSubmit, site_id_,
                     task.id, task.arrival);
    if (m_accepts_ != nullptr) m_accepts_->add();
    enqueue_accepted(task, record);
  }
}

void SiteScheduler::request_dispatch() {
  if (dispatch_pending_ || down_) return;
  dispatch_pending_ = true;
  EventPayload payload;
  payload.target = this;
  engine_.schedule_event_after(0.0, EventPriority::kDispatch,
                               EventKind::kDispatch, payload);
}

void SiteScheduler::inject(std::span<const Task> trace) {
  for (const Task& task : trace) {
    EventPayload payload;
    payload.target = this;
    payload.a = injected_tasks_.size();
    injected_tasks_.push_back(task);
    engine_.schedule_event(task.arrival, EventPriority::kArrival,
                           EventKind::kTaskArrival, payload);
  }
}

void SiteScheduler::start_task(TaskState& ts) {
  MBTS_DCHECK(!ts.running);
  pool_.acquire(engine_.now(), ts.task.width);
  ts.running = true;
  ts.segment_start = engine_.now();
  if (ts.record->first_start < 0.0) ts.record->first_start = engine_.now();
  EventPayload payload;
  payload.target = this;
  payload.a = ts.task.id;
  ts.completion_event =
      engine_.schedule_event_after(remaining(ts), EventPriority::kCompletion,
                                   EventKind::kTaskCompletion, payload);
  erase_pending(ts);
  push_running(ts);
  if (ts.record->outcome == TaskOutcome::kPending)
    ts.record->outcome = TaskOutcome::kRunning;
  if (m_starts_ != nullptr) m_starts_->add();
  if (trace_ != nullptr)
    trace_->record(engine_.now(), TraceEventKind::kStart, site_id_,
                   ts.task.id, ts.executed);
}

void SiteScheduler::preempt_task(TaskState& ts) {
  MBTS_DCHECK(ts.running);
  MBTS_CHECK_MSG(remaining(ts) > kDoneEpsilon, "preempting a finished task");
  engine_.cancel(ts.completion_event);
  pool_.release(engine_.now(), ts.task.width);
  ts.executed += engine_.now() - ts.segment_start;
  ts.running = false;
  ts.queue_rpt = scoring_remaining(ts);
  if (config_.rescore == RescorePolicy::kAtEnqueue) {
    // Re-entering the queue is an enqueue: refresh the cached priority
    // against the current mix snapshot.
    ts.cached_score = policy_->priority(ts.task, ts.queue_rpt, mix_.view());
  }
  ++preemptions_;
  ++ts.record->preemptions;
  ts.record->outcome = TaskOutcome::kPending;
  erase_running(ts);
  push_pending(ts);
  if (m_preempts_ != nullptr) m_preempts_->add();
  if (trace_ != nullptr)
    trace_->record(engine_.now(), TraceEventKind::kPreempt, site_id_,
                   ts.task.id, ts.executed);
}

void SiteScheduler::checkpoint_task(TaskState& ts) {
  MBTS_DCHECK(ts.running);
  engine_.cancel(ts.completion_event);
  pool_.release(engine_.now(), ts.task.width);
  ts.executed += engine_.now() - ts.segment_start;
  ts.running = false;
  ts.queue_rpt = scoring_remaining(ts);
  if (config_.rescore == RescorePolicy::kAtEnqueue) {
    // Re-entering the queue is an enqueue, as in preempt_task.
    ts.cached_score = policy_->priority(ts.task, ts.queue_rpt, mix_.view());
  }
  ++checkpoints_;
  ts.record->outcome = TaskOutcome::kPending;
  erase_running(ts);
  push_pending(ts);
  if (m_checkpoints_ != nullptr) m_checkpoints_->add();
  if (trace_ != nullptr)
    trace_->record(engine_.now(), TraceEventKind::kCheckpoint, site_id_,
                   ts.task.id, ts.executed);
}

void SiteScheduler::fail_task(TaskState& ts) {
  MBTS_DCHECK(ts.running);
  const SimTime now = engine_.now();
  engine_.cancel(ts.completion_event);
  pool_.release(now, ts.task.width);
  TaskRecord& record = *ts.record;
  record.completion = now;
  record.realized_yield = ts.task.breach_yield(now);
  record.outcome = TaskOutcome::kFailed;
  if (m_fails_ != nullptr) m_fails_->add();
  if (trace_ != nullptr)
    trace_->record(now, TraceEventKind::kTaskFail, site_id_, ts.task.id,
                   record.realized_yield, ts.executed);
  erase_running(ts);
  mix_.remove(ts.mix_slot);
  by_id_.erase(ts.task.id);
  free_states_.push_back(&ts);
}

std::vector<Task> SiteScheduler::crash(CrashMode mode) {
  MBTS_CHECK_MSG(!down_, "crash on a site that is already down");
  down_ = true;
  bump_epoch();
  ++crashes_;
  if (trace_ != nullptr)
    trace_->record(engine_.now(), TraceEventKind::kSiteCrash, site_id_,
                   kInvalidTask, static_cast<double>(running_.size()),
                   static_cast<double>(mode == CrashMode::kKill ? 0 : 1));
  std::vector<Task> killed;
  // Drain running tasks in ascending task-id order. The running_ vector's
  // layout depends on start order and swap-with-back erases (and, under
  // kAtEnqueue, on nth_element's unspecified permutation), so a layout-order
  // drain would make the kill/requeue order (and thus the killed
  // list, re-bid order, and checkpoint re-entry order) compiler-dependent;
  // sorting by id pins it. Copy the pointers first: both exits erase from
  // running_ by swap-with-back.
  std::vector<TaskState*> victims(running_.begin(), running_.end());
  std::sort(victims.begin(), victims.end(),
            [](const TaskState* a, const TaskState* b) {
              return a->task.id < b->task.id;
            });
  for (TaskState* ts : victims) {
    if (mode == CrashMode::kKill) {
      killed.push_back(ts->task);
      fail_task(*ts);
    } else {
      checkpoint_task(*ts);
    }
  }
  pool_.begin_outage(engine_.now());
  return killed;
}

void SiteScheduler::recover() {
  MBTS_CHECK_MSG(down_, "recover on a site that is up");
  down_ = false;
  bump_epoch();
  if (trace_ != nullptr)
    trace_->record(engine_.now(), TraceEventKind::kSiteRecover, site_id_,
                   kInvalidTask, static_cast<double>(pending_.size()));
  pool_.end_outage(engine_.now());
  if (!pending_.empty()) request_dispatch();
}

void SiteScheduler::finish_task(TaskState& ts, bool dropped) {
  const SimTime now = engine_.now();
  TaskRecord& record = *ts.record;
  record.completion = now;
  if (dropped) {
    MBTS_DCHECK(!ts.running);
    // A dropped task settles at its value-function floor (0 under the
    // Millennium convention; -bound in general).
    record.realized_yield = -ts.task.value.penalty_bound();
    record.outcome = TaskOutcome::kDropped;
    if (m_drops_ != nullptr) m_drops_->add();
    if (trace_ != nullptr)
      trace_->record(now, TraceEventKind::kDrop, site_id_, ts.task.id,
                     record.realized_yield);
    erase_pending(ts);
  } else {
    MBTS_DCHECK(ts.running);
    pool_.release(now, ts.task.width);
    record.realized_yield = ts.task.yield_at_completion(now);
    record.outcome = TaskOutcome::kCompleted;
    const double delay = ts.task.delay_at_completion(now);
    if (m_completions_ != nullptr) {
      m_completions_->add();
      m_delay_->add(delay);
      m_ryield_->add(record.realized_yield);
    }
    if (trace_ != nullptr)
      trace_->record(now, TraceEventKind::kComplete, site_id_, ts.task.id,
                     record.realized_yield, delay);
    erase_running(ts);
  }
  last_completion_ = std::max(last_completion_, now);
  mix_.remove(ts.mix_slot);
  by_id_.erase(ts.task.id);
  free_states_.push_back(&ts);
}

void SiteScheduler::on_completion(TaskId id) {
  auto it = by_id_.find(id);
  MBTS_CHECK_MSG(it != by_id_.end(), "completion for unknown task");
  finish_task(*it->second, /*dropped=*/false);
  request_dispatch();
}

void SiteScheduler::dispatch() {
  // A dispatch event that was already queued when the site crashed fires
  // into a down site: nothing to do until recovery re-requests one.
  if (down_) return;
  MBTS_PROF_SCOPE("scheduler/dispatch");
  ++dispatches_;
  const SimTime now = engine_.now();
  if (m_dispatch_count_ != nullptr) {
    m_dispatch_count_->add();
    m_pending_depth_->set(static_cast<double>(pending_.size()));
  }
  if (trace_ != nullptr)
    trace_->record(now, TraceEventKind::kDispatch, site_id_, kInvalidTask,
                   static_cast<double>(pending_.size()),
                   static_cast<double>(running_.size()));

  if (config_.drop_expired) {
    // Millennium extension: a task whose yield has decayed all the way to
    // its penalty floor can be discarded with no further cost — completing
    // it later would earn exactly the floor anyway. (Merely "expired" is
    // not enough: a zero-decay or stabilized piecewise function may be
    // pinned above its floor, where completion still beats discarding.)
    droppable_.clear();
    for (TaskState* ts : pending_) {
      const ValueFunction& vf = ts->task.value;
      if (!vf.bounded()) continue;
      const double delay =
          ts->task.delay_at_completion(now + remaining(*ts));
      if (vf.expired_at_delay(delay) &&
          vf.yield_at_delay(delay) <= -vf.penalty_bound())
        droppable_.push_back(ts);
    }
    for (TaskState* ts : droppable_) finish_task(*ts, /*dropped=*/true);
  }

  if (pending_.empty()) return;

  const MixView& mix = mix_refresh();
  if (config_.rescore == RescorePolicy::kFresh)
    dispatch_ranked(mix);
  else
    dispatch_at_enqueue(mix);
}

void SiteScheduler::dispatch_ranked(const MixView& mix) {
  // The pending ranking is the one quotes maintain: warm-started from the
  // last quote's or dispatch's order, it is usually a repair pass away
  // from sorted, and writing it back keeps it warm for the next one.
  rank_pending(mix);
  running_scored_.clear();
  if (config_.preemption) {
    for (TaskState* ts : running_) {
      // A task at (or within epsilon of) true completion is immovable.
      const double rpt = scoring_remaining(*ts);
      const double score =
          remaining(*ts) <= kDoneEpsilon ? kInf : fresh_score(*ts, rpt, mix);
      running_scored_.push_back({ts, score, 0, true});
    }
    std::sort(running_scored_.begin(), running_scored_.end(), rank_less);
  }
  start_selected(scored_, running_scored_,
                 config_.preemption ? pool_.capacity() : pool_.free_count());
}

void SiteScheduler::start_selected(std::span<const Scored> pending,
                                   std::span<const Scored> running,
                                   std::size_t capacity) {
  to_start_.clear();
  to_preempt_.clear();
  select_from_rankings<Scored>(
      pending, running, capacity,
      [](const Scored& s) { return s.ts->task.width; },
      [this](const Scored& s) { to_start_.push_back(s.ts); },
      [this](const Scored& s) { to_preempt_.push_back(s.ts); });
  // Preempt displaced running tasks first to free their processors.
  for (TaskState* ts : to_preempt_) preempt_task(*ts);
  for (TaskState* ts : to_start_) start_task(*ts);
}

void SiteScheduler::dispatch_at_enqueue(const MixView& mix) {
  scored_.clear();
  for (TaskState* ts : pending_)
    scored_.push_back(
        {ts, score_of(*ts, ts->queue_rpt, mix), ts->queue_pos, false});
  const std::size_t pending = scored_.size();

  if (config_.preemption) {
    for (TaskState* ts : running_) {
      // A task at (or within epsilon of) true completion is immovable.
      const double rpt = scoring_remaining(*ts);
      const double score =
          remaining(*ts) <= kDoneEpsilon ? kInf : score_of(*ts, rpt, mix);
      scored_.push_back({ts, score, 0, true});
    }
    if (!any_wide_) {
      const auto by_rank = [](const Scored& a, const Scored& b) {
        if (a.score != b.score) return a.score > b.score;
        if (a.running != b.running) return a.running;
        return a.ts->task.id < b.ts->task.id;
      };
      // Width-1 fast path: only *membership* in the top-`capacity` set
      // matters (ties keep running tasks in place so dispatches never
      // flap), so an O(n) partition replaces a full sort; the comparator
      // is a strict weak order (ids break ties) and thus deterministic.
      const std::size_t keep = std::min(pool_.capacity(), scored_.size());
      if (keep < scored_.size())
        std::nth_element(scored_.begin(),
                         scored_.begin() + static_cast<std::ptrdiff_t>(keep),
                         scored_.end(), by_rank);
      // Preempt displaced running tasks first to free their processors.
      for (std::size_t i = keep; i < scored_.size(); ++i)
        if (scored_[i].running) preempt_task(*scored_[i].ts);
      for (std::size_t i = 0; i < keep; ++i)
        if (!scored_[i].running) start_task(*scored_[i].ts);
    } else {
      // Gang scheduling with aggressive backfill: rank the pending and the
      // running entries apart, then walk their merge.
      const auto mid = scored_.begin() + static_cast<std::ptrdiff_t>(pending);
      std::sort(scored_.begin(), mid, rank_less);
      std::sort(mid, scored_.end(), rank_less);
      const std::span<const Scored> all(scored_);
      start_selected(all.first(pending), all.subspan(pending),
                     pool_.capacity());
    }
  } else {
    // Non-preemptive: fill free processors with the best pending tasks.
    if (!any_wide_) {
      const std::size_t starts = std::min(pool_.free_count(), scored_.size());
      if (starts < scored_.size())
        std::nth_element(scored_.begin(),
                         scored_.begin() + static_cast<std::ptrdiff_t>(starts),
                         scored_.end(), rank_less);
      for (std::size_t i = 0; i < starts; ++i) start_task(*scored_[i].ts);
    } else {
      std::sort(scored_.begin(), scored_.end(), rank_less);
      start_selected(scored_, {}, pool_.free_count());
    }
  }
}

RunStats SiteScheduler::stats() const {
  RunStats stats;
  stats.submitted = records_.size();
  stats.preemptions = preemptions_;
  stats.dispatches = dispatches_;
  stats.crashes = crashes_;
  stats.checkpoints = checkpoints_;
  stats.first_arrival = saw_arrival_ ? first_arrival_ : 0.0;
  stats.last_completion = last_completion_;
  for (const TaskRecord& record : records_) {
    switch (record.outcome) {
      case TaskOutcome::kRejected:
        ++stats.rejected;
        break;
      case TaskOutcome::kCompleted:
        ++stats.accepted;
        ++stats.completed;
        stats.total_yield += record.realized_yield;
        stats.realized_yield.add(record.realized_yield);
        stats.delay.add(record.task.delay_at_completion(record.completion));
        break;
      case TaskOutcome::kDropped:
        ++stats.accepted;
        ++stats.dropped;
        stats.total_yield += record.realized_yield;
        stats.realized_yield.add(record.realized_yield);
        break;
      case TaskOutcome::kFailed:
        ++stats.accepted;
        ++stats.failed;
        stats.total_yield += record.realized_yield;
        stats.realized_yield.add(record.realized_yield);
        break;
      case TaskOutcome::kPending:
      case TaskOutcome::kRunning:
        ++stats.accepted;
        break;
    }
  }
  const double span = stats.last_completion - stats.first_arrival;
  stats.yield_rate = span > 0.0 ? stats.total_yield / span : 0.0;
  stats.utilization = pool_.utilization(engine_.now());
  return stats;
}

}  // namespace mbts

#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace mbts {
namespace {

Task make_task(TaskId id, double arrival, double runtime, double value,
               double decay, double bound = kInf) {
  Task t;
  t.id = id;
  t.arrival = arrival;
  t.runtime = runtime;
  t.value = ValueFunction(value, decay, bound);
  return t;
}

struct Harness {
  SimEngine engine;
  SiteScheduler site;

  explicit Harness(SchedulerConfig config,
                   PolicySpec policy = PolicySpec::fcfs(),
                   std::unique_ptr<AdmissionPolicy> admission = nullptr)
      : site(engine, config, make_policy(policy),
             admission ? std::move(admission)
                       : std::make_unique<AcceptAllAdmission>()) {}

  const TaskRecord& record(TaskId id) const {
    for (const TaskRecord& r : site.records())
      if (r.task.id == id) return r;
    throw std::runtime_error("no record");
  }
};

SchedulerConfig config(std::size_t processors, bool preemption = true) {
  SchedulerConfig c;
  c.processors = processors;
  c.preemption = preemption;
  return c;
}

TEST(Scheduler, SingleTaskRunsToCompletion) {
  Harness h(config(1));
  h.site.inject(std::vector<Task>{make_task(0, 0.0, 10.0, 100.0, 1.0)});
  h.engine.run();
  EXPECT_TRUE(h.site.idle());
  const TaskRecord& r = h.record(0);
  EXPECT_EQ(r.outcome, TaskOutcome::kCompleted);
  EXPECT_EQ(r.first_start, 0.0);
  EXPECT_EQ(r.completion, 10.0);
  EXPECT_EQ(r.realized_yield, 100.0);
}

TEST(Scheduler, FcfsRunsInArrivalOrderOnOneProcessor) {
  Harness h(config(1));
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 10.0, 10.0, 0.0),
      make_task(1, 1.0, 10.0, 999.0, 0.0),
      make_task(2, 2.0, 10.0, 5.0, 0.0),
  });
  h.engine.run();
  EXPECT_EQ(h.record(0).completion, 10.0);
  EXPECT_EQ(h.record(1).completion, 20.0);
  EXPECT_EQ(h.record(2).completion, 30.0);
}

TEST(Scheduler, CapacityBoundsConcurrency) {
  Harness h(config(2));
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 10.0, 1.0, 0.0),
      make_task(1, 0.0, 10.0, 1.0, 0.0),
      make_task(2, 0.0, 10.0, 1.0, 0.0),
  });
  h.engine.run();
  // Two run immediately; the third waits for a free processor.
  EXPECT_EQ(h.record(0).completion, 10.0);
  EXPECT_EQ(h.record(1).completion, 10.0);
  EXPECT_EQ(h.record(2).completion, 20.0);
}

TEST(Scheduler, YieldReflectsQueueingDelay) {
  Harness h(config(1));
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 10.0, 100.0, 1.0),
      make_task(1, 0.0, 10.0, 100.0, 2.0),
  });
  h.engine.run();
  // Task 1 waits 10 units: yield = 100 - 2*10.
  EXPECT_EQ(h.record(0).realized_yield, 100.0);
  EXPECT_EQ(h.record(1).realized_yield, 80.0);
}

TEST(Scheduler, UnboundedPenaltyGoesNegative) {
  Harness h(config(1));
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 100.0, 1000.0, 0.0),
      make_task(1, 0.0, 10.0, 5.0, 1.0, kInf),
  });
  h.engine.run();
  // Task 1 completes at 110 with delay 100: yield 5 - 100 = -95.
  EXPECT_EQ(h.record(1).realized_yield, -95.0);
}

TEST(Scheduler, BoundedPenaltyFloors) {
  Harness h(config(1));
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 100.0, 1000.0, 0.0),
      make_task(1, 0.0, 10.0, 5.0, 1.0, 0.0),
  });
  h.engine.run();
  EXPECT_EQ(h.record(1).realized_yield, 0.0);
}

TEST(Scheduler, PreemptionDisplacesLowerPriority) {
  // FirstPrice: the late, far more valuable task preempts.
  Harness h(config(1), PolicySpec::first_price());
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 100.0, 100.0, 0.0),
      make_task(1, 10.0, 10.0, 10000.0, 0.0),
  });
  h.engine.run();
  EXPECT_EQ(h.record(1).completion, 20.0);  // runs immediately on arrival
  EXPECT_EQ(h.record(0).completion, 110.0); // resumes, loses no work
  EXPECT_EQ(h.record(0).preemptions, 1);
  EXPECT_EQ(h.site.stats().preemptions, 1u);
}

TEST(Scheduler, NoPreemptionWhenDisabled) {
  Harness h(config(1, /*preemption=*/false), PolicySpec::first_price());
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 100.0, 100.0, 0.0),
      make_task(1, 10.0, 10.0, 10000.0, 0.0),
  });
  h.engine.run();
  EXPECT_EQ(h.record(0).completion, 100.0);
  EXPECT_EQ(h.record(1).completion, 110.0);
  EXPECT_EQ(h.site.stats().preemptions, 0u);
}

TEST(Scheduler, EqualPriorityDoesNotPreempt) {
  Harness h(config(1), PolicySpec::first_price());
  // Identical unit gain and no decay: the newcomer must wait.
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 10.0, 100.0, 0.0),
      make_task(1, 5.0, 10.0, 100.0, 0.0),
  });
  h.engine.run();
  EXPECT_EQ(h.record(0).preemptions, 0);
  EXPECT_EQ(h.record(0).completion, 10.0);
}

TEST(Scheduler, PreemptedWorkIsConserved) {
  Harness h(config(1), PolicySpec::first_price());
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 50.0, 50.0, 0.0),
      make_task(1, 20.0, 10.0, 10000.0, 0.0),
  });
  h.engine.run();
  // Task 0 ran 20 units, was preempted 10, then finished the remaining 30.
  EXPECT_EQ(h.record(0).completion, 60.0);
}

TEST(Scheduler, RejectedTaskNeverRuns) {
  // Slack admission with an impossible threshold rejects everything.
  Harness h(config(1), PolicySpec::first_price(),
            std::make_unique<SlackAdmission>(
                SlackAdmissionConfig{.threshold = 1e12}));
  h.site.inject(std::vector<Task>{make_task(0, 0.0, 10.0, 100.0, 1.0)});
  h.engine.run();
  const TaskRecord& r = h.record(0);
  EXPECT_EQ(r.outcome, TaskOutcome::kRejected);
  EXPECT_EQ(r.first_start, -1.0);
  EXPECT_EQ(r.realized_yield, 0.0);
  const RunStats stats = h.site.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.total_yield, 0.0);
}

TEST(Scheduler, QuoteDoesNotCommit) {
  Harness h(config(1));
  const AdmissionDecision d =
      h.site.quote(make_task(0, 0.0, 10.0, 100.0, 1.0));
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.expected_completion, 10.0);
  EXPECT_TRUE(h.site.idle());
  EXPECT_TRUE(h.site.records().empty());
}

TEST(Scheduler, QuoteReflectsQueueState) {
  Harness h(config(1));
  h.site.submit(make_task(0, 0.0, 25.0, 100.0, 0.0));
  const AdmissionDecision d =
      h.site.quote(make_task(1, 0.0, 10.0, 100.0, 0.0));
  EXPECT_EQ(d.expected_completion, 35.0);
}

TEST(Scheduler, DuplicateIdThrows) {
  Harness h(config(1));
  h.site.submit(make_task(0, 0.0, 10.0, 100.0, 1.0));
  EXPECT_THROW(h.site.submit(make_task(0, 0.0, 5.0, 10.0, 1.0)), CheckError);
}

TEST(Scheduler, InvalidTaskThrows) {
  Harness h(config(1));
  Task bad = make_task(0, 0.0, -1.0, 100.0, 1.0);
  EXPECT_THROW(h.site.submit(bad), CheckError);
}

TEST(Scheduler, StatsAggregateCorrectly) {
  Harness h(config(1));
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 10.0, 100.0, 1.0),
      make_task(1, 5.0, 10.0, 100.0, 1.0),
  });
  h.engine.run();
  const RunStats stats = h.site.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  // Task 1 completes at 20, earliest possible 15: delay 5, yield 95.
  EXPECT_DOUBLE_EQ(stats.total_yield, 195.0);
  EXPECT_EQ(stats.first_arrival, 0.0);
  EXPECT_EQ(stats.last_completion, 20.0);
  EXPECT_DOUBLE_EQ(stats.yield_rate, 195.0 / 20.0);
  EXPECT_DOUBLE_EQ(stats.delay.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.utilization, 1.0);
}

TEST(Scheduler, DropExpiredDiscardsAtFloor) {
  SchedulerConfig c = config(1);
  c.drop_expired = true;
  Harness h(c, PolicySpec::first_price());
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 100.0, 1000.0, 0.0),
      // Expires at t = 10 + 5 = 15 (value 10, decay 2, bound 0), long
      // before the first task finishes.
      make_task(1, 0.0, 10.0, 10.0, 2.0, 0.0),
  });
  h.engine.run();
  const TaskRecord& r = h.record(1);
  EXPECT_EQ(r.outcome, TaskOutcome::kDropped);
  EXPECT_EQ(r.realized_yield, 0.0);
  const RunStats stats = h.site.stats();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Scheduler, WithoutDropExpiredEverythingCompletes) {
  Harness h(config(1), PolicySpec::first_price());
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 100.0, 1000.0, 0.0),
      make_task(1, 0.0, 10.0, 10.0, 2.0, 0.0),
  });
  h.engine.run();
  EXPECT_EQ(h.record(1).outcome, TaskOutcome::kCompleted);
  EXPECT_EQ(h.site.stats().completed, 2u);
}

TEST(Scheduler, QuotedCompletionRecordedAtSubmit) {
  Harness h(config(1));
  h.site.submit(make_task(0, 0.0, 25.0, 100.0, 0.0));
  h.site.submit(make_task(1, 0.0, 10.0, 100.0, 0.5));
  const TaskRecord& r = h.record(1);
  EXPECT_EQ(r.quoted_completion, 35.0);
  EXPECT_DOUBLE_EQ(r.quoted_yield, 100.0 - 0.5 * 25.0);
}

TEST(Scheduler, SrptPreemptsForShorterWork) {
  Harness h(config(1), PolicySpec::srpt());
  h.site.inject(std::vector<Task>{
      make_task(0, 0.0, 100.0, 1.0, 0.0),
      make_task(1, 10.0, 5.0, 1.0, 0.0),
  });
  h.engine.run();
  EXPECT_EQ(h.record(1).completion, 15.0);
  EXPECT_EQ(h.record(0).completion, 105.0);
}

TEST(Scheduler, ManyTasksDrainCompletely) {
  Harness h(config(4), PolicySpec::first_price());
  std::vector<Task> tasks;
  for (TaskId i = 0; i < 200; ++i)
    tasks.push_back(make_task(i, static_cast<double>(i), 7.0,
                              100.0 + static_cast<double>(i % 13), 0.3));
  h.site.inject(tasks);
  h.engine.run();
  EXPECT_TRUE(h.site.idle());
  EXPECT_EQ(h.site.stats().completed, 200u);
  // Work conservation: total busy time equals total runtime.
  const RunStats stats = h.site.stats();
  EXPECT_GT(stats.utilization, 0.0);
}

TEST(Scheduler, ZeroDiscountRateRequired) {
  SchedulerConfig c = config(1);
  c.discount_rate = -0.5;
  SimEngine engine;
  EXPECT_THROW(SiteScheduler(engine, c, make_policy(PolicySpec::fcfs()),
                             std::make_unique<AcceptAllAdmission>()),
               CheckError);
}

// --- Quote memo: an award at the quoted instant and state reuses the quote.

// Counts evaluate() calls of the wrapped admission policy.
class CountingAdmission final : public AdmissionPolicy {
 public:
  CountingAdmission(std::unique_ptr<AdmissionPolicy> inner,
                    std::size_t* evaluations)
      : inner_(std::move(inner)), evaluations_(evaluations) {}
  std::string name() const override { return inner_->name(); }
  AdmissionDecision evaluate(const Task& candidate,
                             const AdmissionContext& ctx) const override {
    ++*evaluations_;
    return inner_->evaluate(candidate, ctx);
  }
  bool reads_ranked_suffix() const override {
    return inner_->reads_ranked_suffix();
  }

 private:
  std::unique_ptr<AdmissionPolicy> inner_;
  std::size_t* evaluations_;
};

// Debug builds re-derive every memo hit to cross-check it, which costs one
// extra evaluation per hit.
#ifdef NDEBUG
constexpr std::size_t kHitCheck = 0;
#else
constexpr std::size_t kHitCheck = 1;
#endif

struct MemoHarness {
  std::size_t evaluations = 0;
  Harness h;

  explicit MemoHarness(std::size_t processors)
      : h(config(processors), PolicySpec::fcfs(),
          std::make_unique<CountingAdmission>(
              std::make_unique<AcceptAllAdmission>(), &evaluations)) {}
};

TEST(QuoteMemo, AwardAtTheQuotedInstantReusesTheQuote) {
  MemoHarness m(1);
  m.h.site.submit(make_task(0, 0.0, 25.0, 100.0, 0.0));
  ASSERT_EQ(m.evaluations, 1u);
  const Task task = make_task(1, 0.0, 10.0, 100.0, 0.0);
  const AdmissionDecision quoted = m.h.site.quote(task);
  ASSERT_EQ(m.evaluations, 2u);
  EXPECT_EQ(quoted.expected_completion, 35.0);
  const AdmissionDecision awarded = m.h.site.submit(task);
  EXPECT_EQ(m.evaluations, 2u + kHitCheck);
  EXPECT_EQ(awarded, quoted);
  EXPECT_EQ(m.h.record(1).quoted_completion, 35.0);
}

TEST(QuoteMemo, QuotesThemselvesAlwaysEvaluate) {
  // Only an award reuses the memo; a probe quote is always priced afresh.
  MemoHarness m(1);
  const Task task = make_task(0, 0.0, 10.0, 100.0, 0.0);
  m.h.site.quote(task);
  m.h.site.quote(task);
  EXPECT_EQ(m.evaluations, 2u);
}

TEST(QuoteMemo, ClockAdvanceReevaluates) {
  MemoHarness m(2);
  m.h.site.submit(make_task(0, 0.0, 100.0, 100.0, 0.0));
  m.h.engine.run_until(10.0);
  const Task task = make_task(1, 10.0, 10.0, 100.0, 0.0);
  EXPECT_EQ(m.h.site.quote(task).expected_completion, 20.0);
  const std::size_t before = m.evaluations;
  m.h.engine.run_until(20.0);  // no event: only the clock moves
  EXPECT_EQ(m.h.site.submit(task).expected_completion, 30.0);
  EXPECT_EQ(m.evaluations, before + 1);
}

TEST(QuoteMemo, AnotherAwardAtTheSameInstantReevaluates) {
  MemoHarness m(1);
  const Task task = make_task(1, 0.0, 10.0, 100.0, 0.0);
  EXPECT_EQ(m.h.site.quote(task).expected_completion, 10.0);
  m.h.site.submit(make_task(0, 0.0, 25.0, 100.0, 0.0));
  const std::size_t before = m.evaluations;
  // FCFS ranks task 0 first (same arrival, lower id).
  EXPECT_EQ(m.h.site.submit(task).expected_completion, 35.0);
  EXPECT_EQ(m.evaluations, before + 1);
}

TEST(QuoteMemo, EnqueueWithoutAQuoteReevaluates) {
  // preload() enqueues without quoting, so the memo still names the task;
  // only the state epoch tells it is stale.
  MemoHarness m(1);
  const Task task = make_task(1, 0.0, 10.0, 100.0, 0.0);
  EXPECT_EQ(m.h.site.quote(task).expected_completion, 10.0);
  m.h.site.preload(std::vector<Task>{make_task(0, 0.0, 25.0, 100.0, 0.0)});
  const std::size_t before = m.evaluations;
  EXPECT_EQ(m.h.site.submit(task).expected_completion, 35.0);
  EXPECT_EQ(m.evaluations, before + 1);
}

TEST(QuoteMemo, CrashAndRecoverReevaluate) {
  MemoHarness m(1);
  m.h.site.submit(make_task(0, 0.0, 50.0, 100.0, 0.0));
  m.h.engine.run_until(10.0);
  const Task task = make_task(1, 10.0, 10.0, 100.0, 0.0);
  EXPECT_EQ(m.h.site.quote(task).expected_completion, 60.0);
  // The crash kills the running task; after recovery the processor is free
  // at the same instant.
  ASSERT_EQ(m.h.site.crash(CrashMode::kKill).size(), 1u);
  m.h.site.recover();
  const std::size_t before = m.evaluations;
  EXPECT_EQ(m.h.site.submit(task).expected_completion, 20.0);
  EXPECT_EQ(m.evaluations, before + 1);
}

TEST(QuoteMemo, EmptyCrashAndRecoverStillReevaluate) {
  // Nothing runs, so the crash changes no queue: the outage itself must
  // invalidate the memo.
  MemoHarness m(1);
  const Task task = make_task(0, 0.0, 10.0, 100.0, 0.0);
  m.h.site.quote(task);
  m.h.site.crash(CrashMode::kKill);
  m.h.site.recover();
  const std::size_t before = m.evaluations;
  EXPECT_TRUE(m.h.site.submit(task).accept);
  EXPECT_EQ(m.evaluations, before + 1);
}

TEST(QuoteMemo, QuoteForOneTaskIsNeverReusedForAnother) {
  MemoHarness m(1);
  EXPECT_EQ(m.h.site.quote(make_task(1, 0.0, 10.0, 100.0, 0.0))
                .expected_completion,
            10.0);
  const std::size_t before = m.evaluations;
  EXPECT_EQ(m.h.site.submit(make_task(2, 0.0, 30.0, 100.0, 0.0))
                .expected_completion,
            30.0);
  EXPECT_EQ(m.evaluations, before + 1);
}

TEST(QuoteMemo, SameIdWithADifferentBidReevaluates) {
  // The memo keys the whole bid: a caller reusing an id for a longer task
  // gets that task's terms, not the quoted one's.
  MemoHarness m(1);
  EXPECT_EQ(m.h.site.quote(make_task(1, 0.0, 10.0, 100.0, 0.0))
                .expected_completion,
            10.0);
  const std::size_t before = m.evaluations;
  EXPECT_EQ(m.h.site.submit(make_task(1, 0.0, 30.0, 100.0, 0.0))
                .expected_completion,
            30.0);
  EXPECT_EQ(m.evaluations, before + 1);
}

}  // namespace
}  // namespace mbts

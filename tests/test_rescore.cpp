// Tests for the enqueue-time (stale-key) priority mode — the O(log n)
// heap-dispatch regime §5.2 alludes to, as opposed to rescoring the whole
// mix at every dispatch.
#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "workload/generator.hpp"

namespace mbts {
namespace {

Task make_task(TaskId id, double arrival, double runtime, double value,
               double decay) {
  Task t;
  t.id = id;
  t.arrival = arrival;
  t.runtime = runtime;
  t.value = ValueFunction::unbounded(value, decay);
  return t;
}

std::vector<double> completions(const Trace& trace, RescorePolicy rescore,
                                const PolicySpec& policy,
                                bool preemption = true,
                                std::size_t processors = 2) {
  SimEngine engine;
  SchedulerConfig config;
  config.processors = processors;
  config.preemption = preemption;
  config.rescore = rescore;
  config.discount_rate = 0.01;
  SiteScheduler site(engine, config, make_policy(policy),
                     std::make_unique<AcceptAllAdmission>());
  site.inject(trace.tasks);
  engine.run();
  std::vector<double> out;
  for (const TaskRecord& r : site.records()) out.push_back(r.completion);
  return out;
}

TEST(Rescore, TimeInvariantPoliciesUnaffected) {
  // FCFS keys never drift; SWPT keys are stable while a task is *queued*
  // (only the remaining time of a running task changes, which matters only
  // under preemption). So FCFS must match in both modes, SWPT without
  // preemption.
  WorkloadSpec spec;
  spec.num_jobs = 300;
  spec.processors = 2;
  spec.runtime = DistSpec::exponential(10.0);
  spec.runtime.floor = 0.5;
  Xoshiro256 rng(3);
  const Trace trace = generate_trace(spec, rng);
  EXPECT_EQ(
      completions(trace, RescorePolicy::kFresh, PolicySpec::fcfs(), true),
      completions(trace, RescorePolicy::kAtEnqueue, PolicySpec::fcfs(),
                  true));
  EXPECT_EQ(
      completions(trace, RescorePolicy::kFresh, PolicySpec::swpt(), false),
      completions(trace, RescorePolicy::kAtEnqueue, PolicySpec::swpt(),
                  false));

  // The same holds for gangs, whose backfill walk each mode reaches by its
  // own ranking.
  spec.processors = 4;
  spec.width = DistSpec::uniform(1.0, 4.0);
  const Trace gang = generate_trace(spec, rng);
  EXPECT_EQ(
      completions(gang, RescorePolicy::kFresh, PolicySpec::fcfs(), true, 4),
      completions(gang, RescorePolicy::kAtEnqueue, PolicySpec::fcfs(), true,
                  4));
  EXPECT_EQ(
      completions(gang, RescorePolicy::kFresh, PolicySpec::swpt(), false, 4),
      completions(gang, RescorePolicy::kAtEnqueue, PolicySpec::swpt(), false,
                  4));
}

TEST(Rescore, StaleFirstPriceDivergesFromFresh) {
  // FirstPrice's unit gain decays while tasks queue: under load the stale
  // ordering must differ from fresh rescoring on at least some tasks.
  WorkloadSpec spec;
  spec.num_jobs = 400;
  spec.processors = 2;
  spec.load_factor = 1.3;
  spec.runtime = DistSpec::exponential(10.0);
  spec.runtime.floor = 0.5;
  Xoshiro256 rng(5);
  const Trace trace = generate_trace(spec, rng);
  EXPECT_NE(
      completions(trace, RescorePolicy::kFresh, PolicySpec::first_price()),
      completions(trace, RescorePolicy::kAtEnqueue,
                  PolicySpec::first_price()));
}

TEST(Rescore, StaleFirstPriceKeepsDecayedTaskRank) {
  // Task 0 is enqueued with a high score behind a blocker but decays to
  // worthlessness while waiting. Fresh rescoring lets the newer task 1
  // overtake it; stale keys keep task 0's enqueue-time rank.
  SimEngine engine_fresh, engine_stale;
  auto run = [&](SimEngine& engine, RescorePolicy rescore) {
    SchedulerConfig config;
    config.processors = 1;
    config.preemption = false;
    config.rescore = rescore;
    auto site = std::make_unique<SiteScheduler>(
        engine, config, make_policy(PolicySpec::first_price()),
        std::make_unique<AcceptAllAdmission>());
    std::vector<Task> tasks{
        make_task(9, 0.0, 100.0, 10000.0, 0.0),  // blocker
        make_task(0, 0.0, 10.0, 200.0, 1.9),     // decays to ~10 by t=100
        make_task(1, 50.0, 10.0, 100.0, 0.0),    // steady 100
    };
    site->inject(tasks);
    engine.run();
    double c0 = 0.0, c1 = 0.0;
    for (const TaskRecord& r : site->records()) {
      if (r.task.id == 0) c0 = r.completion;
      if (r.task.id == 1) c1 = r.completion;
    }
    return std::make_pair(c0, c1);
  };
  // Fresh: at t=100 task 0's unit gain ≈ (200-1.9*100)/10 ≈ 1, task 1's is
  // 100/10 = 10 → task 1 first.
  const auto [fresh0, fresh1] = run(engine_fresh, RescorePolicy::kFresh);
  EXPECT_GT(fresh0, fresh1);
  // Stale: task 0 keeps its enqueue-time gain of 20 → task 0 first.
  const auto [stale0, stale1] = run(engine_stale, RescorePolicy::kAtEnqueue);
  EXPECT_LT(stale0, stale1);
}

TEST(Rescore, PreemptionRefreshesCachedScore) {
  // A preempted task re-enters the queue with an up-to-date score, so it
  // does not carry a pre-preemption rank forever.
  SimEngine engine;
  SchedulerConfig config;
  config.processors = 1;
  config.preemption = true;
  config.rescore = RescorePolicy::kAtEnqueue;
  SiteScheduler site(engine, config, make_policy(PolicySpec::first_price()),
                     std::make_unique<AcceptAllAdmission>());
  site.inject(std::vector<Task>{
      make_task(0, 0.0, 50.0, 50.0, 0.0),
      make_task(1, 10.0, 10.0, 10000.0, 0.0),
  });
  engine.run();
  EXPECT_EQ(site.stats().completed, 2u);
  EXPECT_EQ(site.stats().preemptions, 1u);
}

TEST(Rescore, StaleModeStillDrainsUnderLoad) {
  WorkloadSpec spec;
  spec.num_jobs = 500;
  spec.processors = 4;
  spec.load_factor = 1.5;
  spec.runtime = DistSpec::exponential(15.0);
  spec.runtime.floor = 0.5;
  Xoshiro256 rng(9);
  const Trace trace = generate_trace(spec, rng);
  const auto done =
      completions(trace, RescorePolicy::kAtEnqueue,
                  PolicySpec::first_reward(0.3));
  EXPECT_EQ(done.size(), 500u);
  for (double c : done) EXPECT_GT(c, 0.0);
}

}  // namespace
}  // namespace mbts

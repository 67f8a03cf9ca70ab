// Microbenchmarks for candidate-schedule projection and end-to-end
// single-site simulation throughput (tasks scheduled per second).
#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include "core/schedule.hpp"
#include "experiments/runner.hpp"
#include "workload/presets.hpp"

namespace {

void BM_ListSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mbts::Xoshiro256 rng(5);
  std::vector<mbts::PendingItem> ordered(n);
  for (std::size_t i = 0; i < n; ++i)
    ordered[i] = {i, rng.uniform(1.0, 200.0)};
  std::vector<double> proc_free(16, 0.0);
  for (auto _ : state) {
    auto entries = mbts::list_schedule(proc_free, ordered);
    benchmark::DoNotOptimize(entries.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ListSchedule)->Range(64, 1 << 14);

// The quote's projection alone: completion of the last of 1000 width-1
// items on a site of range(0) processors with random free times. Six is
// the Fig. 1 trio's deep site (the branch-free step); 64 is
// BM_QuoteBacklog's site (the binary-search step).
void BM_CompletionOf(benchmark::State& state) {
  const auto processors = static_cast<std::size_t>(state.range(0));
  mbts::Xoshiro256 rng(5);
  std::vector<mbts::PendingItem> ordered(1000);
  for (std::size_t i = 0; i < ordered.size(); ++i)
    ordered[i] = {i, rng.uniform(1.0, 10.0)};
  std::vector<double> proc_free(processors);
  for (double& t : proc_free) t = rng.uniform(0.0, 10.0);
  std::vector<double> free_scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbts::completion_of(
        proc_free, ordered, ordered.size() - 1, free_scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ordered.size()) *
                          state.iterations());
}
BENCHMARK(BM_CompletionOf)->Arg(6)->Arg(16)->Arg(64)->Arg(256);

void run_site(benchmark::State& state, const mbts::PolicySpec& policy,
              bool admission) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  mbts::WorkloadSpec spec = mbts::presets::admission_mix(1.5, jobs);
  mbts::Xoshiro256 rng(17);
  const mbts::Trace trace = mbts::generate_trace(spec, rng);
  mbts::SchedulerConfig config;
  config.processors = mbts::presets::kProcessors;
  config.preemption = true;
  config.discount_rate = 0.01;
  std::optional<mbts::SlackAdmissionConfig> admit;
  if (admission) admit = mbts::SlackAdmissionConfig{180.0, false};
  for (auto _ : state) {
    auto stats = mbts::run_single_site(trace, config, policy, admit);
    benchmark::DoNotOptimize(stats.total_yield);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs) *
                          state.iterations());
}

void BM_SiteFirstPrice(benchmark::State& state) {
  run_site(state, mbts::PolicySpec::first_price(), false);
}
void BM_SiteFirstRewardAdmission(benchmark::State& state) {
  run_site(state, mbts::PolicySpec::first_reward(0.2), true);
}

BENCHMARK(BM_SiteFirstPrice)->Arg(500)->Arg(2000)->Arg(5000);
BENCHMARK(BM_SiteFirstRewardAdmission)->Arg(500)->Arg(2000)->Arg(5000);

// Large-mix dispatch: every job arrives in one burst, so the pending queue
// holds ~n tasks while the site drains at capacity. Each completion triggers
// a dispatch that scores the whole backlog — the hot path the incremental
// mix and O(1) queue bookkeeping target. Tasks are unbounded (Eq. 5 cost
// path) so the measured cost is mix upkeep + scoring, not the inherently
// O(n) per-task Eq. 4 sum.
void BM_DispatchBacklog(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mbts::Xoshiro256 rng(23);
  std::vector<mbts::Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    mbts::Task& t = tasks[i];
    t.id = static_cast<mbts::TaskId>(i + 1);
    t.arrival = 0.0;
    t.runtime = rng.uniform(1.0, 10.0);
    t.value = mbts::ValueFunction::unbounded(rng.uniform(10.0, 100.0),
                                             rng.uniform(0.001, 0.05));
  }
  mbts::SchedulerConfig config;
  config.processors = 64;
  config.preemption = true;
  config.discount_rate = 0.01;
  std::uint64_t dispatches = 0;
  for (auto _ : state) {
    mbts::SimEngine engine;
    mbts::SiteScheduler site(
        engine, config, mbts::make_policy(mbts::PolicySpec::first_reward(0.3)),
        std::make_unique<mbts::AcceptAllAdmission>());
    site.inject(tasks);
    engine.run();
    const auto stats = site.stats();
    dispatches += stats.dispatches;
    benchmark::DoNotOptimize(stats.total_yield);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatches));
  state.counters["pending"] = static_cast<double>(n);
}
BENCHMARK(BM_DispatchBacklog)->Unit(benchmark::kMillisecond)->Arg(1000)->Arg(10000);

// The SoA-kernel headline: a standing backlog of n pending tasks drains
// for a fixed window, so one iteration performs a few hundred full-queue
// rescores at constant pending depth (unlike BM_DispatchBacklog, which
// drains to empty and so can't reach 100k tasks in reasonable time).
// arg1 toggles ScoreKernelMode: 0 = the scalar per-task ScoreCache loop
// (kOff), 1 = the batch kernels (scheduler default) — committed side by
// side in BENCH_dispatch.json so the kernel speedup is part of the perf
// record.
void BM_DispatchBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool kernels = state.range(1) != 0;
  mbts::Xoshiro256 rng(23);
  std::vector<mbts::Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    mbts::Task& t = tasks[i];
    t.id = static_cast<mbts::TaskId>(i + 1);
    t.arrival = 0.0;
    t.runtime = rng.uniform(1.0, 10.0);
    t.value = mbts::ValueFunction::unbounded(rng.uniform(10.0, 100.0),
                                             rng.uniform(0.001, 0.05));
  }
  mbts::SchedulerConfig config;
  config.processors = 64;
  config.preemption = true;
  config.discount_rate = 0.01;
  config.score_kernels = kernels ? mbts::ScoreKernelMode::kExact
                                 : mbts::ScoreKernelMode::kOff;
  std::uint64_t dispatches = 0;
  for (auto _ : state) {
    mbts::SimEngine engine;
    mbts::SiteScheduler site(
        engine, config, mbts::make_policy(mbts::PolicySpec::first_reward(0.3)),
        std::make_unique<mbts::AcceptAllAdmission>());
    site.preload(tasks);
    engine.run_until(5.0);
    const auto stats = site.stats();
    dispatches += stats.dispatches;
    benchmark::DoNotOptimize(stats.total_yield);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatches));
  state.counters["pending"] = static_cast<double>(n);
  state.counters["kernels"] = kernels ? 1.0 : 0.0;
}
BENCHMARK(BM_DispatchBurst)
    ->Unit(benchmark::kMillisecond)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

// Quote throughput against a standing backlog of n pending tasks: the
// market-probe hot path. Each quote rescores the whole queue, repairs the
// rank order, and runs the candidate-schedule projection; SlackAdmission
// reads the ranked suffix, so the full pending_decay cache is built too.
void BM_QuoteBacklog(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mbts::Xoshiro256 rng(31);
  std::vector<mbts::Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    mbts::Task& t = tasks[i];
    t.id = static_cast<mbts::TaskId>(i + 1);
    t.arrival = 0.0;
    t.runtime = rng.uniform(1.0, 10.0);
    t.value = mbts::ValueFunction::unbounded(rng.uniform(10.0, 100.0),
                                             rng.uniform(0.001, 0.05));
  }
  mbts::Task probe;
  probe.id = static_cast<mbts::TaskId>(n + 1);
  probe.arrival = 0.0;
  probe.runtime = 5.0;
  probe.value = mbts::ValueFunction::unbounded(50.0, 0.01);
  mbts::SchedulerConfig config;
  config.processors = 64;
  config.preemption = true;
  config.discount_rate = 0.01;
  mbts::SimEngine engine;
  mbts::SiteScheduler site(
      engine, config, mbts::make_policy(mbts::PolicySpec::first_reward(0.3)),
      std::make_unique<mbts::SlackAdmission>(
          mbts::SlackAdmissionConfig{0.0, false}));
  site.preload(tasks);
  engine.run_until(0.0);  // fire the coalesced dispatch; nothing completes
  std::uint64_t quotes = 0;
  for (auto _ : state) {
    const auto decision = site.quote(probe);
    ++quotes;
    benchmark::DoNotOptimize(decision.expected_completion);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(quotes));
  state.counters["pending"] = static_cast<double>(site.pending_count());
}
BENCHMARK(BM_QuoteBacklog)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

}  // namespace

MBTS_BENCHMARK_MAIN()

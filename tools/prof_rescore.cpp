// Hot-path profile of the pending-queue rescore: the same 100k-pending
// dispatch burst the `highload100k_*` fingerprint lines pin, run once per
// score-kernel mode with the scoped profiler enabled. The flat scope table
// (the Profiler's flamegraph view: every MBTS_PROF_SCOPE with calls, total
// time, and mean) shows where the burst spends its time before and after
// the SoA kernels take the rescore — `scheduler/rescore` (the scalar
// per-task path) versus `scheduler/kernel_rescore` (the batched SoA path).
// A third table profiles a whole market run: the Fig. 1 trio at about 1.5x
// its capacity (perfbench batch_overload's shape: admission_mix at load 4,
// 12000 bids), split into
// ranking (`scheduler/rank`), projection (`admission/evaluate`) and broker
// time (`broker/negotiate`). EXPERIMENTS.md "Rescore profile" records a
// committed run of this tool.
//
// Usage: prof_rescore [--tasks N] (burst size, default 100000; the market
// run is fixed)
#include <cstddef>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/scheduler.hpp"
#include "market/market.hpp"
#include "obs/profile.hpp"
#include "serve/preset.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace {

using namespace mbts;

/// Mirrors the fingerprint burst: every task arrives at t=0 and the site
/// drains at 16 processors until t=5, so each completion rescores the full
/// backlog. Every 16th task carries a two-segment piecewise profile to keep
/// the kernels' scalar-fixup lane hot.
RunStats run_burst(std::size_t n, ScoreKernelMode mode) {
  Xoshiro256 rng(23);
  std::vector<Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task& t = tasks[i];
    t.id = static_cast<TaskId>(i + 1);
    t.arrival = 0.0;
    t.runtime = rng.uniform(1.0, 10.0);
    const double value = rng.uniform(10.0, 100.0);
    const double decay = rng.uniform(0.001, 0.05);
    if (i % 16 == 0) {
      t.value = ValueFunction::piecewise(
          value, {{rng.uniform(2.0, 8.0), decay}, {kInf, decay * 2.0}}, kInf);
    } else {
      t.value = ValueFunction::unbounded(value, decay);
    }
  }
  SchedulerConfig config;
  config.processors = 16;
  config.preemption = true;
  config.discount_rate = 0.01;
  config.score_kernels = mode;
  SimEngine engine;
  SiteScheduler site(engine, config,
                     make_policy(PolicySpec::first_reward(0.3)),
                     std::make_unique<AcceptAllAdmission>());
  site.preload(tasks);
  engine.run_until(5.0);
  return site.stats();
}

void profile_mode(std::size_t n, ScoreKernelMode mode, const char* label) {
  Profiler::instance().reset();
  Profiler::set_enabled(true);
  const RunStats stats = run_burst(n, mode);
  Profiler::set_enabled(false);
  std::cout << "=== " << label << " (" << n << " pending, dispatches="
            << stats.dispatches << ", total_yield=" << stats.total_yield
            << ") ===\n"
            << Profiler::instance().report() << "\n";
}

void profile_market() {
  Market market(serve::fig1_market(1));
  Xoshiro256 rng(1);
  market.inject(generate_trace(presets::admission_mix(4.0, 12000), rng));
  Profiler::instance().reset();
  Profiler::set_enabled(true);
  const MarketStats stats = market.run();
  Profiler::set_enabled(false);
  std::cout << "=== market: Fig. 1 trio, admission_mix(4.0, 12000) (awarded="
            << stats.awarded << ", revenue=" << stats.total_revenue
            << ") ===\n"
            << Profiler::instance().report() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 100000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tasks" && i + 1 < argc) {
      n = std::stoull(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: prof_rescore [--tasks N]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  // Before: the scalar per-task cache path (kernels off).
  profile_mode(n, ScoreKernelMode::kOff, "before: score_kernels=kOff");
  // After: the SoA batch kernels (the scheduler default).
  profile_mode(n, ScoreKernelMode::kExact, "after: score_kernels=kExact");
  profile_market();
  return 0;
}

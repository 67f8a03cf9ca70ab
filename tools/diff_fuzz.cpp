// Differential fuzzer: sweeps randomized scenarios through the optimized
// scheduler/market stack and the src/oracle reference implementations,
// asserting bit-level agreement. On divergence it greedily shrinks the
// scenario and prints a ready-to-paste regression reproducer.
//
// Usage:
//   diff_fuzz [--scenarios N] [--seed S] [--faults on|off]
//             [--kernels on|off|mixed] [--batching on|off|mixed]
//   diff_fuzz --replay "seed=... tasks=... ..."
//   diff_fuzz --self-test [--seed S]
//
// Exit codes: 0 all scenarios agree (or self-test passed), 1 divergence
// (or self-test failed to detect its planted bug), 2 usage error.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "oracle/diff.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"

namespace {

using mbts::oracle::DiffReport;
using mbts::oracle::Scenario;
using mbts::oracle::SelfTest;

enum class FaultFilter { kMixed, kOn, kOff };
enum class KernelFilter { kMixed, kOn, kOff };
enum class BatchingFilter { kMixed, kOn, kOff };

/// Forces the fault model on or off after generation, so one sweep can be
/// pinned all-faulty or all-clean without changing any other draw.
void apply_fault_filter(Scenario& sc, FaultFilter filter) {
  if (filter == FaultFilter::kOff) {
    sc.faults = false;
    sc.outage_rate = 0.0;
    sc.quote_timeout_prob = 0.0;
  } else if (filter == FaultFilter::kOn && !sc.faults) {
    sc.faults = true;
    // Roughly two outages per site over the arrival span.
    const double span_est =
        static_cast<double>(sc.n_tasks) * 100.0 /
        (static_cast<double>(sc.processors) * sc.load_factor);
    sc.outage_rate = 2.0 / std::max(span_est, 1.0);
    sc.mean_outage = 150.0;
    sc.quote_timeout_prob = sc.market ? 0.1 : 0.0;
  }
}

/// Forces the SoA score-kernel toggle after generation — CI pins one sweep
/// all-kernels-on so every fuzzed config also differentially tests the
/// vectorized dispatch path.
void apply_kernel_filter(Scenario& sc, KernelFilter filter) {
  if (filter == KernelFilter::kOn) sc.kernels = true;
  else if (filter == KernelFilter::kOff) sc.kernels = false;
}

/// Forces the sharded coordinator's epoch batching after generation — only
/// observable on sharded scenarios, where CI pins one sweep batching-on so
/// every fuzzed sharded config also covers the inline negotiation runs.
void apply_batching_filter(Scenario& sc, BatchingFilter filter) {
  if (filter == BatchingFilter::kOn) sc.batching = true;
  else if (filter == BatchingFilter::kOff) sc.batching = false;
}

void print_divergence(const Scenario& scenario, const DiffReport& report,
                      const SelfTest& self_test) {
  std::cout << "DIVERGENCE: " << report.detail << "\n"
            << "  replay: diff_fuzz --replay \""
            << mbts::oracle::to_replay_string(scenario) << "\"\n"
            << "  shrinking...\n";
  std::vector<std::string> steps;
  const Scenario shrunk = mbts::oracle::shrink(
      scenario,
      [&](const Scenario& candidate) {
        return mbts::oracle::run_diff(candidate, self_test).diverged;
      },
      &steps);
  for (const std::string& step : steps)
    std::cout << "    - " << step << "\n";
  const DiffReport final_report = mbts::oracle::run_diff(shrunk, self_test);
  std::cout << "  shrunk: diff_fuzz --replay \""
            << mbts::oracle::to_replay_string(shrunk) << "\"\n"
            << "  shrunk detail: " << final_report.detail << "\n"
            << "  regression test scenario (paste into "
               "tests/differential/test_differential.cpp):\n"
            << mbts::oracle::to_cpp_literal(shrunk) << "\n";
}

int run_sweep(std::size_t scenarios, std::uint64_t seed, FaultFilter filter,
              KernelFilter kernel_filter, BatchingFilter batching_filter) {
  std::size_t with_faults = 0;
  std::size_t with_market = 0;
  std::size_t with_kernels = 0;
  std::size_t with_batching = 0;
  for (std::size_t i = 0; i < scenarios; ++i) {
    Scenario sc = mbts::oracle::generate_scenario(seed, i);
    apply_fault_filter(sc, filter);
    apply_kernel_filter(sc, kernel_filter);
    apply_batching_filter(sc, batching_filter);
    with_faults += sc.faults ? 1 : 0;
    with_market += sc.market ? 1 : 0;
    with_kernels += sc.kernels ? 1 : 0;
    with_batching += (sc.shards >= 2 && sc.batching) ? 1 : 0;
    const DiffReport report = mbts::oracle::run_diff(sc);
    if (report.diverged) {
      std::cout << "scenario " << i << " of " << scenarios << " diverged\n";
      print_divergence(sc, report, SelfTest{});
      return 1;
    }
    if ((i + 1) % 100 == 0)
      std::cout << "  " << (i + 1) << "/" << scenarios << " scenarios agree\n";
  }
  std::cout << "OK: " << scenarios << " scenarios, zero divergences ("
            << with_faults << " with faults, " << with_market
            << " market-mode, " << with_kernels << " kernel-path, "
            << with_batching << " sharded-batched)\n";
  return 0;
}

int run_replay(const std::string& text) {
  const auto scenario = mbts::oracle::parse_replay(text);
  if (!scenario) {
    std::cerr << "could not parse replay string: " << text << "\n";
    return 2;
  }
  const DiffReport report = mbts::oracle::run_diff(*scenario);
  if (report.diverged) {
    print_divergence(*scenario, report, SelfTest{});
    return 1;
  }
  std::cout << "OK: replayed scenario agrees\n";
  return 0;
}

/// Plants two known bug classes and checks the harness reports and shrinks
/// both: a stale remaining-time cache (scheduler side) and a corrupted
/// settlement aggregate (market side).
int run_self_test(std::uint64_t seed) {
  int failures = 0;

  // A contended single-site scenario; a 0.1% skew on believed remaining
  // times must surface as a bit-level record divergence.
  Scenario contended;
  contended.seed = seed | 1;
  contended.n_tasks = 80;
  contended.market = false;
  contended.processors = 4;
  contended.load_factor = 2.0;
  contended.policy = mbts::PolicySpec::Kind::kFirstReward;
  contended.use_slack_admission = true;
  const SelfTest stale_cache{.rpt_skew = 1e-3, .corrupt_settlement = false};
  DiffReport report = mbts::oracle::run_diff(contended, stale_cache);
  if (report.diverged) {
    std::cout << "self-test 1 (stale rpt cache): detected\n";
    print_divergence(contended, report, stale_cache);
  } else {
    std::cout << "self-test 1 (stale rpt cache): NOT DETECTED — the "
                 "differential harness is blind\n";
    ++failures;
  }

  // A market scenario with settled contracts; a one-ulp corruption of the
  // reported revenue total must fail the settlement audit.
  Scenario economy;
  economy.seed = seed | 1;
  economy.n_tasks = 80;
  economy.market = true;
  economy.n_sites = 2;
  economy.processors = 4;
  economy.load_factor = 1.2;
  const SelfTest broken_settlement{.rpt_skew = 0.0,
                                   .corrupt_settlement = true};
  report = mbts::oracle::run_diff(economy, broken_settlement);
  if (report.diverged) {
    std::cout << "self-test 2 (corrupted settlement): detected\n"
              << "  detail: " << report.detail << "\n";
  } else {
    std::cout << "self-test 2 (corrupted settlement): NOT DETECTED — the "
                 "settlement audit is blind\n";
    ++failures;
  }

  // Both planted scenarios must pass clean without the perturbations.
  if (mbts::oracle::run_diff(contended).diverged ||
      mbts::oracle::run_diff(economy).diverged) {
    std::cout << "self-test 3 (clean baseline): the self-test scenarios "
                 "diverge without a planted bug\n";
    ++failures;
  } else {
    std::cout << "self-test 3 (clean baseline): agree\n";
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scenarios = 200;
  std::uint64_t seed = 1;
  FaultFilter filter = FaultFilter::kMixed;
  KernelFilter kernel_filter = KernelFilter::kMixed;
  BatchingFilter batching_filter = BatchingFilter::kMixed;
  std::string replay;
  bool self_test = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto next_uint = [&]() -> std::uint64_t {
      const char* text = next();
      const std::optional<std::uint64_t> value = mbts::parse_uint(text);
      if (!value) {
        std::cerr << arg << " must be a non-negative integer: " << text
                  << "\n";
        std::exit(2);
      }
      return *value;
    };
    if (arg == "--scenarios") {
      scenarios = next_uint();
    } else if (arg == "--seed") {
      seed = next_uint();
    } else if (arg == "--replay") {
      replay = next();
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--faults") {
      const std::string mode = next();
      if (mode == "on") filter = FaultFilter::kOn;
      else if (mode == "off") filter = FaultFilter::kOff;
      else if (mode == "mixed") filter = FaultFilter::kMixed;
      else {
        std::cerr << "--faults takes on|off|mixed\n";
        return 2;
      }
    } else if (arg == "--kernels") {
      const std::string mode = next();
      if (mode == "on") kernel_filter = KernelFilter::kOn;
      else if (mode == "off") kernel_filter = KernelFilter::kOff;
      else if (mode == "mixed") kernel_filter = KernelFilter::kMixed;
      else {
        std::cerr << "--kernels takes on|off|mixed\n";
        return 2;
      }
    } else if (arg == "--batching") {
      const std::string mode = next();
      if (mode == "on") batching_filter = BatchingFilter::kOn;
      else if (mode == "off") batching_filter = BatchingFilter::kOff;
      else if (mode == "mixed") batching_filter = BatchingFilter::kMixed;
      else {
        std::cerr << "--batching takes on|off|mixed\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: diff_fuzz [--scenarios N] [--seed S] "
                   "[--faults on|off|mixed] [--kernels on|off|mixed] "
                   "[--batching on|off|mixed] [--replay STR] [--self-test]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  if (self_test) return run_self_test(seed);
  if (!replay.empty()) return run_replay(replay);
  return run_sweep(scenarios, seed, filter, kernel_filter, batching_filter);
}

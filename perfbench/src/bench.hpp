// Shared vocabulary of the repo benchmark (perfbench/README.md).
//
// Each workload is a function that runs for a wall-clock budget, checks
// every output it produced, and returns named metrics. main.cpp turns the
// result into the one-line JSON report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "market/market.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  /// False when any output check of the run failed.
  bool correct = true;
  /// Bids the timed repetitions attempted, and those not answered with
  /// AWARD/REJECT, lost, or belonging to a repetition whose check failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// Wall-clock budget of the measured repetitions.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the per-layer split.
  bool trace = false;
  /// Online cores; every workload sizes its threads against it.
  std::size_t nproc = 1;
  /// Where a traced run writes its spans (JSONL), relative to the cwd.
  std::string span_dir = ".bench_out";
};

WorkloadResult run_serve_mixed(const RunOptions& options);
WorkloadResult run_batch_overload(const RunOptions& options);

// ---- helpers shared by the workloads ----

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Economy line plus one line per site, every float at %.17g: two runs
/// agree on this string iff their MarketStats are bit-identical.
std::string identity(const mbts::MarketStats& stats);

/// Market accounting invariants of a drained run over `bids` bids; returns
/// "" when they hold, else the first violation.
std::string check_accounting(const mbts::Market& market,
                             const mbts::MarketStats& stats,
                             std::size_t bids);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Quote fan-out of a drained market, from its broker history: quotes
/// polled per negotiation and the share of them that accepted.
struct QuoteCounts {
  double quotes_per_bid = 0.0;
  double accept_ratio = 0.0;
};
QuoteCounts quote_counts(mbts::Market& market);

}  // namespace perfbench

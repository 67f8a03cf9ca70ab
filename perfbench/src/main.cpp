// mbts_e2e: the repo benchmark's workload runner (perfbench/README.md).
//
//   mbts_e2e --workload serve_mixed|batch_overload
//            --seed N --seconds S --trace 0|1
//
// Runs one workload for S seconds, checks its outputs, and prints as the
// last line of stdout one JSON object: correct, attempted, failed, and the
// end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
// Diagnostics go to stderr.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::WorkloadResult;

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

struct NameUnit {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; every run reports all of its set.
constexpr NameUnit kEndToEnd[] = {
    {"setup_s", "s"},         {"bids_per_s", "bids/s"},
    {"p50_ms", "ms"},         {"lockstep_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};
// A layer a workload does not run reads 0.
constexpr NameUnit kPerLayer[] = {
    {"serve.protocol.parse_ns", "ns"},
    {"serve.broker_service.outcome_p50_us", "us"},
    {"serve.broker_service.outcome_p99_us", "us"},
    {"serve.broker_service.batch_mean", "bids"},
    {"serve.broker_service.queue_peak", "bids"},
    {"serve.server.transport_p50_us", "us"},
    {"serve.server.write_backpressure", "count"},
    {"market.broker.negotiate_self_us", "us"},
    {"market.site_agent.quote_us_mean", "us"},
    {"market.site_agent.quote_us_p99", "us"},
    {"market.site_agent.quotes_per_bid", "count"},
    {"market.site_agent.accept_ratio", "ratio"},
    {"core.scheduler.dispatch_us_mean", "us"},
    {"core.scheduler.dispatch_us_p99", "us"},
    {"core.scheduler.dispatches_per_bid", "count"},
    {"sim.engine.events_per_bid", "count"},
    {"sim.engine.cancel_ratio", "ratio"},
    {"sim.engine.untracked_share", "ratio"},
    {"sim.sharded_engine.barriers", "count"},
    {"sim.sharded_engine.batched_epochs", "count"},
    {"sim.sharded_engine.vs_single_ratio", "ratio"},
    {"workload.generate_s", "s"},
    {"trace.overhead_pct", "%"},
    {"tail.p99_ms", "ms"},
    {"tail.lockstep_p99_ms", "ms"},
};

/// Threads (driver + reactors + engine, or coordinator + shards) and
/// connections each workload uses; both must fit the online cores.
struct Footprint {
  std::size_t threads;
  std::size_t connections;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "mbts_e2e: %s\nusage: mbts_e2e --workload serve_mixed|"
               "batch_overload --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

bool parse_uint(const char* text, unsigned long long* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    unsigned long long n = 0;
    if (value == nullptr) return usage(("missing value for " + flag).c_str());
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && parse_uint(value, &n)) {
      options.seed = n;
    } else if (flag == "--seconds" && parse_uint(value, &n) && n >= 1 &&
               n <= 600) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_uint(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }

  if (!optimized_build())
    return usage("refusing to measure a non-Release build "
                 "(needs __OPTIMIZE__ and NDEBUG)");
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  options.nproc = online > 0 ? static_cast<std::size_t>(online) : 1;

  WorkloadResult (*run)(const RunOptions&) = nullptr;
  Footprint footprint{1, 0};
  if (workload == "serve_mixed") {
    run = &perfbench::run_serve_mixed;
    footprint = {4, 4};  // driver + 2 reactors + engine; 1+3 connections
  } else if (workload == "batch_overload") {
    run = &perfbench::run_batch_overload;
    // Traced runs add a sharded run: coordinator + nproc-1 (>= 2) shards.
    footprint = {options.trace ? std::max<std::size_t>(3, options.nproc) : 1,
                 0};
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (footprint.threads > options.nproc ||
      footprint.connections > options.nproc) {
    std::fprintf(stderr,
                 "mbts_e2e: %s needs %zu threads and %zu connections, "
                 "host has %zu cores\n",
                 workload.c_str(), footprint.threads, footprint.connections,
                 options.nproc);
    return 1;
  }
  if (options.trace && ::mkdir(options.span_dir.c_str(), 0755) != 0 &&
      errno != EEXIST) {
    std::fprintf(stderr, "mbts_e2e: cannot create %s\n",
                 options.span_dir.c_str());
    return 1;
  }

  std::fprintf(stderr,
               "mbts_e2e: workload=%s seed=%llu seconds=%.0f trace=%d "
               "nproc=%zu build=release\n",
               workload.c_str(), static_cast<unsigned long long>(options.seed),
               options.seconds, options.trace ? 1 : 0, options.nproc);
  WorkloadResult result = run(options);
  if (result.failed > result.attempted) result.failed = result.attempted;

  std::string metrics;
  const auto emit = [&](const NameUnit* set, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      double value = 0.0;
      bool found = false;
      for (const Metric& m : result.metrics) {
        if (m.name == set[k].name) {
          value = m.value;
          found = true;
        }
      }
      if (!found && !options.trace) {
        std::fprintf(stderr, "mbts_e2e: %s did not measure %s\n",
                     workload.c_str(), set[k].name);
        result.correct = false;
      }
      if (!std::isfinite(value)) {
        std::fprintf(stderr, "mbts_e2e: %s is not finite\n", set[k].name);
        result.correct = false;
        value = 0.0;
      }
      char entry[256];
      std::snprintf(entry, sizeof(entry),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    k == 0 ? "" : ", ", set[k].name, value, set[k].unit);
      metrics += entry;
    }
  };
  if (options.trace) {
    emit(kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]));
  } else {
    emit(kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

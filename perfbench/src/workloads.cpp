// The workloads of the repo benchmark (perfbench/README.md).
//
// Every workload repeats one self-contained unit — set up, run the timed
// region, check the output — until the wall-clock budget is spent, and
// reports the median over repetitions. Untraced repetitions produce the
// end-to-end metrics; traced ones attach the layer observers of
// layer_trace.hpp and produce the per-layer split, alternating with
// untraced ones so the tracing overhead is measured in the same run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "bench.hpp"
#include "experiments/fingerprint.hpp"
#include "layer_trace.hpp"
#include "serve/broker_service.hpp"
#include "serve/preset.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_driver.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace perfbench {

using namespace mbts;

namespace {

// ---- sizes (README.md "Workloads" gives the reasoning) ----

/// serve_mixed: Fig. 1 trio at load 1, 3 pipelined connections with a
/// fixed 32-tag window plus 1 lockstep connection, 2 reactor threads.
constexpr std::size_t kServeBids = 30000;
constexpr double kServeLoad = 1.0;
constexpr std::size_t kServePipelined = 3;
constexpr std::size_t kServeWindow = 32;
constexpr std::size_t kServeReactors = 2;

/// batch_overload: the same trio at ~1.5x its capacity (Fig. 6 regime).
constexpr std::size_t kBatchBids = 12000;
constexpr double kBatchLoad = 4.0;


/// Setup-only rounds at the start of a run, so setup_s is a median over
/// many samples even when each repetition is long.
constexpr std::size_t kExtraSetups = 8;
constexpr std::size_t kMinReps = 3;

/// A run's seed yields kVariants traces and repetition i runs variant
/// i mod kVariants: the run's median then averages over eight inputs, so
/// it depends on the seed far less than one trace's cost does.
constexpr std::size_t kVariants = 8;

/// The seed whose batch_overload fingerprints are pinned below.
constexpr std::uint64_t kDefaultSeed = 1;

/// Stream key of the workload traces under the run's seed.
constexpr std::uint64_t kTraceStream = 0xBE7C;

/// batch_overload's economy line of each trace variant under
/// kDefaultSeed: the output check of that seed. A change to any of them is
/// a behavior change of the market.
constexpr const char* kPinnedBatchLines[kVariants] = {
    "batch_overload/0 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-27470990.497777082 "
    "agreed=-8587872.4888118599 violated=4702 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=739417.06867447298 site1=387999.02633307473 "
    "site2=-28598406.592784628\n",
    "batch_overload/1 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-27892511.50035695 "
    "agreed=-9000368.9520048257 violated=4690 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=747631.64585627324 site1=379377.6829012119 "
    "site2=-29019520.829114433\n",
    "batch_overload/2 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-27066377.747642938 "
    "agreed=-8420115.36592637 violated=4610 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=729937.33962576103 site1=372443.65034937643 "
    "site2=-28168758.737618074\n",
    "batch_overload/3 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-27581085.569402762 "
    "agreed=-8698234.5763017628 violated=4532 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=749533.48227720708 site1=371729.56832158292 "
    "site2=-28702348.620001551\n",
    "batch_overload/4 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-30037001.10749349 "
    "agreed=-9892700.8377073146 violated=4731 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=728980.52201701293 site1=385569.46395487565 "
    "site2=-31151551.093465377\n",
    "batch_overload/5 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-30604396.973399725 "
    "agreed=-9958440.4097676706 violated=4772 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=720626.51271287084 site1=385305.97202728852 "
    "site2=-31710329.458139885\n",
    "batch_overload/6 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-30329661.985070866 "
    "agreed=-9672802.6449612826 violated=4759 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=731347.10500402085 site1=401551.14445942594 "
    "site2=-31462560.234534312\n",
    "batch_overload/7 bids=12000 awarded=12000 rejected=0 "
    "unaffordable=0 revenue=-30395447.587508362 "
    "agreed=-9907314.7828886006 violated=4809 outages=0 breached=0 "
    "timeouts=0 retries=0 rebids=0 re_awards=0 "
    "site0=750273.81255092705 site1=378633.04640919965 "
    "site2=-31524354.446468487\n",
};

/// Ordered named samples; reports the per-name median.
class Samples {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    auto [it, inserted] = values_.try_emplace(name);
    if (inserted) order_.emplace_back(name, unit);
    it->second.push_back(value);
  }
  /// Median of one name's samples; 0 when it has none.
  double median_of(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : median(it->second);
  }
  std::vector<Metric> medians() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : order_)
      out.push_back(Metric{name, median(values_.at(name)), unit});
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> order_;
  std::map<std::string, std::vector<double>> values_;
};

/// Calls rep(variant, traced) until `seconds` have passed (at least
/// kMinReps times). A traced run alternates untraced and traced
/// repetitions, the pair on the same trace variant.
template <class Rep>
void repeat_for(const RunOptions& options, Rep&& rep) {
  const Clock::time_point start = Clock::now();
  const std::size_t per_variant = options.trace ? 2 : 1;
  for (std::size_t i = 0;
       i < kMinReps * per_variant ||
       seconds_between(start, Clock::now()) < options.seconds;
       ++i) {
    rep((i / per_variant) % kVariants, options.trace && i % 2 == 1);
  }
}

Trace make_trace(double load, std::size_t bids, std::uint64_t seed,
                 std::size_t variant) {
  Xoshiro256 rng = SeedSequence(seed).stream(kTraceStream, variant);
  return generate_trace(presets::admission_mix(load, bids), rng);
}

void fail(WorkloadResult& result, std::uint64_t bids,
          const std::string& why) {
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
  result.correct = false;
  result.failed += bids;
}

/// Batch latency probes: p50/p99 of the bid-to-bid interval, and of the
/// bid's own negotiation ("lockstep": what a lone bid waits for).
void add_batch_latencies(Samples& e2e, const BidLatencyProbe& probe) {
  e2e.add("p50_ms", "ms", quantile(probe.interval_ms, 0.50));
  e2e.add("p99_ms", "ms", quantile(probe.interval_ms, 0.99));
  e2e.add("lockstep_p50_ms", "ms", quantile(probe.decide_ms, 0.50));
  e2e.add("lockstep_p99_ms", "ms", quantile(probe.decide_ms, 0.99));
}

/// The market split of a traced single-market run.
void add_market_layers(Samples& layers, const LayerTracer& tracer,
                       Market& market, std::size_t bids) {
  const double per_bid = 1.0 / static_cast<double>(bids);
  const std::uint64_t scheduled = tracer.scheduled();
  const std::vector<double>& self = tracer.negotiate_self_us();
  double self_sum = 0.0;
  for (const double us : self) self_sum += us;
  layers.add("market.broker.negotiate_self_us", "us",
             self.empty() ? 0.0 : self_sum / static_cast<double>(self.size()));
  const std::vector<double>& quotes = tracer.quote_us();
  double quote_sum = 0.0;
  for (const double us : quotes) quote_sum += us;
  layers.add("market.site_agent.quote_us_mean", "us",
             quotes.empty() ? 0.0
                            : quote_sum / static_cast<double>(quotes.size()));
  layers.add("market.site_agent.quote_us_p99", "us", quantile(quotes, 0.99));
  const QuoteCounts counts = quote_counts(market);
  layers.add("market.site_agent.quotes_per_bid", "count",
             counts.quotes_per_bid);
  layers.add("market.site_agent.accept_ratio", "ratio", counts.accept_ratio);
  const std::vector<double>& dispatch = tracer.dispatch_us();
  double dispatch_sum = 0.0;
  for (const double us : dispatch) dispatch_sum += us;
  layers.add("core.scheduler.dispatch_us_mean", "us",
             dispatch.empty()
                 ? 0.0
                 : dispatch_sum / static_cast<double>(dispatch.size()));
  layers.add("core.scheduler.dispatch_us_p99", "us",
             quantile(dispatch, 0.99));
  layers.add("core.scheduler.dispatches_per_bid", "count",
             static_cast<double>(dispatch.size()) * per_bid);
  layers.add("sim.engine.events_per_bid", "count",
             static_cast<double>(tracer.executed()) * per_bid);
  layers.add("sim.engine.cancel_ratio", "ratio",
             scheduled == 0 ? 0.0
                            : static_cast<double>(tracer.cancelled()) /
                                  static_cast<double>(scheduled));
  layers.add("sim.engine.untracked_share", "ratio",
             (tracer.wall_s() - tracer.event_s()) / tracer.wall_s());
}

/// Prints the traced split of one repetition: per-kind event self time,
/// the quote share inside negotiation, and the untracked residual. The
/// parts sum to the traced wall by construction.
void print_split(const char* workload, const LayerTracer& tracer) {
  static const char* const kKinds[kNumEventKinds] = {
      "closure",      "task_completion", "dispatch",    "task_arrival",
      "market_bid",   "broker_retry",    "market_rebid", "fault_down",
      "fault_up",     "probe"};
  double quote_s = 0.0;
  for (const double us : tracer.quote_us()) quote_s += us * 1e-6;
  std::fprintf(stderr, "[%s] traced wall %.6f s:", workload,
               tracer.wall_s());
  double parts = 0.0;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const double s = tracer.kind_s()[k];
    if (s <= 0.0) continue;
    parts += s;
    std::fprintf(stderr, " %s=%.6f", kKinds[k], s);
  }
  const double residual = tracer.wall_s() - tracer.event_s();
  parts += residual;
  std::fprintf(stderr,
               " untracked=%.6f (sum %.6f; quotes inside market_bid %.6f)\n",
               residual, parts, quote_s);
}

void write_spans(const RunOptions& options, const char* workload,
                 const LayerTracer& tracer) {
  const std::string path = options.span_dir + "/" + workload + "_spans.jsonl";
  if (!tracer.write_jsonl(path))
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

}  // namespace

// ---------------------------------------------------------------- helpers

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string identity(const MarketStats& stats) {
  std::string out = fingerprint_line("market", stats);
  for (std::size_t i = 0; i < stats.site_stats.size(); ++i)
    out += fingerprint_line("site" + std::to_string(i), stats.site_stats[i]);
  return out;
}

std::string check_accounting(const Market& market, const MarketStats& stats,
                             std::size_t bids) {
  if (stats.bids != bids)
    return "bids=" + std::to_string(stats.bids) + ", injected " +
           std::to_string(bids);
  if (stats.awarded + stats.rejected_everywhere + stats.unaffordable != bids)
    return "awarded + rejected + unaffordable != bids";
  std::size_t accepted = 0;
  double total = 0.0;
  for (std::size_t s = 0; s < market.sites().size(); ++s) {
    double revenue = 0.0;
    for (const Contract& contract : market.sites()[s]->contracts()) {
      if (!contract.settled) return "a contract was left unsettled";
      if (contract.settled_price > contract.agreed_price + 1e-9)
        return "a contract settled above its agreed price";
      revenue += contract.settled_price;
    }
    if (std::fabs(revenue - stats.site_revenue[s]) >
        1e-6 * std::max(1.0, std::fabs(revenue)))
      return "site revenue does not re-add from its contracts";
    total += stats.site_revenue[s];
    accepted += market.sites()[s]->contracts().size();
  }
  if (accepted != stats.awarded) return "contracts != awarded bids";
  if (std::fabs(total - stats.total_revenue) >
      1e-6 * std::max(1.0, std::fabs(total)))
    return "total revenue does not re-add from the sites";
  return "";
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

QuoteCounts quote_counts(Market& market) {
  std::size_t rounds = 0;
  std::size_t polled = 0;
  std::size_t accepted = 0;
  for (const NegotiationResult& r : market.broker().history()) {
    ++rounds;
    polled += r.quotes.size();
    for (const Quote& q : r.quotes) accepted += q.accepted ? 1 : 0;
  }
  QuoteCounts counts;
  if (rounds > 0)
    counts.quotes_per_bid =
        static_cast<double>(polled) / static_cast<double>(rounds);
  if (polled > 0)
    counts.accept_ratio =
        static_cast<double>(accepted) / static_cast<double>(polled);
  return counts;
}

// ------------------------------------------------ shared by the workloads

namespace {

/// One repetition's inputs: a trace variant and a freshly built market.
struct MarketSetup {
  Trace trace;
  std::unique_ptr<Market> market;
};

MarketSetup setup_market(const RunOptions& options, MarketConfig config,
                         double load, std::size_t bids, std::size_t variant,
                         Samples& e2e, Samples& layers) {
  const Clock::time_point t0 = Clock::now();
  MarketSetup s;
  s.trace = make_trace(load, bids, options.seed, variant);
  const Clock::time_point t1 = Clock::now();
  s.market = std::make_unique<Market>(std::move(config));
  const Clock::time_point t2 = Clock::now();
  e2e.add("setup_s", "s", seconds_between(t0, t2));
  layers.add("workload.generate_s", "s", seconds_between(t0, t1));
  return s;
}

/// Untraced repetition: inject + run timed, bid latencies from the probe.
MarketStats timed_run(const char* workload, MarketSetup& s, Samples& e2e,
                      std::vector<double>& untraced_bps) {
  Market& market = *s.market;
  BidLatencyProbe probe;
  market.engine().set_observer(&probe);
  const Clock::time_point t0 = Clock::now();
  market.inject(s.trace);
  MarketStats stats = market.run();
  const Clock::time_point t1 = Clock::now();
  probe.finish();
  market.engine().set_observer(nullptr);
  const double bps =
      static_cast<double>(s.trace.size()) / seconds_between(t0, t1);
  untraced_bps.push_back(bps);
  e2e.add("bids_per_s", "bids/s", bps);
  std::fprintf(stderr, "[%s] rep: %.1f bids/s\n", workload, bps);
  add_batch_latencies(e2e, probe);
  return stats;
}

/// Traced run of a single-engine, fault-free market. There run() is
/// exactly engine().run() followed by collect_stats(); calling them apart
/// keeps settlement out of the last event's span (it lands in the
/// untracked residual instead).
MarketStats traced_single_run(Market& market, const Trace& trace,
                              LayerTracer& tracer) {
  market.engine().set_observer(&tracer);
  tracer.wrap_quotes(market);
  tracer.begin();
  market.inject(trace);
  market.engine().run();
  tracer.close_events();
  MarketStats stats = market.collect_stats();
  tracer.finish();
  market.engine().set_observer(nullptr);
  return stats;
}

/// The market split of one traced repetition, its printed split and spans.
void report_traced(const RunOptions& options, const char* workload,
                   const LayerTracer& tracer, Market& market,
                   std::size_t bids, Samples& layers,
                   std::vector<double>& traced_bps) {
  traced_bps.push_back(static_cast<double>(bids) / tracer.wall_s());
  add_market_layers(layers, tracer, market, bids);
  print_split(workload, tracer);
  write_spans(options, workload, tracer);
}

/// The run's metrics: per-layer medians plus the tracing overhead and the
/// latency tails of the run's untraced repetitions, or the end-to-end
/// medians plus peak RSS.
void finish(const RunOptions& options, Samples& e2e, Samples& layers,
            const std::vector<double>& untraced_bps,
            const std::vector<double>& traced_bps, WorkloadResult& result) {
  if (options.trace) {
    // Repetitions alternate untraced/traced on one variant: compare within
    // each adjacent pair, so the host's speed phases cancel.
    std::vector<double> ratios;
    const std::size_t pairs = std::min(untraced_bps.size(), traced_bps.size());
    for (std::size_t k = 0; k < pairs; ++k)
      ratios.push_back(untraced_bps[k] / traced_bps[k]);
    layers.add("trace.overhead_pct", "%", 100.0 * (median(ratios) - 1.0));
    layers.add("tail.p99_ms", "ms", e2e.median_of("p99_ms"));
    layers.add("tail.lockstep_p99_ms", "ms", e2e.median_of("lockstep_p99_ms"));
    result.metrics = layers.medians();
  } else {
    e2e.add("peak_rss_mb", "MB", peak_rss_mb());
    result.metrics = e2e.medians();
  }
}

}  // namespace

// ---------------------------------------------------------- batch_overload

WorkloadResult run_batch_overload(const RunOptions& options) {
  WorkloadResult result;
  Samples e2e;
  Samples layers;
  std::vector<double> untraced_bps;
  std::vector<double> traced_bps;
  const auto setup = [&](std::size_t variant) {
    return setup_market(options, serve::fig1_market(options.seed), kBatchLoad,
                        kBatchBids, variant, e2e, layers);
  };
  for (std::size_t i = 0; i < kExtraSetups; ++i) setup(i % kVariants);

  std::map<std::size_t, std::string> first_identity;
  std::map<std::size_t, std::vector<double>> untraced_s;
  const auto check = [&](std::size_t variant, Market& market,
                         const MarketStats& stats) {
    const std::string id = identity(stats);
    auto [first, inserted] = first_identity.try_emplace(variant, id);
    if (inserted) {
      const std::string line = fingerprint_line(
          "batch_overload/" + std::to_string(variant), stats);
      if (options.seed == kDefaultSeed && line != kPinnedBatchLines[variant])
        fail(result, kBatchBids,
             "fingerprint differs from the pinned line: " + line);
    } else if (id != first->second) {
      fail(result, kBatchBids, "repetition is not bit-identical to the first");
    }
    const std::string why = check_accounting(market, stats, kBatchBids);
    if (!why.empty()) fail(result, kBatchBids, why);
  };

  repeat_for(options, [&](std::size_t variant, bool traced) {
    MarketSetup s = setup(variant);
    result.attempted += kBatchBids;
    if (!traced) {
      const MarketStats stats = timed_run("batch_overload", s, e2e,
                                          untraced_bps);
      untraced_s[variant].push_back(kBatchBids / untraced_bps.back());
      check(variant, *s.market, stats);
      return;
    }
    LayerTracer tracer(&s.trace);
    const MarketStats stats = traced_single_run(*s.market, s.trace, tracer);
    report_traced(options, "batch_overload", tracer, *s.market, kBatchBids,
                  layers, traced_bps);
    check(variant, *s.market, stats);
  });

  // The sim/sharded_engine layer, after the traced repetitions so its
  // worker threads disturb none of them: each variant's trace on the trio
  // split over nproc - 1 shards, shipped defaults otherwise (epoch batching
  // on). It must reproduce the variant's single-engine identity; its wall
  // is compared with the median untraced single-engine wall of that trace.
  if (options.trace) {
    for (const auto& [variant, single_s] : untraced_s) {
      const Trace trace = make_trace(kBatchLoad, kBatchBids, options.seed,
                                     variant);
      MarketConfig sharded_config = serve::fig1_market(options.seed);
      sharded_config.shards = options.nproc - 1;
      Market sharded(sharded_config);
      const Clock::time_point t0 = Clock::now();
      sharded.inject(trace);
      const MarketStats stats = sharded.run();
      const double sharded_s = seconds_between(t0, Clock::now());
      if (!sharded.sharded() ||
          identity(stats) != first_identity.at(variant))
        fail(result, kBatchBids, "sharded run differs from the single engine");
      layers.add("sim.sharded_engine.barriers", "count",
                 static_cast<double>(sharded.barriers()));
      layers.add("sim.sharded_engine.batched_epochs", "count",
                 static_cast<double>(sharded.batched_epochs()));
      layers.add("sim.sharded_engine.vs_single_ratio", "ratio",
                 sharded_s / median(single_s));
    }
  }
  finish(options, e2e, layers, untraced_bps, traced_bps, result);
  return result;
}

// ------------------------------------------------------------- serve_mixed

namespace {

/// One served session: clock, service, server and the client sockets.
/// Members are destroyed in reverse: the sockets first, then the server
/// (its destructor stops it) before the service it posts into (whose
/// destructor drains it), and the service before the clock it reads.
struct ServeRig {
  Trace trace;
  std::vector<std::string> bodies;
  VirtualPacingClock clock;
  std::unique_ptr<serve::BrokerService> service;
  std::unique_ptr<serve::ServeServer> server;
  std::vector<int> fds;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() { close_all(fds); }
};

/// Submits the trace straight into a BrokerService (no sockets) with the
/// same clock discipline and total in-flight window as the served drive;
/// returns submit -> callback latencies in microseconds.
std::vector<double> engine_only_outcomes(const Trace& trace,
                                         std::uint64_t seed,
                                         std::size_t in_flight) {
  VirtualPacingClock clock;
  serve::ServeConfig config;
  config.market = serve::fig1_market(seed);
  serve::BrokerService service(config, &clock);
  service.start();
  const std::size_t n = trace.tasks.size();
  std::vector<Clock::time_point> sent(n);
  std::vector<double> us;
  us.reserve(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return i - done < in_flight; });
    }
    const double now = clock.now();
    if (trace.tasks[i].arrival > now) clock.advance(trace.tasks[i].arrival - now);
    sent[i] = Clock::now();
    const auto status = service.submit(
        trace.tasks[i], [&, i](const serve::Outcome&) {
          const Clock::time_point at = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          us.push_back(1e6 * seconds_between(sent[i], at));
          ++done;
          cv.notify_one();
        });
    if (status != serve::BrokerService::SubmitStatus::kQueued) {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == n; });
  }
  service.drain();
  return us;
}

/// ns per line of parse_request + bid_task over the run's own bid lines.
double parse_ns(const std::vector<std::string>& bodies) {
  std::vector<std::string> lines;
  lines.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i)
    lines.push_back("BID t" + std::to_string(i) + " " + bodies[i]);
  std::vector<double> passes;
  double sink = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    serve::Request request;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    for (const std::string& line : lines) {
      if (!serve::parse_request(line, &request, &error)) return -1.0;
      sink += serve::bid_task(request).runtime;
    }
    passes.push_back(1e9 * seconds_between(t0, Clock::now()) /
                     static_cast<double>(lines.size()));
  }
  return sink > 0.0 ? median(passes) : -1.0;
}

}  // namespace

WorkloadResult run_serve_mixed(const RunOptions& options) {
  WorkloadResult result;
  Samples e2e;
  Samples layers;
  std::vector<double> untraced_bps;
  std::vector<double> traced_bps;
  // One repetition carries only a few hundred lockstep bids, so lockstep
  // latencies are pooled over the run (p99 then has >= 10 samples beyond).
  std::vector<double> lockstep_ms;

  const auto setup = [&](std::size_t variant) -> std::unique_ptr<ServeRig> {
    const Clock::time_point t0 = Clock::now();
    auto rig = std::make_unique<ServeRig>();
    rig->trace = make_trace(kServeLoad, kServeBids, options.seed, variant);
    rig->bodies.reserve(kServeBids);
    for (const Task& task : rig->trace.tasks)
      rig->bodies.push_back(bid_body(task));
    const Clock::time_point t1 = Clock::now();
    serve::ServeConfig config;
    config.market = serve::fig1_market(options.seed);
    rig->service = std::make_unique<serve::BrokerService>(config, &rig->clock);
    rig->service->start();
    serve::ServerConfig server_config;
    server_config.session_threads = kServeReactors;
    rig->server =
        std::make_unique<serve::ServeServer>(server_config, rig->service.get());
    rig->server->start();
    rig->fds = connect_loopback(rig->server->port(), 1 + kServePipelined);
    const Clock::time_point t2 = Clock::now();
    if (rig->fds.empty()) return nullptr;
    e2e.add("setup_s", "s", seconds_between(t0, t2));
    layers.add("workload.generate_s", "s", seconds_between(t0, t1));
    return rig;
  };
  for (std::size_t i = 0; i < kExtraSetups; ++i) setup(i % kVariants);

  repeat_for(options, [&](std::size_t variant, bool traced) {
    result.attempted += kServeBids;
    std::unique_ptr<ServeRig> rig = setup(variant);
    if (!rig) {
      fail(result, kServeBids, "could not connect to the server");
      return;
    }
    const DriveResult drive = drive_closed_loop(
        rig->fds, rig->trace, rig->bodies, kServeWindow, rig->clock);
    close_all(rig->fds);
    rig->server->stop();
    const MarketStats stats = rig->service->drain();

    // Output check: every bid answered once with AWARD/REJECT, and the
    // drained economy bit-identical to a batch replay of what it admitted.
    if (!drive.error.empty()) fail(result, 0, "drive: " + drive.error);
    if (drive.bad > 0) {
      result.failed += drive.bad;
      fail(result, 0, std::to_string(drive.bad) + " bids not answered "
                      "AWARD/REJECT exactly once");
    }
    if (rig->service->admitted() != kServeBids)
      fail(result, 0, "service admitted " +
                          std::to_string(rig->service->admitted()) + " bids");
    const Trace& admitted = rig->service->admitted_trace();
    Market replay(serve::fig1_market(options.seed));
    if (!traced) {
      // The replay is also timed: it is the base of trace.overhead_pct.
      const Clock::time_point t0 = Clock::now();
      replay.inject(admitted);
      const MarketStats replayed = replay.run();
      untraced_bps.push_back(kServeBids / seconds_between(t0, Clock::now()));
      if (identity(replayed) != identity(stats))
        fail(result, kServeBids, "drained stats differ from batch replay");
      const double bps = kServeBids / drive.wall_s;
      e2e.add("bids_per_s", "bids/s", bps);
      std::fprintf(stderr, "[serve_mixed] rep: %.1f bids/s\n", bps);
      e2e.add("p50_ms", "ms", quantile(drive.pipelined_ms, 0.50));
      e2e.add("p99_ms", "ms", quantile(drive.pipelined_ms, 0.99));
      lockstep_ms.insert(lockstep_ms.end(), drive.lockstep_ms.begin(),
                         drive.lockstep_ms.end());
      return;
    }

    // Traced: the market split comes from a traced batch replay of the
    // admitted trace; the serve split from counters, an engine-only drive
    // and the protocol parser timed over the same lines.
    LayerTracer tracer(&admitted);
    const MarketStats replayed = traced_single_run(replay, admitted, tracer);
    if (identity(replayed) != identity(stats))
      fail(result, kServeBids, "drained stats differ from traced replay");
    report_traced(options, "serve_mixed", tracer, replay, kServeBids, layers,
                  traced_bps);

    const std::vector<double> outcome_us = engine_only_outcomes(
        rig->trace, options.seed, 1 + kServePipelined * kServeWindow);
    const double served_p50_us = 1e3 * quantile(drive.pipelined_ms, 0.50);
    const double engine_p50_us = quantile(outcome_us, 0.50);
    layers.add("serve.protocol.parse_ns", "ns", parse_ns(rig->bodies));
    layers.add("serve.broker_service.outcome_p50_us", "us", engine_p50_us);
    layers.add("serve.broker_service.outcome_p99_us", "us",
               quantile(outcome_us, 0.99));
    const serve::BrokerService& service = *rig->service;
    layers.add("serve.broker_service.batch_mean", "bids",
               service.admission_batches() == 0
                   ? 0.0
                   : static_cast<double>(service.batched_bids()) /
                         static_cast<double>(service.admission_batches()));
    layers.add("serve.broker_service.queue_peak", "bids",
               static_cast<double>(service.peak_queue_depth()));
    layers.add("serve.server.transport_p50_us", "us",
               served_p50_us - engine_p50_us);
    layers.add("serve.server.write_backpressure", "count",
               static_cast<double>(rig->server->write_backpressure_events()));
  });

  e2e.add("lockstep_p50_ms", "ms", quantile(lockstep_ms, 0.50));
  e2e.add("lockstep_p99_ms", "ms", quantile(lockstep_ms, 0.99));
  finish(options, e2e, layers, untraced_bps, traced_bps, result);
  return result;
}

}  // namespace perfbench

// Outside-in layer timing for the repo benchmark.
//
// Nothing here is compiled into the program under test: the benchmark
// attaches these objects through hooks the market already exposes —
// SimEngine::set_observer (event lifecycle) and Broker::set_quote_poller
// (the per-site quote fan-out) — and derives each layer's time from them.
//
// The observer sees an event only when it starts executing, so an event's
// span runs from its own on_execute to the next one (or to finish()). Its
// span therefore includes the engine pop of the following event; that cost
// is the same for every kind and is reported with the event that precedes
// it. Whatever lies outside all event spans — inject before the first
// event, settlement after the last — is the untracked residual.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "market/market.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// Untraced-run latency probe on the broker engine: per-bid decision time
/// (a bid's negotiation event until the next event starts) and bid-to-bid
/// interval (one negotiation start to the next). Two clock reads per bid.
class BidLatencyProbe : public mbts::EventObserver {
 public:
  void on_schedule(mbts::EventId, double, int, mbts::EventKind) override {}
  void on_cancel(mbts::EventId) override {}
  void on_execute(mbts::EventId, double, int, mbts::EventKind kind) override;
  /// Closes a decision still open when the run ends.
  void finish();

  std::vector<double> decide_ms;
  std::vector<double> interval_ms;

 private:
  bool in_bid_ = false;
  bool seen_bid_ = false;
  Clock::time_point bid_start_{};
};

/// One recorded span; a span's id is its line index in the JSONL output.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // -1: root
  std::int64_t bid = -1;     // task id, -1 when not tied to one bid
};

/// Traced-run observer on the broker engine plus an optional quote-poller
/// wrapper. Spans are kept in memory and written as JSONL on request.
class LayerTracer : public mbts::EventObserver {
 public:
  /// `bids` gives the task id of the k-th negotiated bid (inject order);
  /// it must outlive the tracer's run.
  explicit LayerTracer(const mbts::Trace* bids);

  /// Replaces the broker's serial quote loop with an identical loop that
  /// times each SiteAgent::quote. Single-engine markets only: a sharded
  /// market installs its own poller, which must stay.
  void wrap_quotes(mbts::Market& market);

  /// Starts the wall clock of the traced region.
  void begin();
  /// Closes the event span still open (the engine has stopped).
  void close_events() { close_event(now_ns()); }
  /// Ends the traced region; closes the event span still open.
  void finish();

  void on_schedule(mbts::EventId, double, int, mbts::EventKind) override {
    ++scheduled_;
  }
  void on_cancel(mbts::EventId) override { ++cancelled_; }
  void on_execute(mbts::EventId, double, int, mbts::EventKind kind) override;

  // Results (valid after finish()).
  double wall_s() const { return wall_ns_ * 1e-9; }
  /// Sum of every event span (all kinds).
  double event_s() const { return event_ns_ * 1e-9; }
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::uint64_t executed() const { return executed_; }
  /// Per-bid negotiation self time: its event span minus its quote calls.
  const std::vector<double>& negotiate_self_us() const {
    return negotiate_self_us_;
  }
  const std::vector<double>& quote_us() const { return quote_us_; }
  const std::vector<double>& dispatch_us() const { return dispatch_us_; }
  /// Self time summed per event kind, indexed by EventKind.
  const std::vector<double>& kind_s() const { return kind_s_; }

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  void close_event(std::int64_t end_ns);

  const mbts::Trace* bids_trace_;
  Clock::time_point t0_{};
  std::int64_t wall_ns_ = 0;
  std::int64_t event_ns_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t bids_ = 0;

  // The event span currently open.
  bool open_ = false;
  mbts::EventKind open_kind_ = mbts::EventKind::kClosure;
  std::int64_t open_start_ = 0;
  std::int64_t open_span_ = -1;   // span id when the kind records one
  std::int64_t open_quote_ns_ = 0;

  std::vector<double> negotiate_self_us_;
  std::vector<double> quote_us_;
  std::vector<double> dispatch_us_;
  std::vector<double> kind_s_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

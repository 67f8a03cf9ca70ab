#include "layer_trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

using mbts::EventKind;

void BidLatencyProbe::on_execute(mbts::EventId, double, int, EventKind kind) {
  if (!in_bid_ && kind != EventKind::kMarketBid) return;
  const Clock::time_point now = Clock::now();
  if (in_bid_) {
    decide_ms.push_back(1e3 * seconds_between(bid_start_, now));
    in_bid_ = false;
  }
  if (kind == EventKind::kMarketBid) {
    if (seen_bid_)
      interval_ms.push_back(1e3 * seconds_between(bid_start_, now));
    seen_bid_ = true;
    in_bid_ = true;
    bid_start_ = now;
  }
}

void BidLatencyProbe::finish() {
  if (!in_bid_) return;
  decide_ms.push_back(1e3 * seconds_between(bid_start_, Clock::now()));
  in_bid_ = false;
}

LayerTracer::LayerTracer(const mbts::Trace* bids)
    : bids_trace_(bids), kind_s_(mbts::kNumEventKinds, 0.0) {}

std::int64_t LayerTracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

void LayerTracer::wrap_quotes(mbts::Market& market) {
  mbts::Broker& broker = market.broker();
  broker.set_quote_poller([this, &broker](const mbts::Bid& bid,
                                          const std::vector<std::size_t>& polled,
                                          std::vector<mbts::Quote>& quotes) {
    const auto& sites = broker.sites();
    for (const std::size_t i : polled) {
      const std::int64_t start = now_ns();
      quotes[i] = sites[i]->quote(bid);
      const std::int64_t end = now_ns();
      open_quote_ns_ += end - start;
      quote_us_.push_back(1e-3 * static_cast<double>(end - start));
      spans_.push_back(
          Span{"site_agent.quote", start, end, open_span_,
               static_cast<std::int64_t>(bid.task.id)});
    }
  });
}

void LayerTracer::begin() { t0_ = Clock::now(); }

void LayerTracer::close_event(std::int64_t end_ns) {
  if (!open_) return;
  const std::int64_t span_ns = end_ns - open_start_;
  event_ns_ += span_ns;
  kind_s_[static_cast<std::size_t>(open_kind_)] += 1e-9 * span_ns;
  if (open_kind_ == EventKind::kMarketBid) {
    negotiate_self_us_.push_back(
        1e-3 * static_cast<double>(span_ns - open_quote_ns_));
  } else if (open_kind_ == EventKind::kDispatch) {
    dispatch_us_.push_back(1e-3 * static_cast<double>(span_ns));
  }
  if (open_span_ >= 0) spans_[static_cast<std::size_t>(open_span_)].end_ns = end_ns;
  open_ = false;
  open_span_ = -1;
}

void LayerTracer::on_execute(mbts::EventId, double, int, EventKind kind) {
  const std::int64_t now = now_ns();
  close_event(now);
  ++executed_;
  open_ = true;
  open_kind_ = kind;
  open_start_ = now;
  open_quote_ns_ = 0;
  if (kind == EventKind::kMarketBid) {
    std::int64_t bid = -1;
    if (bids_trace_ != nullptr && bids_ < bids_trace_->tasks.size())
      bid = static_cast<std::int64_t>(bids_trace_->tasks[bids_].id);
    ++bids_;
    open_span_ = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{"market.negotiate", now, now, -1, bid});
  } else if (kind == EventKind::kDispatch) {
    open_span_ = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{"scheduler.dispatch", now, now, -1, -1});
  }
}

void LayerTracer::finish() {
  wall_ns_ = now_ns();
  close_event(wall_ns_);
}

bool LayerTracer::write_jsonl(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"bid\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.bid));
  }
  return std::ferror(out.get()) == 0;
}

}  // namespace perfbench

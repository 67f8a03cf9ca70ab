#include "market/broker.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace mbts {

std::string to_string(ClientStrategy strategy) {
  switch (strategy) {
    case ClientStrategy::kMaxExpectedValue:
      return "max-expected-value";
    case ClientStrategy::kEarliestCompletion:
      return "earliest-completion";
    case ClientStrategy::kRandom:
      return "random";
  }
  return "?";
}

std::optional<std::size_t> select_quote(const std::vector<Quote>& quotes,
                                        ClientStrategy strategy,
                                        Xoshiro256& rng) {
  // One pass, no index list: the first best quote wins ties (the
  // std::max_element/min_element rule), and kRandom draws over the
  // accepted quotes in site order.
  std::size_t accepted = 0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < quotes.size(); ++i) {
    if (!quotes[i].accepted) continue;
    const bool better =
        accepted == 0 ||
        (strategy == ClientStrategy::kMaxExpectedValue &&
         quotes[best].expected_price < quotes[i].expected_price) ||
        (strategy == ClientStrategy::kEarliestCompletion &&
         quotes[i].expected_completion < quotes[best].expected_completion);
    if (better) best = i;
    ++accepted;
  }
  if (accepted == 0) return std::nullopt;
  if (strategy != ClientStrategy::kRandom) return best;
  std::size_t draw = rng.below(accepted);
  for (std::size_t i = 0;; ++i)
    if (quotes[i].accepted && draw-- == 0) return i;
}

std::string to_string(PricingModel model) {
  switch (model) {
    case PricingModel::kBidPrice:
      return "bid-price";
    case PricingModel::kSecondPrice:
      return "second-price";
  }
  return "?";
}

Broker::Broker(std::vector<SiteAgent*> sites, ClientStrategy strategy,
               Xoshiro256 rng, PricingModel pricing, ClientLedger* ledger)
    : sites_(std::move(sites)), strategy_(strategy), pricing_(pricing),
      ledger_(ledger), rng_(rng) {
  MBTS_CHECK_MSG(!sites_.empty(), "broker needs at least one site");
  for (SiteAgent* site : sites_) MBTS_CHECK(site != nullptr);
}

void Broker::enable_retries(SimEngine& engine, const RetryPolicy& retry) {
  engine_ = &engine;
  retry_ = retry;
  engine_->register_handler(EventKind::kBrokerRetry, &Broker::handle_retry);
}

void Broker::handle_retry(SimEngine& engine, const EventPayload& payload) {
  (void)engine;
  auto& self = *static_cast<Broker*>(payload.target);
  const auto slot_index = static_cast<std::uint32_t>(payload.a);
  // The slab deque gives the slot a stable address, so the bid reference
  // stays valid even when attempt() schedules a further retry and claims a
  // fresh slot; this slot is only recyclable after attempt() returns.
  const RetrySlot& slot = self.retry_slab_[slot_index];
  self.attempt(slot.bid, slot.round, slot.rebid);
  self.free_retries_.push_back(slot_index);
}

NegotiationResult Broker::negotiate(const Bid& bid) {
  NegotiationResult result = negotiate_round(bid);
  history_.push_back(result);
  return result;
}

void Broker::submit(const Bid& bid) { attempt(bid, 0, /*is_rebid=*/false); }

void Broker::resubmit(const Bid& bid) {
  ++rebids_;
  if (trace_ != nullptr)
    trace_->record(trace_now(bid), TraceEventKind::kRebid, kNoSite,
                   bid.task.id);
  attempt(bid, 0, /*is_rebid=*/true);
}

double Broker::trace_now(const Bid& bid) const {
  return engine_ != nullptr ? engine_->now() : bid.task.arrival;
}

void Broker::attempt(const Bid& bid, std::size_t round, bool is_rebid) {
  NegotiationResult result = negotiate_round(bid);
  result.attempts = round + 1;
  result.rebid = is_rebid;

  // A round is retryable only when it failed for availability reasons: no
  // award, no budget verdict, and at least one site that never answered. In
  // a fault-free run no quote is ever unavailable, so this branch is dead
  // and submit() is bit-identical to negotiate().
  bool any_unavailable = false;
  for (const Quote& quote : result.quotes)
    if (quote.unavailable) any_unavailable = true;
  if (!result.awarded_site && !result.unaffordable && any_unavailable &&
      engine_ != nullptr && round + 1 < retry_.max_attempts) {
    ++retries_;
    const double delay = std::min(
        retry_.max_delay,
        std::ldexp(retry_.base_delay, static_cast<int>(round)));
    if (trace_ != nullptr)
      trace_->record(trace_now(bid), TraceEventKind::kRetry, kNoSite,
                     bid.task.id, static_cast<double>(round + 2), delay);
    std::uint32_t slot_index;
    if (!free_retries_.empty()) {
      slot_index = free_retries_.back();
      free_retries_.pop_back();
    } else {
      slot_index = static_cast<std::uint32_t>(retry_slab_.size());
      retry_slab_.emplace_back();
    }
    RetrySlot& slot = retry_slab_[slot_index];
    slot.bid = bid;
    slot.round = static_cast<std::uint32_t>(round + 1);
    slot.rebid = is_rebid;
    EventPayload payload;
    payload.target = this;
    payload.a = slot_index;
    engine_->schedule_event_after(delay, EventPriority::kArrival,
                                  EventKind::kBrokerRetry, payload);
    return;  // history records the final round only
  }

  if (is_rebid && result.awarded_site) ++re_awards_;
  history_.push_back(std::move(result));
}

NegotiationResult Broker::negotiate_round(const Bid& bid) {
  // Negotiations are strictly serialized: the round works through member
  // scratch (poll_scratch_, the rng stream, the ledger) that a nested or
  // concurrent round would corrupt. The serve layer honors this by feeding
  // live bids through the engine thread one event at a time; this guard
  // turns a future violation into a loud failure instead of silent drift.
  MBTS_PROF_SCOPE("broker/negotiate");
  MBTS_CHECK_MSG(!negotiating_, "re-entrant Broker negotiation");
  negotiating_ = true;
  struct Reset {
    bool* flag;
    ~Reset() { *flag = false; }
  } reset{&negotiating_};
  NegotiationResult result;
  result.bid = bid;
  if (trace_ != nullptr)
    trace_->record(trace_now(bid), TraceEventKind::kBid, kNoSite, bid.task.id,
                   static_cast<double>(sites_.size()));
  // Phase 1 (serial): decide per-site availability losses. Quote-timeout
  // draws consume the injector's rng stream in site order whether or not
  // the actual quote evaluations are later batched, so a parallel poller
  // replays exactly the reference draw sequence.
  result.quotes.resize(sites_.size());
  poll_scratch_.clear();
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SiteAgent* site = sites_[i];
    // A lost response is synthesized as an unavailable quote; a down site
    // already answers unavailable itself (and is not additionally lost, so
    // the timeout stream advances only for sites that were up to be polled).
    if (injector_ != nullptr && !site->down() &&
        injector_->quote_times_out(site->id())) {
      Quote lost;
      lost.site = site->id();
      lost.unavailable = true;
      result.quotes[i] = lost;
      if (trace_ != nullptr)
        trace_->record(trace_now(bid), TraceEventKind::kQuoteTimeout,
                       site->id(), bid.task.id);
      continue;
    }
    poll_scratch_.push_back(i);
  }
  // Phase 2: evaluate the surviving polls — through the installed batch
  // poller (sharded runs advance their shards to this bid's boundary here,
  // then quote in parallel), or the default serial loop.
  if (poller_) {
    poller_(bid, poll_scratch_, result.quotes);
  } else {
    for (const std::size_t i : poll_scratch_)
      result.quotes[i] = sites_[i]->quote(bid);
  }

  // Award best first; on a (rare) state-change refusal, fall back to the
  // next-best accepting quote. quotes[i] answers for sites_[i].
  std::vector<Quote>& remaining = remaining_scratch_;
  remaining.assign(result.quotes.begin(), result.quotes.end());
  while (true) {
    const auto pick = select_quote(remaining, strategy_, rng_);
    if (!pick) break;
    const Quote& quote = remaining[*pick];
    SiteAgent* site = sites_[*pick];
    MBTS_DCHECK(site->id() == quote.site);
    std::optional<double> price;
    if (pricing_ == PricingModel::kSecondPrice) {
      // Runner-up accepted price among the *other* sites still in play.
      double second = -kInf;
      bool found = false;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (i == *pick || !remaining[i].accepted) continue;
        second = std::max(second, remaining[i].expected_price);
        found = true;
      }
      if (found) price = second;
    }
    // Budget check: charge the agreed price before committing the award.
    const double agreed = price.value_or(quote.expected_price);
    if (ledger_ != nullptr &&
        !ledger_->try_charge(bid.client, bid.task.arrival, agreed)) {
      // Too expensive this interval — try a cheaper accepting quote.
      result.unaffordable = true;
      remaining[*pick].accepted = false;
      continue;
    }
    if (site->award(bid, quote, price)) {
      result.awarded_site = quote.site;
      result.unaffordable = false;
      if (trace_ != nullptr)
        trace_->record(trace_now(bid), TraceEventKind::kAward, quote.site,
                       bid.task.id, agreed, quote.expected_completion);
      break;
    }
    // Award refused (site state changed): undo the charge, try next best.
    if (ledger_ != nullptr)
      ledger_->try_charge(bid.client, bid.task.arrival, -agreed);
    remaining[*pick].accepted = false;  // do not retry this site
  }

  if (trace_ != nullptr && !result.awarded_site)
    trace_->record(trace_now(bid), TraceEventKind::kNoAward, kNoSite,
                   bid.task.id, result.unaffordable ? 1.0 : 0.0);
  return result;
}

std::size_t Broker::unaffordable_bids() const {
  std::size_t count = 0;
  for (const NegotiationResult& r : history_)
    if (r.unaffordable && !r.awarded_site && !r.rebid) ++count;
  return count;
}

std::size_t Broker::rejected_everywhere() const {
  std::size_t count = 0;
  for (const NegotiationResult& r : history_)
    if (!r.awarded_site && !r.rebid) ++count;
  return count;
}

}  // namespace mbts

// Client-side selection among competing server quotes (paper §2, Fig. 1).
//
// The negotiation is two-phase and sealed-bid: the broker fans the client's
// bid out to every site, collects quotes, picks a winner by the client's
// strategy, and awards the contract. Since the bid is a full value function,
// one exchange suffices.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "market/client.hpp"
#include "market/contract.hpp"
#include "market/site_agent.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

namespace mbts {

class TraceRecorder;

/// How the broker reacts when a negotiation round finds no taker *because
/// sites were unavailable* (down or timed out). Rounds where every site
/// answered and declined are final — retrying a genuine admission rejection
/// would change fault-free runs.
struct RetryPolicy {
  /// Total negotiation rounds per bid (first attempt included).
  std::size_t max_attempts = 4;
  /// Backoff before round k+1 is base_delay * 2^k, capped at max_delay.
  double base_delay = 10.0;
  double max_delay = 160.0;
  /// Re-bid the task of a breached contract to the surviving sites (after
  /// one base_delay of detection latency).
  bool rebid_on_breach = true;
};

/// How a client ranks the accepted quotes.
enum class ClientStrategy {
  /// Highest expected price — since the price equals the client's own value
  /// function at the expected completion, this is also the client-optimal
  /// choice under truthful bidding.
  kMaxExpectedValue,
  /// Earliest expected completion (latency-sensitive clients).
  kEarliestCompletion,
  /// Uniform random among accepting sites (load-spreading floor).
  kRandom,
};

std::string to_string(ClientStrategy strategy);

/// How the contract price is derived from the winning quote (§2).
enum class PricingModel {
  /// Price equals the winner's own quoted expected value ("client bid value
  /// and price are equivalent").
  kBidPrice,
  /// Vickrey-style: the winner's price is set by the runner-up accepted
  /// quote, giving sites an incentive to quote truthfully (as in Spawn).
  /// With a single accepting site the winner's own quote binds.
  kSecondPrice,
};

std::string to_string(PricingModel model);

/// Result of one negotiation for a bid (the final round when retries ran).
struct NegotiationResult {
  Bid bid;
  std::vector<Quote> quotes;          // one per site polled
  std::optional<SiteId> awarded_site; // empty: every site rejected
  /// True when a site would have taken the task but the client's budget
  /// could not cover the agreed price (§2's per-interval budgets).
  bool unaffordable = false;
  /// This negotiation re-bid a breached contract's task; excluded from the
  /// per-bid accounting (the original bid already counted once).
  bool rebid = false;
  /// Rounds this bid took (1 when the first round settled it).
  std::size_t attempts = 1;
};

/// Stateless selection: returns the index into `quotes` of the winner, or
/// nullopt if no quote was accepted.
std::optional<std::size_t> select_quote(const std::vector<Quote>& quotes,
                                        ClientStrategy strategy,
                                        Xoshiro256& rng);

/// Runs one full negotiation for `bid` across `sites` (poll, select, award).
/// On award failure (site state changed) falls through to the next-best
/// quote. Appends the outcome to `results` history.
class Broker {
 public:
  /// `ledger` (optional, not owned) enforces client budgets: the winning
  /// quote's agreed price is charged at bid time, and an unaffordable award
  /// falls through to cheaper quotes.
  Broker(std::vector<SiteAgent*> sites, ClientStrategy strategy,
         Xoshiro256 rng, PricingModel pricing = PricingModel::kBidPrice,
         ClientLedger* ledger = nullptr);

  /// Enables the failure-aware path: retries with capped exponential
  /// backoff are scheduled into `engine` whenever a round fails only for
  /// availability reasons. Without this call, submit() degenerates to one
  /// negotiate() round.
  void enable_retries(SimEngine& engine, const RetryPolicy& retry);

  /// Routes per-poll quote-loss draws through `injector` (may be null).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Optional observability: negotiation outcomes (bid, award, no-award,
  /// timeouts, retries, rebids) are recorded into `trace`. Recording only
  /// reads negotiation state, so a traced run is bit-identical to an
  /// untraced one.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Batch quote executor, the sharded market's hook. Fills `quotes[i] =
  /// sites[i]->quote(bid)` for every i in `polled` (both vectors indexed by
  /// broker site order). The broker has already decided availability and
  /// quote-timeout losses — sites absent from `polled` keep their
  /// synthesized quotes — so the poller's only job is evaluating the
  /// listed sites, in any order or in parallel: quote() is observationally
  /// pure and per-site, which is what makes the fan-out parallelizable at
  /// all. Null restores the default serial loop.
  using QuotePoller = std::function<void(
      const Bid& bid, const std::vector<std::size_t>& polled,
      std::vector<Quote>& quotes)>;
  void set_quote_poller(QuotePoller poller) { poller_ = std::move(poller); }

  /// Site list (broker order); the sharded market uses it to partition the
  /// quote fan-out by shard.
  const std::vector<SiteAgent*>& sites() const { return sites_; }

  /// Count of bids dropped because the client's budget was exhausted.
  std::size_t unaffordable_bids() const;

  /// One self-contained negotiation round, recorded in history. The
  /// fault-free entry point (and each retry round's engine).
  NegotiationResult negotiate(const Bid& bid);

  /// Failure-aware entry point: negotiates now and, when the round failed
  /// only because sites were unavailable, schedules retry rounds under the
  /// RetryPolicy. Exactly one history entry is recorded per submit, for the
  /// final round.
  void submit(const Bid& bid);

  /// Like submit but flagged as the re-bid of a breached contract, so the
  /// original-bid accounting is not double-counted.
  void resubmit(const Bid& bid);

  const std::vector<NegotiationResult>& history() const { return history_; }

  /// Count of bids no site accepted (rebids excluded).
  std::size_t rejected_everywhere() const;

  /// Retry rounds scheduled because every failure was availability-related.
  std::size_t retries() const { return retries_; }
  /// Breached-contract re-bids attempted / successfully re-awarded.
  std::size_t rebids() const { return rebids_; }
  std::size_t re_awards() const { return re_awards_; }

 private:
  /// One backoff retry in flight: the bid being renegotiated plus the round
  /// it resumes at. Slots live in a slab deque (stable addresses) and are
  /// recycled through a free list once their retry round has fired.
  struct RetrySlot {
    Bid bid;
    std::uint32_t round = 0;
    bool rebid = false;
  };

  /// Typed-event handler (EventKind::kBrokerRetry): payload.target is the
  /// broker, payload.a the retry_slab_ slot.
  static void handle_retry(SimEngine& engine, const EventPayload& payload);

  /// One poll-select-award round; no history side effects.
  NegotiationResult negotiate_round(const Bid& bid);
  void attempt(const Bid& bid, std::size_t round, bool is_rebid);
  /// Trace timestamp: engine time once retries are armed, else the bid's
  /// arrival (standalone negotiate() calls outside any engine).
  double trace_now(const Bid& bid) const;

  std::vector<SiteAgent*> sites_;
  ClientStrategy strategy_;
  PricingModel pricing_;
  ClientLedger* ledger_;
  SimEngine* engine_ = nullptr;
  RetryPolicy retry_;
  FaultInjector* injector_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  QuotePoller poller_;
  Xoshiro256 rng_;
  std::vector<std::size_t> poll_scratch_;
  /// The round's quotes still in play during award fall-through.
  std::vector<Quote> remaining_scratch_;
  /// True while a negotiation round is running; guards the round's member
  /// scratch against re-entrant or concurrent submission (see
  /// negotiate_round).
  bool negotiating_ = false;
  std::deque<RetrySlot> retry_slab_;
  std::vector<std::uint32_t> free_retries_;
  std::vector<NegotiationResult> history_;
  std::size_t retries_ = 0;
  std::size_t rebids_ = 0;
  std::size_t re_awards_ = 0;
};

}  // namespace mbts

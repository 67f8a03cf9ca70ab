// A task-service site participating in the market (paper §6).
//
// Wraps a SiteScheduler with the two-phase negotiation protocol: quote a
// bid (evaluate admission without commitment), then award it (commit the
// task and form a contract). Settlement evaluates the value function at the
// actual completion once the run drains.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "market/contract.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace mbts {

class MetricsRegistry;
class TraceRecorder;

/// A contract the site could not honor because it crashed while the task
/// was in flight. Carries the full task so the market layer can re-bid it
/// to surviving sites.
struct Breach {
  Task task;
  ClientId client = 0;
  SiteId site = 0;
  double agreed_price = 0.0;
  /// The (negative or zero) price the breach settled at.
  double settled_price = 0.0;
};

struct SiteAgentConfig {
  SiteId id = 0;
  std::string name = "site";
  SchedulerConfig scheduler;
  PolicySpec policy = PolicySpec::first_reward(0.2);
  /// Negative threshold disables admission control (AcceptAll).
  bool use_slack_admission = true;
  SlackAdmissionConfig admission;
};

class SiteAgent {
 public:
  SiteAgent(SimEngine& engine, SiteAgentConfig config);

  SiteId id() const { return config_.id; }
  const std::string& name() const { return config_.name; }
  const SiteAgentConfig& config() const { return config_; }

  /// Optional observability: forwards `trace`/`metrics` to the wrapped
  /// scheduler under this site's id, and records contract breaches. Either
  /// pointer may be null; attaching never changes scheduling behaviour.
  void attach_telemetry(TraceRecorder* trace, MetricsRegistry* metrics);

  /// Phase 1: evaluate a bid against the current candidate schedule. While
  /// the site is down the quote comes back `unavailable` (and the scheduler
  /// is never consulted).
  Quote quote(const Bid& bid);

  /// Phase 2: the client chose this site — commit the task and form the
  /// contract. Returns false if the site's state changed such that the bid
  /// no longer clears admission (the contract is then not formed). When
  /// nothing changed since the quote — always, inside one broker round —
  /// the scheduler reuses the quote's evaluation instead of ranking the
  /// backlog again (SiteScheduler::quote).
  /// `agreed_price` overrides the contract price (e.g. a broker applying
  /// second-price rules); by default the quote's own expected price binds.
  bool award(const Bid& bid, const Quote& quoted,
             std::optional<double> agreed_price = std::nullopt);

  // --- Crash semantics (fault injection) ---

  /// The site crashes: in-flight tasks are killed or checkpointed per
  /// `mode`, and (in kill mode) their contracts settle immediately as
  /// breached at the task's penalty bound. Returns the breached contracts
  /// so the market can refund budgets and re-bid the work.
  std::vector<Breach> fail(CrashMode mode);

  /// Recovery: the site resumes quoting and dispatching survivors.
  void recover();

  bool down() const { return scheduler_->down(); }

  /// Contracts breached by crashes so far.
  std::size_t breaches() const { return breaches_; }

  const SiteScheduler& scheduler() const { return *scheduler_; }
  /// Deque, not vector: contracts accumulate for the whole run and a deque
  /// grows block-by-block without relocating (or copying) the arena — award
  /// paths touch only the tail block, and references handed out (e.g. to
  /// settlement loops) stay stable.
  const std::deque<Contract>& contracts() const { return contracts_; }

  /// Fills settlement fields from the scheduler's records; call after the
  /// engine drains (or any time — unfinished contracts stay unsettled).
  void settle();

  /// Total settled revenue (sum of settled prices; penalties negative).
  double revenue() const;

 private:
  SimEngine& engine_;
  SiteAgentConfig config_;
  std::unique_ptr<SiteScheduler> scheduler_;
  std::deque<Contract> contracts_;
  TraceRecorder* trace_ = nullptr;
  std::size_t breaches_ = 0;
};

}  // namespace mbts

#include "market/market.hpp"

#include <gtest/gtest.h>

#include "obs/profile.hpp"
#include "serve/preset.hpp"
#include "util/check.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace mbts {
namespace {

SiteAgentConfig site_config(SiteId id, std::size_t procs, double threshold,
                            bool admission = true) {
  SiteAgentConfig config;
  config.id = id;
  config.name = "site" + std::to_string(id);
  config.scheduler.processors = procs;
  config.scheduler.discount_rate = 0.01;
  config.policy = PolicySpec::first_reward(0.3);
  config.use_slack_admission = admission;
  config.admission.threshold = threshold;
  return config;
}

Task make_task(TaskId id, double arrival, double runtime, double value,
               double decay) {
  Task t;
  t.id = id;
  t.arrival = arrival;
  t.runtime = runtime;
  t.value = ValueFunction::unbounded(value, decay);
  return t;
}

TEST(SiteAgent, QuoteMatchesSchedulerProjection) {
  SimEngine engine;
  SiteAgent agent(engine, site_config(3, 2, 0.0));
  Bid bid{7, make_task(1, 0.0, 10.0, 100.0, 0.5)};
  const Quote quote = agent.quote(bid);
  EXPECT_EQ(quote.site, 3u);
  EXPECT_TRUE(quote.accepted);
  EXPECT_EQ(quote.expected_completion, 10.0);
  EXPECT_EQ(quote.expected_price, 100.0);
  // Quoting does not commit.
  EXPECT_TRUE(agent.scheduler().idle());
}

TEST(SiteAgent, AwardFormsContract) {
  SimEngine engine;
  SiteAgent agent(engine, site_config(0, 2, 0.0));
  Bid bid{7, make_task(1, 0.0, 10.0, 100.0, 0.5)};
  const Quote quote = agent.quote(bid);
  ASSERT_TRUE(agent.award(bid, quote));
  ASSERT_EQ(agent.contracts().size(), 1u);
  const Contract& contract = agent.contracts()[0];
  EXPECT_EQ(contract.task, 1u);
  EXPECT_EQ(contract.client, 7u);
  EXPECT_EQ(contract.agreed_completion, 10.0);
  EXPECT_EQ(contract.agreed_price, 100.0);
  EXPECT_FALSE(contract.settled);
}

TEST(SiteAgent, SettleFillsActuals) {
  SimEngine engine;
  SiteAgent agent(engine, site_config(0, 1, -1e9));
  // Two tasks: the second is delayed behind the first.
  Bid b1{1, make_task(1, 0.0, 10.0, 100.0, 0.5)};
  Bid b2{1, make_task(2, 0.0, 10.0, 100.0, 0.5)};
  agent.award(b1, agent.quote(b1));
  agent.award(b2, agent.quote(b2));
  engine.run();
  agent.settle();
  ASSERT_EQ(agent.contracts().size(), 2u);
  const Contract& late = agent.contracts()[1];
  EXPECT_TRUE(late.settled);
  EXPECT_EQ(late.actual_completion, 20.0);
  EXPECT_DOUBLE_EQ(late.settled_price, 95.0);
  EXPECT_DOUBLE_EQ(agent.revenue(), 195.0);
}

TEST(SiteAgent, ContractViolationDetected) {
  SimEngine engine;
  SiteAgent agent(engine, site_config(0, 1, -1e9));
  Bid b1{1, make_task(1, 0.0, 10.0, 100.0, 0.5)};
  agent.award(b1, agent.quote(b1));
  // A far more valuable later bid preempts and delays task 1.
  engine.schedule_at(2.0, EventPriority::kArrival, [&] {
    Bid b2{1, make_task(2, 2.0, 10.0, 100000.0, 0.5)};
    agent.award(b2, agent.quote(b2));
  });
  engine.run();
  agent.settle();
  const Contract& first = agent.contracts()[0];
  EXPECT_TRUE(first.settled);
  EXPECT_TRUE(first.violated());
  EXPECT_GT(first.shortfall(), 0.0);
}

TEST(Market, SingleSiteRunsAllAccepted) {
  MarketConfig config;
  config.sites.push_back(site_config(0, 4, -1e12));
  Market market(config);
  WorkloadSpec spec = presets::admission_mix(0.8, 200);
  spec.processors = 4;
  Xoshiro256 rng(3);
  market.inject(generate_trace(spec, rng));
  const MarketStats stats = market.run();
  EXPECT_EQ(stats.bids, 200u);
  EXPECT_EQ(stats.awarded, 200u);
  EXPECT_EQ(stats.rejected_everywhere, 0u);
  EXPECT_EQ(stats.site_stats[0].completed, 200u);
  EXPECT_DOUBLE_EQ(stats.total_revenue, stats.site_revenue[0]);
}

TEST(Market, LoadSpreadsAcrossSites) {
  MarketConfig config;
  config.sites.push_back(site_config(0, 4, 0.0));
  config.sites.push_back(site_config(1, 4, 0.0));
  config.sites.push_back(site_config(2, 4, 0.0));
  Market market(config);
  WorkloadSpec spec = presets::admission_mix(1.0, 600);
  spec.processors = 12;  // market-wide capacity
  Xoshiro256 rng(5);
  market.inject(generate_trace(spec, rng));
  const MarketStats stats = market.run();
  // Every site should have won a meaningful share of contracts.
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GT(market.sites()[i]->contracts().size(), 50u) << "site " << i;
}

TEST(Market, StrictSitesRejectEverywhere) {
  MarketConfig config;
  config.sites.push_back(site_config(0, 2, 1e12));
  config.sites.push_back(site_config(1, 2, 1e12));
  Market market(config);
  Trace trace;
  trace.tasks = {make_task(0, 0.0, 10.0, 100.0, 0.5)};
  market.inject(trace);
  const MarketStats stats = market.run();
  EXPECT_EQ(stats.awarded, 0u);
  EXPECT_EQ(stats.rejected_everywhere, 1u);
  EXPECT_EQ(stats.total_revenue, 0.0);
}

TEST(Market, RevenueNeverExceedsAgreedOnDelays) {
  MarketConfig config;
  config.sites.push_back(site_config(0, 2, -1e12));
  Market market(config);
  WorkloadSpec spec = presets::admission_mix(2.0, 300);
  spec.processors = 2;
  Xoshiro256 rng(7);
  market.inject(generate_trace(spec, rng));
  const MarketStats stats = market.run();
  // Overloaded with unbounded penalties: settled < agreed.
  EXPECT_LT(stats.total_revenue, stats.total_agreed);
  EXPECT_GT(stats.violated_contracts, 0u);
}

TEST(Market, NeedsAtLeastOneSite) {
  EXPECT_THROW(Market(MarketConfig{}), CheckError);
}

// Debug builds re-derive every memoised quote an award reuses, to
// cross-check it: one extra evaluation per award.
#ifdef NDEBUG
constexpr std::size_t kAwardCheck = 0;
#else
constexpr std::size_t kAwardCheck = 1;
#endif

std::uint64_t profiled_calls(const char* name) {
  for (const Profiler::Section& section : Profiler::instance().sections())
    if (section.name == name) return section.calls;
  return 0;
}

void expect_one_evaluation_per_polled_site(std::size_t shards,
                                           bool epoch_batching) {
  // The broker polls all three sites and awards one; the award reuses the
  // winner's quote, so admission runs exactly once per polled site. The
  // sharded poller quotes on the member engines and awards after the
  // barrier, which must leave the winner's state untouched in between.
  SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                    << " epoch_batching=" << epoch_batching);
  MarketConfig config = serve::fig1_market(11);
  config.shards = shards;
  config.epoch_batching = epoch_batching;
  Market market(config);
  Xoshiro256 rng(11);
  const Trace trace = generate_trace(presets::admission_mix(4.0, 600), rng);
  market.inject(trace);
  Profiler::instance().reset();
  Profiler::set_enabled(true);
  market.run();
  Profiler::set_enabled(false);
  std::size_t polled = 0;
  std::size_t awarded = 0;
  for (const NegotiationResult& result : market.broker().history()) {
    for (const Quote& quote : result.quotes)
      if (!quote.unavailable) ++polled;
    if (result.awarded_site) ++awarded;
  }
  EXPECT_EQ(polled, 3 * trace.size());
  EXPECT_GT(awarded, trace.size() / 2);
  EXPECT_EQ(profiled_calls("broker/negotiate"), trace.size());
  EXPECT_EQ(profiled_calls("admission/evaluate"),
            polled + kAwardCheck * awarded);
  Profiler::instance().reset();
}

TEST(Market, Fig1TrioEvaluatesEachPolledQuoteOnce) {
  expect_one_evaluation_per_polled_site(1, true);
  expect_one_evaluation_per_polled_site(3, true);
  expect_one_evaluation_per_polled_site(3, false);
}

}  // namespace
}  // namespace mbts

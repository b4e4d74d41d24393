// Scenario subsystem tests: the DSL parser's grammar and validation, the
// deterministic workload synthesis (schedules and Zipf skew), and one
// small end-to-end chaos run — a kill/restart cycle over real sockets
// asserting the runner's oracle holds.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/workload.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xroute {
namespace {

using scenario::EventKind;
using scenario::Scenario;
using scenario::ScheduledDoc;
using scenario::ZipfSampler;
using scenario::build_schedule;
using scenario::parse_scenario;

// -- Parser ------------------------------------------------------------------

TEST(ScenarioParse, FullGrammarSample) {
  Scenario s = parse_scenario(R"(# day-in-the-life
name storm
seed 7
topology star 5
option use_covering false
subscribers 6
xpe /a/b
xpe //c
path /a/b
path /a/b/c
zipf 1.2
heartbeat 40 120 300
warmup 150
settle 250
at 0 rate 80 until 2000
at 100 publish 25
at 500 kill 3
at 900 restart 3
at 1200 leave 1
at 1500 join 7 0,2
at 1800 diurnal 60 800 until 2600
)");
  EXPECT_EQ(s.name, "storm");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.topology, "star");
  EXPECT_EQ(s.topology_size, 5u);
  ASSERT_EQ(s.options.size(), 1u);
  EXPECT_EQ(s.options[0].first, "use_covering");
  EXPECT_EQ(s.subscribers, 6u);
  EXPECT_EQ(s.xpes, (std::vector<std::string>{"/a/b", "//c"}));
  EXPECT_EQ(s.paths, (std::vector<std::string>{"/a/b", "/a/b/c"}));
  EXPECT_DOUBLE_EQ(s.zipf_s, 1.2);
  EXPECT_DOUBLE_EQ(s.heartbeat_interval_ms, 40.0);
  EXPECT_DOUBLE_EQ(s.suspect_after_ms, 120.0);
  EXPECT_DOUBLE_EQ(s.down_after_ms, 300.0);
  EXPECT_DOUBLE_EQ(s.warmup_ms, 150.0);
  EXPECT_DOUBLE_EQ(s.settle_ms, 250.0);
  ASSERT_EQ(s.events.size(), 7u);
  // Events come back sorted by at_ms.
  EXPECT_TRUE(std::is_sorted(
      s.events.begin(), s.events.end(),
      [](const auto& a, const auto& b) { return a.at_ms < b.at_ms; }));
  EXPECT_EQ(s.events[0].kind, EventKind::kRate);
  EXPECT_DOUBLE_EQ(s.events[0].docs_per_sec, 80.0);
  EXPECT_DOUBLE_EQ(s.events[0].until_ms, 2000.0);
  EXPECT_EQ(s.events[1].kind, EventKind::kPublishBurst);
  EXPECT_EQ(s.events[1].count, 25u);
  EXPECT_EQ(s.events[2].kind, EventKind::kKill);
  EXPECT_EQ(s.events[2].broker, 3);
  EXPECT_EQ(s.events[3].kind, EventKind::kRestart);
  EXPECT_EQ(s.events[4].kind, EventKind::kLeave);
  EXPECT_EQ(s.events[5].kind, EventKind::kJoin);
  EXPECT_EQ(s.events[5].broker, 7);
  EXPECT_EQ(s.events[5].neighbors, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.events[6].kind, EventKind::kDiurnal);
  EXPECT_DOUBLE_EQ(s.events[6].period_ms, 800.0);
}

TEST(ScenarioParse, TimeoutDirectiveOverridesQuiescenceDeadlines) {
  Scenario defaults = parse_scenario("name d\n");
  EXPECT_DOUBLE_EQ(defaults.warmup_timeout_ms, 20000.0);
  EXPECT_DOUBLE_EQ(defaults.drain_timeout_ms, 30000.0);
  Scenario s = parse_scenario("timeout 5000 8000\n");
  EXPECT_DOUBLE_EQ(s.warmup_timeout_ms, 5000.0);
  EXPECT_DOUBLE_EQ(s.drain_timeout_ms, 8000.0);
  EXPECT_THROW(parse_scenario("timeout 0 8000\n"), ParseError);
  EXPECT_THROW(parse_scenario("timeout 5000\n"), ParseError);
}

TEST(ScenarioParse, ChurnEventCarriesBrokerRateAndWindow) {
  Scenario s = parse_scenario("at 100 churn 2 500 until 1200\n");
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].kind, EventKind::kChurn);
  EXPECT_EQ(s.events[0].broker, 2);
  EXPECT_DOUBLE_EQ(s.events[0].docs_per_sec, 500.0);
  EXPECT_DOUBLE_EQ(s.events[0].until_ms, 1200.0);
  // Churn windows validate like rate windows.
  EXPECT_THROW(parse_scenario("at 500 churn 1 10 until 400\n"), ParseError);
  EXPECT_THROW(parse_scenario("at 0 churn 1 0 until 100\n"), ParseError);
  EXPECT_THROW(parse_scenario("at 0 churn 1 10 til 100\n"), ParseError);
}

TEST(ScenarioWorkload, ChurnEventsStayOutOfThePublishSchedule) {
  Scenario s = parse_scenario(
      "path /a\nat 0 churn 0 1000 until 500\nat 0 publish 3\n");
  EXPECT_EQ(build_schedule(s).size(), 3u);
}

TEST(ScenarioParse, DefaultsFillEmptyPools) {
  Scenario s = parse_scenario("name tiny\n");
  EXPECT_FALSE(s.xpes.empty());
  EXPECT_FALSE(s.paths.empty());
  EXPECT_EQ(s.topology, "tree");
}

TEST(ScenarioParse, RejectsMalformedScripts) {
  // Detector ordering: interval < suspect < down.
  EXPECT_THROW(parse_scenario("heartbeat 100 50 400\n"), ParseError);
  EXPECT_THROW(parse_scenario("heartbeat 50 400 100\n"), ParseError);
  // A rate window must end after it starts.
  EXPECT_THROW(parse_scenario("at 500 rate 10 until 400\n"), ParseError);
  EXPECT_THROW(parse_scenario("at 0 rate 0 until 100\n"), ParseError);
  // Unknown directives and half-formed events are errors, not ignored.
  EXPECT_THROW(parse_scenario("frobnicate 3\n"), ParseError);
  EXPECT_THROW(parse_scenario("at 100 kill\n"), ParseError);
  EXPECT_THROW(parse_scenario("at abc kill 1\n"), ParseError);
}

TEST(ScenarioParse, ErrorsCarryTheLineNumber) {
  try {
    parse_scenario("name ok\nseed 1\nbogus line here\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
  }
}

// -- Workload synthesis ------------------------------------------------------

TEST(ScenarioWorkload, ScheduleIsDeterministicAndSorted) {
  Scenario s = parse_scenario(
      "seed 11\npath /a\npath /b\npath /c\n"
      "at 0 rate 100 until 500\nat 200 publish 40\n");
  std::vector<ScheduledDoc> one = build_schedule(s);
  std::vector<ScheduledDoc> two = build_schedule(s);
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_DOUBLE_EQ(one[i].at_ms, two[i].at_ms);
    EXPECT_EQ(one[i].path_index, two[i].path_index);
  }
  EXPECT_TRUE(std::is_sorted(
      one.begin(), one.end(),
      [](const auto& a, const auto& b) { return a.at_ms < b.at_ms; }));
  // 100 docs/s for 500 ms plus a 40-doc burst.
  EXPECT_NEAR(static_cast<double>(one.size()), 90.0, 5.0);
}

TEST(ScenarioWorkload, DiurnalIntegratesToRoughlyHalfPeak) {
  // Raised cosine averages peak/2 over a full period.
  Scenario s = parse_scenario(
      "path /a\nat 0 diurnal 100 1000 until 1000\n");
  std::vector<ScheduledDoc> docs = build_schedule(s);
  EXPECT_NEAR(static_cast<double>(docs.size()), 50.0, 8.0);
  // The crest (mid-period) must be busier than the edges.
  std::size_t edge = 0, crest = 0;
  for (const ScheduledDoc& doc : docs) {
    if (doc.at_ms < 250.0 || doc.at_ms >= 750.0) ++edge;
    else ++crest;
  }
  EXPECT_GT(crest, edge);
}

TEST(ScenarioWorkload, ZipfSkewsTowardRankZero) {
  ZipfSampler zipf(10, 1.5);
  Rng rng(99);
  std::vector<std::size_t> hits(10, 0);
  for (int i = 0; i < 4000; ++i) ++hits[zipf.sample(rng)];
  EXPECT_GT(hits[0], hits[4]);
  EXPECT_GT(hits[0], 4000u / 10u);
  // Uniform degenerate case: no rank starves.
  ZipfSampler flat(4, 0.0);
  std::vector<std::size_t> even(4, 0);
  for (int i = 0; i < 4000; ++i) ++even[flat.sample(rng)];
  for (std::size_t n : even) EXPECT_GT(n, 700u);
}

// -- End-to-end chaos run ----------------------------------------------------

// A two-broker chain survives a kill/restart cycle: the runner must
// report convergence, zero duplicates, and no assured-document loss.
TEST(ScenarioRun, KillRestartCycleHoldsTheOracle) {
  Scenario s = parse_scenario(R"(name smoke
seed 3
topology chain 2
subscribers 2
heartbeat 40 150 400
warmup 100
settle 200
at 0 rate 40 until 900
at 300 kill 1
at 500 restart 1
)");
  scenario::ScenarioReport report = scenario::run_scenario(s);
  EXPECT_TRUE(report.ok) << (report.failures.empty()
                                 ? std::string("no failures recorded")
                                 : report.failures.front());
  EXPECT_GT(report.docs_published, 0u);
  EXPECT_EQ(report.duplicates, 0u);
  ASSERT_EQ(report.membership.size(), 2u);
  EXPECT_EQ(report.membership[0].kind, "kill");
  EXPECT_EQ(report.membership[1].kind, "restart");
  EXPECT_GE(report.membership[1].convergence_ms, 0.0);
  // The kill opened a disruption window; the restart closed it.
  EXPECT_GT(report.loss_window_ms, 0.0);
}

// Live subscribe/unsubscribe churn against a running overlay with a
// multi-threaded matcher: the stable subscribers' delivery oracle must
// hold while churners recompile the pinned PRT index hundreds of times.
TEST(ScenarioRun, ChurnDeliveryOracleHoldsMidChurn) {
  Scenario s = parse_scenario(R"(name churn-smoke
seed 9
topology chain 2
option threads 2
subscribers 2
heartbeat 40 150 400
warmup 100
settle 200
timeout 15000 20000
at 0 rate 40 until 800
at 0 churn 0 200 until 800
at 100 churn 1 150 until 700
)");
  scenario::ScenarioReport report = scenario::run_scenario(s);
  EXPECT_TRUE(report.ok) << (report.failures.empty()
                                 ? std::string("no failures recorded")
                                 : report.failures.front());
  EXPECT_GT(report.docs_published, 0u);
  EXPECT_EQ(report.docs_assured, report.docs_published);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_TRUE(report.membership.empty());
}

}  // namespace
}  // namespace xroute

// Fault injection, reliable links and crash-recovery resync.
//
// The delivery-equality soak at the bottom is the PR's headline property:
// under drops, duplication, reordering and broker crash/restarts, every
// subscriber receives exactly the notification set of a fault-free
// reference run, with zero duplicates.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "router/snapshot.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

/// Deterministic runs: measured wall-clock must not feed simulated time.
Simulator::Options deterministic() { return Simulator::Options{0.0}; }

BrokerOptions no_adv_config() {
  BrokerOptions config;
  config.use_advertisements = false;
  return config;
}

TEST(FaultPlan, ParsesFullPlan) {
  FaultPlan plan = parse_fault_plan(
      "# scenario: lossy tree with one crash\n"
      "seed 7\n"
      "topology chain 4\n"
      "subscribers 3\n"
      "documents 25\n"
      "drop 0.10\n"
      "dup 0.02\n"
      "reorder 0.10 2.0\n"
      "link 1 2 drop 0.30\n"
      "link 2 1 down 10.0 90.0\n"
      "crash 1 200.0 resync\n"
      "crash 2 300.0 snapshot\n");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.topology, "chain");
  EXPECT_EQ(plan.topology_size, 4u);
  EXPECT_EQ(plan.subscribers, 3u);
  EXPECT_EQ(plan.documents, 25u);
  EXPECT_DOUBLE_EQ(plan.default_profile.drop_prob, 0.10);
  EXPECT_DOUBLE_EQ(plan.default_profile.dup_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.default_profile.reorder_prob, 0.10);
  EXPECT_DOUBLE_EQ(plan.default_profile.reorder_jitter_ms, 2.0);
  // Both (1,2) directives land on the same normalised key.
  ASSERT_EQ(plan.link_profiles.size(), 1u);
  const FaultProfile& link = plan.link_profiles.at({1, 2});
  EXPECT_DOUBLE_EQ(link.drop_prob, 0.30);
  ASSERT_EQ(link.down_windows.size(), 1u);
  EXPECT_FALSE(link.link_up(50.0));
  EXPECT_TRUE(link.link_up(90.0));
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].broker, 1);
  EXPECT_EQ(plan.crashes[0].mode, RestartMode::kColdResync);
  EXPECT_EQ(plan.crashes[1].mode, RestartMode::kSnapshot);
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_plan("drop lots\n"), ParseError);
  EXPECT_THROW(parse_fault_plan("bogus 1\n"), ParseError);
  EXPECT_THROW(parse_fault_plan("down 5 5\n"), ParseError);  // empty window
  EXPECT_THROW(parse_fault_plan("crash 1 10 maybe\n"), ParseError);
  EXPECT_THROW(parse_fault_plan("link 1 drop 0.5\n"), ParseError);
  EXPECT_THROW(parse_fault_plan("topology ring 4\n"), ParseError);
}

TEST(FaultInjection, ProfileInstallationRequiresEnabling) {
  Simulator sim(deterministic());
  sim.add_broker(no_adv_config());
  sim.add_broker(no_adv_config());
  sim.connect(0, 1, LinkConfig{});
  EXPECT_THROW(sim.set_default_link_faults(FaultProfile{}), std::logic_error);
  sim.enable_fault_injection(1);
  EXPECT_NO_THROW(sim.set_default_link_faults(FaultProfile{}));
  EXPECT_THROW(sim.set_link_faults(0, 7, FaultProfile{}), std::logic_error);
}

/// Chain of brokers with one subscriber at the far end and one publisher
/// at the near end; used by most transport tests below.
struct ChainRig {
  Simulator sim{deterministic()};
  int subscriber = -1;
  int publisher = -1;

  explicit ChainRig(std::size_t brokers) {
    for (std::size_t i = 0; i < brokers; ++i) sim.add_broker(no_adv_config());
    for (std::size_t i = 0; i + 1 < brokers; ++i) {
      sim.connect(static_cast<int>(i), static_cast<int>(i + 1), LinkConfig{});
    }
    subscriber = sim.attach_client(static_cast<int>(brokers - 1));
    publisher = sim.attach_client(0);
  }

  void subscribe_and_settle(const char* xpe) {
    sim.subscribe(subscriber, parse_xpe(xpe));
    sim.run();
  }

  /// Publishes `n` single-path documents matching /a/b.
  void publish_docs(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      sim.publish_paths(publisher, {parse_path("/a/b")}, 100);
    }
  }
};

TEST(FaultInjection, LossyLinkStillDeliversExactlyOnce) {
  ChainRig rig(3);
  rig.sim.enable_fault_injection(11);
  FaultProfile lossy;
  lossy.drop_prob = 0.2;
  rig.sim.set_default_link_faults(lossy);

  rig.subscribe_and_settle("/a");
  rig.publish_docs(50);
  rig.sim.run();

  EXPECT_EQ(rig.sim.notifications_of(rig.subscriber), 50u);
  EXPECT_EQ(rig.sim.stats().duplicate_notifications(), 0u);
  EXPECT_GT(rig.sim.stats().frames_dropped(), 0u);
  EXPECT_GT(rig.sim.stats().retransmits(), 0u);
  EXPECT_EQ(rig.sim.stats().retransmit_failures(), 0u);
}

TEST(FaultInjection, DuplicationAndReorderAreTransparent) {
  ChainRig rig(3);
  rig.sim.enable_fault_injection(13);
  FaultProfile noisy;
  noisy.dup_prob = 0.3;
  noisy.reorder_prob = 0.4;
  noisy.reorder_jitter_ms = 5.0;
  rig.sim.set_default_link_faults(noisy);

  rig.subscribe_and_settle("/a");
  rig.publish_docs(50);
  rig.sim.run();

  EXPECT_EQ(rig.sim.notifications_of(rig.subscriber), 50u);
  EXPECT_EQ(rig.sim.stats().duplicate_notifications(), 0u);
  EXPECT_GT(rig.sim.stats().frames_duplicated(), 0u);
  EXPECT_GT(rig.sim.stats().link_duplicates_suppressed(), 0u);
  EXPECT_GT(rig.sim.stats().reorders_injected(), 0u);
}

TEST(FaultInjection, DownWindowDelaysButDoesNotLose) {
  ChainRig rig(2);
  rig.sim.enable_fault_injection(17);
  rig.subscribe_and_settle("/a");

  double start = rig.sim.now();
  FaultProfile outage;
  outage.down_windows.emplace_back(start, start + 40.0);
  rig.sim.set_default_link_faults(outage);

  rig.publish_docs(10);
  Simulator::QuiesceReport report = rig.sim.run_until_quiescent();

  EXPECT_TRUE(report.quiesced);
  EXPECT_EQ(rig.sim.notifications_of(rig.subscriber), 10u);
  EXPECT_GT(rig.sim.stats().frames_dropped(), 0u);
  EXPECT_GT(rig.sim.stats().retransmits(), 0u);
  // Nothing could get through before the window closed.
  EXPECT_GE(report.last_activity, start + 40.0);
}

TEST(FaultInjection, SameSeedSameOutcome) {
  auto run_once = [](std::uint64_t seed) {
    ChainRig rig(4);
    rig.sim.enable_fault_injection(seed);
    FaultProfile messy;
    messy.drop_prob = 0.15;
    messy.dup_prob = 0.1;
    messy.reorder_prob = 0.2;
    messy.reorder_jitter_ms = 3.0;
    rig.sim.set_default_link_faults(messy);
    rig.subscribe_and_settle("/a");
    rig.publish_docs(30);
    rig.sim.run();
    return std::tuple{rig.sim.stats().frames_dropped(),
                      rig.sim.stats().retransmits(),
                      rig.sim.stats().link_duplicates_suppressed(),
                      rig.sim.stats().out_of_order_deliveries(),
                      rig.sim.stats().acks_sent(),
                      rig.sim.delivered_docs(rig.subscriber)};
  };
  EXPECT_EQ(run_once(23), run_once(23));
  EXPECT_NE(std::get<0>(run_once(23)), std::get<0>(run_once(24)));
}

TEST(FaultInjection, CleanNetworkCarriesZeroOverhead) {
  // Identical scenario with fault injection off and with it on but
  // fault-free: the broker-visible message counts must be identical
  // (reliability adds no messages on a clean network) and the disabled run
  // must show zero transport activity.
  auto run_once = [](bool faults_enabled) {
    ChainRig rig(3);
    if (faults_enabled) {
      rig.sim.enable_fault_injection(5);
      rig.sim.set_default_link_faults(FaultProfile{});
    }
    rig.subscribe_and_settle("/a");
    rig.publish_docs(20);
    rig.sim.run();
    return std::tuple{rig.sim.stats().total_broker_messages(),
                      rig.sim.stats().total_broker_bytes(),
                      rig.sim.notifications_of(rig.subscriber),
                      rig.sim.stats().retransmits(),
                      rig.sim.stats().acks_sent()};
  };
  auto off = run_once(false);
  auto on = run_once(true);
  EXPECT_EQ(std::get<0>(off), std::get<0>(on));
  EXPECT_EQ(std::get<1>(off), std::get<1>(on));
  EXPECT_EQ(std::get<2>(off), std::get<2>(on));
  // Disabled: the reliability layer does not exist.
  EXPECT_EQ(std::get<3>(off), 0u);
  EXPECT_EQ(std::get<4>(off), 0u);
  // Enabled on a clean network: acks flow but nothing is retransmitted.
  EXPECT_EQ(std::get<3>(on), 0u);
  EXPECT_GT(std::get<4>(on), 0u);
}

// -- Crash semantics (satellite: restart_broker flushes in-flight events) ---

TEST(CrashRecovery, ColdRestartDropsPreCrashTraffic) {
  ChainRig rig(2);
  rig.subscribe_and_settle("/a");

  // Put a publication in flight: the client hop has been delivered and
  // broker 0's forward toward broker 1 is sitting in the queue when
  // broker 1 dies.
  rig.publish_docs(1);
  rig.sim.run_limited(1);  // client hop done; 0 -> 1 forward is in flight
  rig.sim.restart_broker(1);
  rig.sim.run();

  EXPECT_EQ(rig.sim.notifications_of(rig.subscriber), 0u);
  EXPECT_GT(rig.sim.stats().events_flushed_on_crash(), 0u);
  EXPECT_EQ(rig.sim.stats().broker_restarts(), 1u);

  // And the loss is not transient: the cold instance lost its PRT and
  // client tables, so post-crash traffic goes undelivered too...
  rig.publish_docs(1);
  rig.sim.run();
  EXPECT_EQ(rig.sim.notifications_of(rig.subscriber), 0u);

  // ...until the broker is restarted with resync, which restores link
  // state and replays local clients' control state.
  rig.sim.restart_broker(1, "", /*resync=*/true);
  rig.sim.run();
  EXPECT_EQ(rig.sim.stats().resyncs_completed(), 1u);
  rig.publish_docs(1);
  rig.sim.run();
  EXPECT_EQ(rig.sim.notifications_of(rig.subscriber), 1u);
  EXPECT_EQ(rig.sim.stats().duplicate_notifications(), 0u);
}

TEST(CrashRecovery, ResyncAvoidsResubscriptionStorm) {
  // Chain 0-1-2 with the subscriber on broker 0: its subscription was
  // forwarded 0 -> 1 -> 2. Crash-resync the middle broker and verify the
  // subscription is restored from neighbour link state without broker 2
  // (or anyone) seeing subscribe traffic again.
  Simulator sim(deterministic());
  for (int i = 0; i < 3; ++i) sim.add_broker(no_adv_config());
  sim.connect(0, 1, LinkConfig{});
  sim.connect(1, 2, LinkConfig{});
  int subscriber = sim.attach_client(0);
  int publisher = sim.attach_client(2);
  sim.subscribe(subscriber, parse_xpe("/a"));
  sim.run();

  std::size_t subs_before = sim.stats().broker_messages(MessageType::kSubscribe);
  sim.restart_broker(1, "", /*resync=*/true);
  sim.run();

  EXPECT_EQ(sim.stats().resyncs_completed(), 1u);
  EXPECT_GT(sim.stats().broker_messages(MessageType::kSyncState), 0u);
  // No re-subscription storm: the control plane stayed quiet.
  EXPECT_EQ(sim.stats().broker_messages(MessageType::kSubscribe), subs_before);
  ASSERT_FALSE(sim.stats().resync_durations_ms().empty());
  EXPECT_GT(sim.stats().resync_durations_ms().front(), 0.0);

  // Publications route end-to-end through the recovered broker again.
  sim.publish_paths(publisher, {parse_path("/a/b")}, 100);
  sim.run();
  EXPECT_EQ(sim.notifications_of(subscriber), 1u);
  EXPECT_EQ(sim.stats().duplicate_notifications(), 0u);
}

TEST(CrashRecovery, SnapshotRestartResumesRouting) {
  ChainRig rig(3);
  rig.subscribe_and_settle("/a");

  std::string snapshot = snapshot_to_string(rig.sim.broker(1));
  rig.sim.restart_broker(1, snapshot);
  rig.sim.run();

  rig.publish_docs(5);
  rig.sim.run();
  EXPECT_EQ(rig.sim.notifications_of(rig.subscriber), 5u);
  EXPECT_EQ(rig.sim.stats().duplicate_notifications(), 0u);
  // Snapshot restore needs no handshake.
  EXPECT_EQ(rig.sim.stats().resyncs_completed(), 0u);
}

// -- Delivery-equality soak -------------------------------------------------
//
// Random tree topologies, drop rates up to 20%, duplication, reordering,
// and one crash/restart per run (alternating resync and snapshot
// recovery): every subscriber must end with exactly the notification set
// of the fault-free reference run, and no client may see a duplicate.

struct SoakOutcome {
  std::vector<std::set<std::uint64_t>> delivered;
  std::size_t duplicates = 0;
  std::size_t retransmits = 0;
  std::size_t resyncs = 0;
};

SoakOutcome soak_run(int seed, bool faulted) {
  Rng rng(1000 + static_cast<std::uint64_t>(seed));
  std::size_t brokers = 4 + rng.index(5);  // 4..8
  Topology topology = random_connected(brokers, 0, rng);  // random tree

  Simulator sim(deterministic());
  BrokerOptions config = no_adv_config();
  for (std::size_t i = 0; i < brokers; ++i) sim.add_broker(config);
  for (auto [a, b] : topology.edges) sim.connect(a, b, LinkConfig{});

  std::vector<int> subscribers;
  const char* xpes[] = {"/a", "/a/b", "//c", "/d//e"};
  for (int i = 0; i < 4; ++i) {
    int broker = static_cast<int>(rng.index(brokers));
    int client = sim.attach_client(broker);
    sim.subscribe(client, parse_xpe(xpes[i]));
    subscribers.push_back(client);
  }
  int publisher = sim.attach_client(static_cast<int>(rng.index(brokers)));

  if (faulted) {
    FaultProfile profile;
    profile.drop_prob = 0.05 + 0.15 * rng.uniform();  // up to 20%
    profile.dup_prob = 0.05;
    profile.reorder_prob = 0.1;
    profile.reorder_jitter_ms = 4.0;
    sim.enable_fault_injection(static_cast<std::uint64_t>(seed));
    sim.set_default_link_faults(profile);
  }
  sim.run();

  const char* paths[] = {"/a/b", "/a/b/c", "/d/x/e", "/q", "/a"};
  auto publish_batch = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      sim.publish_paths(publisher, {parse_path(paths[i % 5])}, 200);
    }
    sim.run();
  };

  publish_batch(15);

  // One crash/restart per run at a quiescent point. The reference run
  // must crash too — a broker that loses in-flight state it can never
  // recover (non-persistent pub/sub) is outside the equality contract,
  // but a *recovered* broker must be transparent.
  int victim = static_cast<int>(rng.index(brokers));
  if (seed % 2 == 0) {
    sim.restart_broker(victim, "", /*resync=*/true);
  } else {
    sim.restart_broker(victim, snapshot_to_string(sim.broker(victim)));
  }
  sim.run();

  publish_batch(15);

  SoakOutcome outcome;
  for (int client : subscribers) {
    outcome.delivered.push_back(sim.delivered_docs(client));
  }
  outcome.duplicates = sim.stats().duplicate_notifications();
  outcome.retransmits = sim.stats().retransmits();
  outcome.resyncs = sim.stats().resyncs_completed();
  return outcome;
}

class FaultSoak : public ::testing::TestWithParam<int> {};

TEST_P(FaultSoak, DeliveryEqualsFaultFreeReference) {
  int seed = GetParam();
  SoakOutcome reference = soak_run(seed, /*faulted=*/false);
  SoakOutcome faulted = soak_run(seed, /*faulted=*/true);

  ASSERT_EQ(reference.delivered.size(), faulted.delivered.size());
  for (std::size_t i = 0; i < reference.delivered.size(); ++i) {
    EXPECT_EQ(reference.delivered[i], faulted.delivered[i])
        << "subscriber " << i << " (seed " << seed << ")";
  }
  EXPECT_EQ(reference.duplicates, 0u);
  EXPECT_EQ(faulted.duplicates, 0u);
  if (seed % 2 == 0) EXPECT_EQ(faulted.resyncs, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoak, ::testing::Range(0, 20));

}  // namespace
}  // namespace xroute

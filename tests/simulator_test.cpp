// Unit tests for the event queue, topologies and simulator transport.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "net/event_queue.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "workload/xml_gen.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

TEST(EventQueueTest, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(10); });  // FIFO at equal time
  q.schedule(0.5, [&] { order.push_back(0); });
  double t = 0;
  while (!q.empty()) q.pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 2}));
  EXPECT_EQ(t, 2.0);
}

TEST(TopologyTest, CompleteBinaryTrees) {
  Topology t3 = complete_binary_tree(3);
  EXPECT_EQ(t3.num_brokers, 7u);  // the paper's small overlay
  EXPECT_EQ(t3.edges.size(), 6u);
  EXPECT_EQ(t3.leaf_brokers().size(), 4u);

  Topology t7 = complete_binary_tree(7);
  EXPECT_EQ(t7.num_brokers, 127u);  // the paper's large overlay
  EXPECT_EQ(t7.edges.size(), 126u);
  EXPECT_EQ(t7.leaf_brokers().size(), 64u);
}

TEST(TopologyTest, ChainAndStar) {
  Topology c = chain(5);
  EXPECT_EQ(c.num_brokers, 5u);
  EXPECT_EQ(c.edges.size(), 4u);
  EXPECT_EQ(c.leaf_brokers(), (std::vector<int>{0, 4}));
  Topology s = star(6);
  EXPECT_EQ(s.num_brokers, 7u);
  EXPECT_EQ(s.leaf_brokers().size(), 6u);
}

TEST(TopologyTest, LatencyProfiles) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    LinkConfig cluster = sample_link(LatencyProfile::kCluster, rng);
    EXPECT_GE(cluster.latency_ms, 0.3);
    EXPECT_LE(cluster.latency_ms, 0.7);
    LinkConfig wan = sample_link(LatencyProfile::kPlanetLab, rng);
    EXPECT_GE(wan.latency_ms, 1.0);
    EXPECT_LE(wan.latency_ms, 3.5);
    EXPECT_GT(cluster.bytes_per_ms, wan.bytes_per_ms);
  }
}

TEST(SimulatorTest, EndToEndSingleBroker) {
  Simulator sim(Simulator::Options{0.0});
  BrokerOptions config;
  config.use_advertisements = false;
  int b0 = sim.add_broker(config);
  int subscriber = sim.attach_client(b0);
  int publisher = sim.attach_client(b0);

  sim.subscribe(subscriber, parse_xpe("/a/b"));
  sim.run();
  sim.publish_paths(publisher, {parse_path("/a/b/c")}, 100);
  sim.run();

  EXPECT_EQ(sim.notifications_of(subscriber), 1u);
  EXPECT_EQ(sim.stats().notifications(), 1u);
  ASSERT_EQ(sim.stats().delays().size(), 1u);
  EXPECT_GT(sim.stats().delays()[0], 0.0);  // two link traversals
}

TEST(SimulatorTest, MultiHopDeliveryAndDelay) {
  Simulator sim(Simulator::Options{0.0});
  BrokerOptions config;
  config.use_advertisements = false;
  // 3-broker chain with known latencies.
  for (int i = 0; i < 3; ++i) sim.add_broker(config);
  LinkConfig link;
  link.latency_ms = 2.0;
  link.bytes_per_ms = 1e9;  // negligible transfer time
  sim.connect(0, 1, link);
  sim.connect(1, 2, link);
  int subscriber = sim.attach_client(2, link);
  int publisher = sim.attach_client(0, link);

  sim.subscribe(subscriber, parse_xpe("/a"));
  sim.run();
  sim.publish_paths(publisher, {parse_path("/a/b")}, 10);
  sim.run();

  ASSERT_EQ(sim.stats().notifications(), 1u);
  // 4 links x 2ms, plus ~0 transfer: within a small tolerance.
  EXPECT_NEAR(sim.stats().delays()[0], 8.0, 0.5);
}

TEST(SimulatorTest, DuplicatePathsOfOneDocCountOnce) {
  Simulator sim(Simulator::Options{0.0});
  BrokerOptions config;
  config.use_advertisements = false;
  int b0 = sim.add_broker(config);
  int subscriber = sim.attach_client(b0);
  int publisher = sim.attach_client(b0);
  sim.subscribe(subscriber, parse_xpe("/a"));
  sim.run();
  sim.publish_paths(publisher, {parse_path("/a/b"), parse_path("/a/c")}, 10);
  sim.run();
  EXPECT_EQ(sim.stats().notifications(), 1u);
  EXPECT_EQ(sim.stats().duplicate_notifications(), 1u);
}

TEST(SimulatorTest, MessageAccounting) {
  Simulator sim(Simulator::Options{0.0});
  BrokerOptions config;
  config.use_advertisements = false;
  for (int i = 0; i < 2; ++i) sim.add_broker(config);
  sim.connect(0, 1, LinkConfig{});
  int subscriber = sim.attach_client(1);
  int publisher = sim.attach_client(0);

  sim.subscribe(subscriber, parse_xpe("/a"));
  sim.run();
  // Subscription: received by broker 1, flooded to broker 0 -> 2 receipts.
  EXPECT_EQ(sim.stats().broker_messages(MessageType::kSubscribe), 2u);

  sim.publish_paths(publisher, {parse_path("/a/x")}, 10);
  sim.run();
  EXPECT_EQ(sim.stats().broker_messages(MessageType::kPublish), 2u);
}

TEST(SimulatorTest, WireBytesSlowLinkAddsDelay) {
  Simulator sim(Simulator::Options{0.0});
  BrokerOptions config;
  config.use_advertisements = false;
  int b0 = sim.add_broker(config);
  LinkConfig slow;
  slow.latency_ms = 1.0;
  slow.bytes_per_ms = 100.0;  // 100 B/ms
  int subscriber = sim.attach_client(b0, slow);
  int publisher = sim.attach_client(b0, slow);
  sim.subscribe(subscriber, parse_xpe("/a"));
  sim.run();
  // ~10 KB document: ~100 ms transfer per hop.
  sim.publish_paths(publisher, {parse_path("/a/b")}, 10000);
  sim.run();
  ASSERT_EQ(sim.stats().notifications(), 1u);
  EXPECT_GT(sim.stats().delays()[0], 150.0);
}

TEST(NetworkFacadeTest, QuickEndToEnd) {
  Network::Options options;
  options.topology = complete_binary_tree(2);  // 3 brokers
  options.strategy = RoutingStrategy::with_adv_with_cov();
  options.dtd = psd_dtd();
  options.processing_scale = 0.0;
  Network net(std::move(options));

  int publisher = net.add_publisher(0);
  int subscriber = net.add_subscriber(2);
  net.run();
  net.subscribe(subscriber, parse_xpe("//sequence"));
  net.run();

  Rng rng(3);
  XmlDocument doc = generate_document(psd_dtd(), rng, {});
  net.publish(publisher, doc);
  net.run();
  EXPECT_EQ(net.simulator().notifications_of(subscriber), 1u);
  EXPECT_GT(net.advertisements().size(), 10u);
  EXPECT_GT(net.total_prt_size(), 0u);
}

}  // namespace
}  // namespace xroute

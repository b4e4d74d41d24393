// Edge-case tests across modules: SRT bookkeeping, simulator
// unadvertisement end-to-end, cyclic-overlay duplicate suppression at the
// broker level, predicate value corner cases, derivation caps.
#include <gtest/gtest.h>

#include <functional>

#include "adv/derive.hpp"
#include "core/network.hpp"
#include "dtd/parser.hpp"
#include "router/routing_tables.hpp"
#include "workload/dtd_corpus.hpp"
#include "xpath/parser.hpp"
#include "xpath/predicate.hpp"

namespace xroute {
namespace {

TEST(SrtTest, AddRemoveAndOverlap) {
  Srt srt;
  Advertisement a1 = Advertisement::from_elements({"a", "b"});
  Advertisement a2 = parse_advertisement("/a(/b)+/c");
  EXPECT_TRUE(srt.add(a1, IfaceId{1}));
  EXPECT_FALSE(srt.add(a1, IfaceId{2}));  // second hop, same advertisement
  EXPECT_TRUE(srt.add(a2, IfaceId{1}));
  EXPECT_EQ(srt.size(), 2u);

  auto hops = srt.hops_overlapping(parse_xpe("/a/b"));
  EXPECT_EQ(hops, ifaces({1, 2}));
  // Overlapping only the recursive advertisement.
  EXPECT_EQ(srt.hops_overlapping(parse_xpe("/a/b/b/c")), ifaces({1}));
  EXPECT_TRUE(srt.hops_overlapping(parse_xpe("/zzz")).empty());

  EXPECT_TRUE(srt.remove(a1, IfaceId{1}));
  EXPECT_EQ(srt.size(), 2u);  // hop 2 remains
  EXPECT_TRUE(srt.remove(a1, IfaceId{2}));
  EXPECT_EQ(srt.size(), 1u);
  EXPECT_FALSE(srt.remove(a1, IfaceId{2}));  // already gone
}

TEST(SimulatorUnadvertise, StopsSubscriptionRouting) {
  Network::Options options;
  options.topology = chain(3);
  options.strategy = RoutingStrategy::with_adv_with_cov();
  options.dtd = psd_dtd();
  options.processing_scale = 0.0;
  Network net(std::move(options));
  int publisher = net.add_publisher(0);
  net.run();
  ASSERT_GT(net.simulator().broker(2).srt_size(), 0u);

  // Withdraw every advertisement; the SRT drains across the overlay.
  for (const Advertisement& adv : net.advertisements()) {
    net.simulator().unadvertise(publisher, adv);
  }
  net.run();
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(net.simulator().broker(b).srt_size(), 0u) << b;
  }

  // A new subscription now has nowhere to go.
  int subscriber = net.add_subscriber(2);
  net.subscribe(subscriber, parse_xpe("//sequence"));
  net.run();
  EXPECT_EQ(net.simulator().broker(0).prt_size(), 0u);
}

TEST(BrokerDedup, SamePublicationProcessedOnce) {
  BrokerOptions config;
  config.use_advertisements = false;
  Broker broker(0, config);
  broker.add_neighbor(IfaceId{1});
  broker.add_neighbor(IfaceId{2});
  broker.handle(IfaceId{2}, Message::subscribe(parse_xpe("/a")));

  PublishMsg msg;
  msg.path = parse_path("/a/b");
  msg.doc_id = 7;
  msg.path_id = 3;
  auto first = broker.handle(IfaceId{1}, Message{msg});
  EXPECT_EQ(first.forwards.size(), 1u);
  // The same (doc, path) arriving again — e.g. over another overlay path —
  // is suppressed entirely.
  auto second = broker.handle(IfaceId{1}, Message{msg});
  EXPECT_TRUE(second.forwards.empty());
  // A different path of the same document still flows.
  msg.path_id = 4;
  auto third = broker.handle(IfaceId{1}, Message{msg});
  EXPECT_EQ(third.forwards.size(), 1u);
}

TEST(PredicateValues, NegativeAndFloatNumbers) {
  EXPECT_TRUE(compare_values("-3", Predicate::Op::kLt, "2"));
  EXPECT_TRUE(compare_values("-3.5", Predicate::Op::kLt, "-3"));
  EXPECT_TRUE(compare_values("10", Predicate::Op::kGt, "9.99"));
  // "10" vs "9" numerically, not lexicographically.
  EXPECT_TRUE(compare_values("10", Predicate::Op::kGt, "9"));
  EXPECT_FALSE(parse_number("1e"));     // trailing junk
  EXPECT_TRUE(parse_number("1e3"));     // scientific is a number
  EXPECT_FALSE(parse_number(""));
  EXPECT_FALSE(parse_number("12 "));
}

TEST(DeriveCaps, TruncationWithRepairStaysBounded) {
  Dtd dtd = news_dtd();
  DeriveOptions options;
  options.max_advertisements = 50;
  options.repair = true;
  auto derived = derive_advertisements(dtd, options);
  EXPECT_TRUE(derived.truncated);
  EXPECT_LE(derived.advertisements.size(), 50u);
}

TEST(RandomTopology, ConnectedWithRequestedCycles) {
  Rng rng(3);
  Topology t = random_connected(12, 5, rng);
  EXPECT_EQ(t.num_brokers, 12u);
  EXPECT_EQ(t.edges.size(), 11u + 5u);
  // Connectivity: union-find over the edges.
  std::vector<int> parent(12);
  for (int i = 0; i < 12; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  for (auto [a, b] : t.edges) parent[find(a)] = find(b);
  for (int i = 1; i < 12; ++i) EXPECT_EQ(find(i), find(0));
}

TEST(NetworkFacade, ByteAccounting) {
  Network::Options options;
  options.topology = chain(2);
  options.strategy = RoutingStrategy::with_adv_with_cov();
  options.dtd = psd_dtd();
  options.processing_scale = 0.0;
  Network net(std::move(options));
  int publisher = net.add_publisher(0);
  int subscriber = net.add_subscriber(1);
  net.run();
  net.subscribe(subscriber, parse_xpe("//sequence"));
  net.run();
  std::size_t control_bytes = net.stats().total_broker_bytes();
  EXPECT_GT(control_bytes, 0u);
  net.publish_paths(publisher,
                    {parse_path("/ProteinDatabase/ProteinEntry/sequence")},
                    50000);
  net.run();
  // The 50 KB document dominates the byte count once published.
  EXPECT_GT(net.stats().broker_bytes(MessageType::kPublish), 50000u);
  EXPECT_GT(net.stats().total_broker_bytes(), control_bytes + 50000u);
}

}  // namespace
}  // namespace xroute

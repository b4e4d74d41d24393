// Lifetime and retirement tests for the RCU snapshot machinery
// (router/routing_snapshot.hpp): a pinned snapshot must outlive its
// replacement (no use-after-free under ASan), publish/current must hand
// readers fully built snapshots, retirement must actually free the
// chain (the live gauge stays bounded under churn), and a parallel
// broker must copy its edge state only when it changed. The index
// refresh's structural sharing is pinned in prt_index_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "router/broker.hpp"
#include "router/match_scheduler.hpp"
#include "router/routing_snapshot.hpp"
#include "router/routing_tables.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

struct DiscardSink : ForwardSink {
  void on_event(const DeliveryEvent&) override {}
};

/// Publishes the next snapshot of `prt` the way a parallel broker does:
/// the refreshed index, the previous edge state.
std::shared_ptr<const RoutingSnapshot> publish(SnapshotStore& store,
                                               const Prt& prt) {
  auto next = std::make_shared<const RoutingSnapshot>(
      store.version() + 1, prt.index(), store.current()->edge(),
      store.gauge());
  store.publish(next);
  return next;
}

TEST(SnapshotStore, StartsWithAnEmptyVersionZeroSnapshot) {
  SnapshotStore store;
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.version(), 0u);
  EXPECT_EQ(store.current()->index()->bucket_count(), 0u);
  EXPECT_EQ(store.live(), 1);
}

TEST(SnapshotStore, PinKeepsARetiredSnapshotAlive) {
  SnapshotStore store;
  Prt prt(/*covering=*/true);

  prt.insert(parse_xpe("/news/article"), IfaceId{1});
  publish(store, prt);
  EXPECT_EQ(store.version(), 1u);
  // v0 was dropped when v1 replaced it.
  EXPECT_EQ(store.live(), 1);

  // Pin v1 the way a match epoch does, then retire it twice over.
  std::shared_ptr<const RoutingSnapshot> pinned = store.current();
  prt.insert(parse_xpe("/news/sports"), IfaceId{2});
  publish(store, prt);
  prt.insert(parse_xpe("/news/weather"), IfaceId{3});
  publish(store, prt);

  EXPECT_EQ(store.version(), 3u);
  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_EQ(store.live(), 2);  // current + pinned; v2 already freed

  // The retired snapshot is still fully readable (ASan would flag a
  // use-after-free here if retirement were eager).
  Path path = parse_path("/news/article");
  InternedPath ip(path);
  std::vector<std::uint32_t> symbols;
  Prt::ShardMatch match;
  pinned->index()->match(ip.view(), &symbols, &match);
  ASSERT_EQ(match.hops.size(), 1u);
  EXPECT_EQ(match.hops[0], IfaceId{1});

  pinned.reset();
  EXPECT_EQ(store.live(), 1);
}

TEST(SnapshotStore, RetirementFreesTheChainUnderChurn) {
  SnapshotStore store;
  Prt prt(/*covering=*/true);

  for (int i = 0; i < 100; ++i) {
    Xpe xpe = parse_xpe("/news/item" + std::to_string(i));
    prt.insert(xpe, IfaceId{1});
    publish(store, prt);
    // No pins: at most the current snapshot and the one being replaced
    // may coexist for an instant; a growing chain would be a leak.
    ASSERT_LE(store.live(), 2) << "after publish " << i;
  }
  EXPECT_EQ(store.version(), 100u);
  EXPECT_EQ(store.live(), 1);
}

TEST(MatchScheduler, BatchPinHoldsTheSnapshotUntilFinish) {
  SnapshotStore store;
  Prt prt(/*covering=*/true);

  prt.insert(parse_xpe("/news/article"), IfaceId{1});
  publish(store, prt);

  MatchScheduler scheduler(MatchScheduler::Options{2, 4});
  EXPECT_EQ(scheduler.pinned_version(), 0u);

  Path path = parse_path("/news/article");
  std::vector<const Path*> paths{&path};
  scheduler.begin_batch(paths, store.current());
  EXPECT_EQ(scheduler.pinned_version(), 1u);

  // Publish a replacement and drop every other reference to v1 while the
  // epoch is still pinned to it: the pin alone keeps it alive.
  prt.insert(parse_xpe("/news/sports"), IfaceId{2});
  publish(store, prt);
  EXPECT_EQ(store.version(), 2u);
  EXPECT_EQ(store.live(), 2);

  std::vector<MatchScheduler::MatchResult> results;
  scheduler.finish_batch(&results);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].hops.size(), 1u);
  // Matched against the pinned v1, not the newer v2.
  EXPECT_EQ(results[0].hops[0], IfaceId{1});
  EXPECT_EQ(scheduler.pinned_version(), 0u);
  EXPECT_EQ(store.live(), 1);
}

TEST(MatchScheduler, DoubleBeginBatchThrows) {
  SnapshotStore store;
  MatchScheduler scheduler(MatchScheduler::Options{2, 4});
  Path path = parse_path("/news/article");
  std::vector<const Path*> paths{&path};
  scheduler.begin_batch(paths, store.current());
  EXPECT_THROW(scheduler.begin_batch(paths, store.current()),
               std::logic_error);
  std::vector<MatchScheduler::MatchResult> results;
  scheduler.finish_batch(&results);
  EXPECT_THROW(scheduler.finish_batch(&results), std::logic_error);
}

TEST(RoutingSnapshotBroker, BrokerPublishesOnControlOpsOnly) {
  Broker::Config config;
  config.use_advertisements = false;
  config.match_threads = 2;
  Broker broker(0, config);
  broker.add_neighbor(IfaceId{1});
  broker.add_client(IfaceId{10});

  DiscardSink sink;
  const std::uint64_t v0 = broker.snapshot_store().version();
  broker.handle(IfaceId{10}, Message::subscribe(parse_xpe("/news/article")),
                sink);
  const std::uint64_t v1 = broker.snapshot_store().version();
  EXPECT_GT(v1, v0);

  // Publications alone never publish a new snapshot.
  PublishMsg pub;
  pub.path = parse_path("/news/article");
  pub.doc_id = 1;
  broker.handle(IfaceId{1}, Message{pub}, sink);
  EXPECT_EQ(broker.snapshot_store().version(), v1);
  EXPECT_LE(broker.snapshot_store().live(), 2);
}

// A parallel broker's snapshot owns a copy of the edge state, taken only
// when a control op changed it: an op that touches the PRT alone shares
// the previous copy, and later edits of the live maps never leak into a
// pinned snapshot.
TEST(RoutingSnapshotBroker, EdgeStateIsCopiedOnlyWhenDirty) {
  Broker::Config config;
  config.use_advertisements = false;
  config.match_threads = 2;
  Broker broker(0, config);
  broker.add_neighbor(IfaceId{1});
  broker.add_client(IfaceId{10});
  DiscardSink sink;

  broker.handle(IfaceId{10}, Message::subscribe(parse_xpe("/news/article")),
                sink);
  std::shared_ptr<const RoutingSnapshot> pinned =
      broker.snapshot_store().current();
  EXPECT_TRUE(pinned->is_client(IfaceId{10}));
  EXPECT_FALSE(pinned->is_client(IfaceId{11}));
  ASSERT_NE(pinned->client_subscriptions(IfaceId{10}), nullptr);
  EXPECT_EQ(pinned->client_subscriptions(IfaceId{11}), nullptr);

  // A neighbour's subscription changes the index, not the edge state.
  broker.handle(IfaceId{1}, Message::subscribe(parse_xpe("/news/sports")),
                sink);
  std::shared_ptr<const RoutingSnapshot> next =
      broker.snapshot_store().current();
  EXPECT_EQ(next->version(), pinned->version() + 1);
  EXPECT_NE(next->index(), pinned->index());
  EXPECT_EQ(next->edge(), pinned->edge());

  // A client's subscription copies the edge state; the pinned view keeps
  // its own.
  broker.add_client(IfaceId{11});
  broker.handle(IfaceId{10}, Message::subscribe(parse_xpe("/news/weather")),
                sink);
  EXPECT_NE(broker.snapshot_store().current()->edge(), pinned->edge());
  EXPECT_TRUE(broker.snapshot_store().current()->is_client(IfaceId{11}));
  EXPECT_FALSE(pinned->is_client(IfaceId{11}));
  EXPECT_EQ(pinned->client_subscriptions(IfaceId{10})->size(), 1u);
}

}  // namespace
}  // namespace xroute

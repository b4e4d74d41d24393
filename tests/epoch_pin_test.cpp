// What a match epoch pins, and for how long. A batch epoch matches
// against the compiled PRT index it pinned at launch (a shared_ptr), so
// the index must outlive any refresh the control thread runs meanwhile
// and be freed once the epoch finishes; without pins, a refresh frees
// the index it replaces. Edge exactness comes from that pinned index
// too: a control op inside the broker's pipelined window must not change
// how the window's own publications are delivered. The index refresh's
// structural sharing is pinned in prt_index_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "router/broker.hpp"
#include "router/match_scheduler.hpp"
#include "router/routing_tables.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

constexpr IfaceId kNeighbor{1};
constexpr IfaceId kClient{10};
constexpr IfaceId kOtherClient{11};

struct DeliverySink : ForwardSink {
  std::vector<IfaceId> delivered;
  void on_event(const DeliveryEvent& event) override {
    if (event.kind == DeliveryEvent::Kind::kLocalDelivery) {
      delivered.push_back(event.iface);
    }
  }
};

BrokerOptions options_with_threads(std::size_t threads) {
  BrokerOptions options;
  options.use_advertisements = false;
  options.match_threads = threads;
  return options;
}

Message publication(const char* path, std::uint64_t doc_id) {
  PublishMsg pub;
  pub.path = parse_path(path);
  pub.doc_id = doc_id;
  return Message{pub};
}

// The table is the snapshot store: Prt::index() publishes the current
// compiled index, a copy of the pointer is a pin, and a refresh retires
// the previous index. A pinned index outlives two refreshes and stays
// readable; the unpinned one between them is freed at once.
TEST(SnapshotStore, PinKeepsARetiredSnapshotAlive) {
  Prt prt(/*covering=*/true);
  std::weak_ptr<const PrtIndex> empty = prt.index();
  const std::uint64_t builds = prt.index_stats().builds;

  prt.insert(parse_xpe("/news/article"), IfaceId{1});
  std::shared_ptr<const PrtIndex> pinned = prt.index();
  // The empty index was dropped when the first refresh replaced it.
  EXPECT_TRUE(empty.expired());

  prt.insert(parse_xpe("/news/sports"), IfaceId{2});
  std::weak_ptr<const PrtIndex> middle = prt.index();
  prt.insert(parse_xpe("/news/weather"), IfaceId{3});
  ASSERT_NE(prt.index(), pinned);

  EXPECT_EQ(prt.index_stats().builds, builds + 3);
  EXPECT_TRUE(middle.expired());  // current + pinned only

  // The retired index is still fully readable (ASan would flag a
  // use-after-free here if retirement were eager).
  Path path = parse_path("/news/article");
  InternedPath ip(path);
  std::vector<std::uint32_t> distinct;
  PrtMatch match;
  pinned->match(ip.view(), &distinct, &match);
  EXPECT_EQ(match.hops, std::vector<IfaceId>{IfaceId{1}});

  std::weak_ptr<const PrtIndex> retired = pinned;
  pinned.reset();
  EXPECT_TRUE(retired.expired());
}

// Without pins a refresh frees the index it replaces: a chain of retired
// indexes growing with the control ops would be a leak.
TEST(SnapshotStore, RetirementFreesTheChainUnderChurn) {
  Prt prt(/*covering=*/true);
  std::vector<std::weak_ptr<const PrtIndex>> published{prt.index()};
  const std::uint64_t builds = prt.index_stats().builds;

  for (int i = 0; i < 100; ++i) {
    prt.insert(parse_xpe("/news/item" + std::to_string(i)), IfaceId{1});
    published.push_back(prt.index());
    for (std::size_t v = 0; v + 1 < published.size(); ++v) {
      ASSERT_TRUE(published[v].expired())
          << "index " << v << " alive after refresh " << i;
    }
  }
  EXPECT_EQ(prt.index_stats().builds, builds + 100);
  EXPECT_EQ(published.back().lock(), prt.index());
}

// The snapshot an epoch pins is the compiled index itself: a refresh
// mid-epoch replaces the table's index, and the pin alone keeps the old
// one readable until finish_batch, which frees it.
TEST(MatchScheduler, BatchPinHoldsTheSnapshotUntilFinish) {
  Prt prt(/*covering=*/true);
  prt.insert(parse_xpe("/news/article"), IfaceId{1});
  std::weak_ptr<const PrtIndex> pinned_index = prt.index();

  MatchScheduler scheduler(2);
  Path path = parse_path("/news/article");
  std::vector<const Path*> paths{&path};
  scheduler.begin_batch(paths, prt.index());

  prt.remove(parse_xpe("/news/article"), IfaceId{1});
  prt.insert(parse_xpe("/news/article"), IfaceId{2});
  ASSERT_NE(prt.index(), pinned_index.lock());
  {
    // Still readable while the epoch runs (ASan would flag a
    // use-after-free here if the refresh had freed it).
    std::shared_ptr<const PrtIndex> index = pinned_index.lock();
    ASSERT_NE(index, nullptr);
    InternedPath ip(path);
    std::vector<std::uint32_t> distinct;
    PrtMatch match;
    index->match(ip.view(), &distinct, &match);
    EXPECT_EQ(match.hops, std::vector<IfaceId>{IfaceId{1}});
  }

  std::vector<PrtMatch> results;
  scheduler.finish_batch(&results);
  ASSERT_EQ(results.size(), 1u);
  // Matched against the pinned index, not the refreshed one.
  EXPECT_EQ(results[0].hops, std::vector<IfaceId>{IfaceId{1}});
  EXPECT_TRUE(pinned_index.expired());
}

TEST(MatchScheduler, DoubleBeginBatchThrows) {
  Prt prt(/*covering=*/true);
  MatchScheduler scheduler(2);
  Path path = parse_path("/news/article");
  std::vector<const Path*> paths{&path};
  scheduler.begin_batch(paths, prt.index());
  EXPECT_THROW(scheduler.begin_batch(paths, prt.index()), std::logic_error);
  std::vector<PrtMatch> results;
  scheduler.finish_batch(&results);
  EXPECT_THROW(scheduler.finish_batch(&results), std::logic_error);
}

// The window's unsubscribe comes after the publication: the publication
// was matched against the client's subscription and must be delivered,
// not suppressed against the already-updated edge state.
TEST(EpochPin, UnsubscribeInTheWindowStillReceivesTheMatchedPublication) {
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Broker broker(0, options_with_threads(threads));
    broker.add_neighbor(kNeighbor);
    broker.add_client(kClient);
    const Xpe xpe = parse_xpe("/news/article");
    DeliverySink sink;
    broker.handle(kClient, Message::subscribe(xpe), sink);

    Message pub = publication("/news/article", 1);
    Message unsub = Message::unsubscribe(xpe);
    std::vector<Broker::Inbound> batch{{kNeighbor, &pub}, {kClient, &unsub}};
    Broker::HandleStatus status = broker.handle_batch(batch, sink);
    EXPECT_EQ(status.deliveries, 1u);
    EXPECT_EQ(status.suppressed_false_positives, 0u);
    EXPECT_EQ(sink.delivered, std::vector<IfaceId>{kClient});

    // The unsubscribe holds for everything after it.
    Message later = publication("/news/article", 2);
    std::vector<Broker::Inbound> next{{kNeighbor, &later}};
    EXPECT_EQ(broker.handle_batch(next, sink).deliveries, 0u);
  }
}

// Windows whose control ops leave the clients' subscriptions alone, net
// out, or change another client's, then later windows: the subscribed
// client receives every publication.
TEST(EpochPin, EdgeStateIsCopiedOnlyByWindowsThatChangeIt) {
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Broker broker(0, options_with_threads(threads));
    broker.add_neighbor(kNeighbor);
    broker.add_client(kClient);
    broker.add_client(kOtherClient);
    DeliverySink sink;
    std::uint64_t doc_id = 1;
    // A window of `control` ops from `from`, then a publication-only
    // batch that pins whatever the window left.
    auto run_window = [&](IfaceId from, std::vector<Message> control) {
      Message pub = publication("/news/article", doc_id++);
      std::vector<Broker::Inbound> batch{{kNeighbor, &pub}};
      for (const Message& msg : control) batch.push_back({from, &msg});
      broker.handle_batch(batch, sink);
      Message tail = publication("/news/article", doc_id++);
      std::vector<Broker::Inbound> after{{kNeighbor, &tail}};
      broker.handle_batch(after, sink);
    };
    broker.handle(kClient, Message::subscribe(parse_xpe("/news/article")),
                  sink);
    run_window(kNeighbor, {});
    run_window(kNeighbor, {Message::subscribe(parse_xpe("/news/sports")),
                           Message::unsubscribe(parse_xpe("/news/sports"))});
    run_window(kOtherClient, {Message::subscribe(parse_xpe("/a")),
                              Message::subscribe(parse_xpe("/b")),
                              Message::unsubscribe(parse_xpe("/a"))});
    run_window(kNeighbor, {Message::subscribe(parse_xpe("/news/weather"))});
    EXPECT_EQ(sink.delivered.size(), 8u);
  }
}

// Control ops and a client teardown outside any window, on a threaded
// broker as on a sequential one: the publication between them is
// delivered once.
TEST(EpochPin, UnpinnedMutationsEditTheEdgeStateInPlace) {
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Broker broker(0, options_with_threads(threads));
    broker.add_neighbor(kNeighbor);
    broker.add_client(kClient);
    DeliverySink sink;
    broker.handle(kClient, Message::subscribe(parse_xpe("/news/article")),
                  sink);
    Message pub = publication("/news/article", 1);
    broker.handle(kNeighbor, pub, sink);
    broker.handle(kClient, Message::unsubscribe(parse_xpe("/news/article")),
                  sink);
    broker.add_client(kOtherClient);
    broker.handle(kOtherClient, Message::subscribe(parse_xpe("/a")), sink);
    broker.drop_interface(kOtherClient, sink);
    EXPECT_EQ(sink.delivered, std::vector<IfaceId>{kClient});
  }
}

}  // namespace
}  // namespace xroute

// Unit tests for the broker: SRT/PRT behaviour, advertisement flooding,
// advertisement-directed subscription forwarding, covering-based
// absorption and unsubscription, publication routing, edge exactness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "adv/derive.hpp"
#include "dtd/parser.hpp"
#include "match/pub_match.hpp"
#include "oracles.hpp"
#include "router/broker.hpp"
#include "util/rng.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xml_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

Xpe X(const char* s) { return parse_xpe(s); }

Message pub(const char* path) {
  static std::uint64_t next_doc_id = 1;
  PublishMsg msg;
  msg.path = parse_path(path);
  msg.doc_id = next_doc_id++;  // distinct: brokers deduplicate repeats
  return Message{msg};
}

/// Interfaces forwarded to, for messages of one type.
std::vector<IfaceId> targets(const Broker::HandleResult& result,
                             MessageType type) {
  std::vector<IfaceId> out;
  for (const auto& fwd : result.forwards) {
    if (fwd.message.type() == type) out.push_back(fwd.interface);
  }
  std::sort(out.begin(), out.end());
  return out;
}

constexpr IfaceId kLeft{1}, kRight{2}, kUp{3}, kClient{10}, kClient2{11};

Broker make_broker(Broker::Config config) {
  Broker broker(0, config);
  broker.add_neighbor(kLeft);
  broker.add_neighbor(kRight);
  broker.add_neighbor(kUp);
  broker.add_client(kClient);
  broker.add_client(kClient2);
  return broker;
}

TEST(BrokerAdvertise, FloodsOnceToOtherNeighbors) {
  Broker broker = make_broker({});
  Advertisement adv = Advertisement::from_elements({"a", "b"});
  auto r1 = broker.handle(kUp, Message::advertise(adv, 7));
  EXPECT_EQ(targets(r1, MessageType::kAdvertise),
            (std::vector<IfaceId>{kLeft, kRight}));
  EXPECT_EQ(broker.srt_size(), 1u);
  // Same advertisement from another hop: recorded, not re-flooded.
  auto r2 = broker.handle(kLeft, Message::advertise(adv, 8));
  EXPECT_TRUE(targets(r2, MessageType::kAdvertise).empty());
  EXPECT_EQ(broker.srt_size(), 1u);
}

TEST(BrokerSubscribe, FollowsAdvertisements) {
  Broker broker = make_broker({});
  broker.handle(kUp, Message::advertise(Advertisement::from_elements({"a", "b"}), 7));
  broker.handle(kLeft, Message::advertise(Advertisement::from_elements({"x", "y"}), 8));

  // A subscription overlapping only the first advertisement goes to kUp.
  auto r = broker.handle(kClient, Message::subscribe(X("/a/b")));
  EXPECT_EQ(targets(r, MessageType::kSubscribe), (std::vector<IfaceId>{kUp}));

  // One overlapping nothing goes nowhere.
  auto r2 = broker.handle(kClient, Message::subscribe(X("/q")));
  EXPECT_TRUE(targets(r2, MessageType::kSubscribe).empty());

  // One overlapping both goes to both.
  auto r3 = broker.handle(kClient, Message::subscribe(X("*")));
  EXPECT_EQ(targets(r3, MessageType::kSubscribe),
            (std::vector<IfaceId>{kLeft, kUp}));
}

TEST(BrokerSubscribe, FloodsWithoutAdvertisements) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  auto r = broker.handle(kClient, Message::subscribe(X("/a")));
  EXPECT_EQ(targets(r, MessageType::kSubscribe),
            (std::vector<IfaceId>{kLeft, kRight, kUp}));
  // Broker-to-broker: exclude the arrival interface.
  auto r2 = broker.handle(kLeft, Message::subscribe(X("/b")));
  EXPECT_EQ(targets(r2, MessageType::kSubscribe),
            (std::vector<IfaceId>{kRight, kUp}));
}

TEST(BrokerSubscribe, CoveredSubscriptionAbsorbed) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a")));
  // Covered by /a: not forwarded.
  auto r = broker.handle(kClient2, Message::subscribe(X("/a/b")));
  EXPECT_TRUE(targets(r, MessageType::kSubscribe).empty());
  EXPECT_EQ(broker.prt_size(), 2u);
}

TEST(BrokerSubscribe, CoveringSubscriptionUnsubscribesCovered) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a/b")));
  broker.handle(kClient, Message::subscribe(X("/a/c")));
  // The newcomer covers both: they are unsubscribed upstream, it is sent.
  auto r = broker.handle(kClient2, Message::subscribe(X("/a")));
  EXPECT_EQ(targets(r, MessageType::kSubscribe),
            (std::vector<IfaceId>{kLeft, kRight, kUp}));
  auto unsubs = targets(r, MessageType::kUnsubscribe);
  EXPECT_EQ(unsubs.size(), 6u);  // two covered subs x three neighbours
}

TEST(BrokerSubscribe, NoCoveringModeForwardsEverything) {
  Broker::Config config;
  config.use_advertisements = false;
  config.use_covering = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a")));
  auto r = broker.handle(kClient2, Message::subscribe(X("/a/b")));
  EXPECT_EQ(targets(r, MessageType::kSubscribe).size(), 3u);
  EXPECT_EQ(broker.prt_size(), 2u);
}

TEST(BrokerSubscribe, DuplicateForwardsOnlyTowardEarlierArrivals) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  auto r1 = broker.handle(kLeft, Message::subscribe(X("/a")));
  EXPECT_EQ(targets(r1, MessageType::kSubscribe).size(), 2u);
  // Same XPE from another interface: the only forward is back toward the
  // first arrival, so publications on that side start routing here too.
  auto r2 = broker.handle(kRight, Message::subscribe(X("/a")));
  EXPECT_EQ(targets(r2, MessageType::kSubscribe),
            (std::vector<IfaceId>{kLeft}));
  // Every interface has now been sent to exactly once; a third holder
  // adds nothing.
  auto r3 = broker.handle(kUp, Message::subscribe(X("/a")));
  EXPECT_TRUE(targets(r3, MessageType::kSubscribe).empty());
}

TEST(BrokerAdvertise, LateAdvertisementPullsSubscriptions) {
  Broker broker = make_broker({});
  // Subscription arrives before any advertisement: goes nowhere.
  auto r0 = broker.handle(kClient, Message::subscribe(X("/a/b")));
  EXPECT_TRUE(targets(r0, MessageType::kSubscribe).empty());
  // Matching advertisement arrives over a broker link: the pending
  // subscription is forwarded toward it.
  auto r1 = broker.handle(
      kUp, Message::advertise(Advertisement::from_elements({"a", "b", "c"}), 7));
  EXPECT_EQ(targets(r1, MessageType::kSubscribe), (std::vector<IfaceId>{kUp}));
  // Re-advertising does not re-forward.
  auto r2 = broker.handle(
      kLeft, Message::advertise(Advertisement::from_elements({"a", "b", "c"}), 7));
  EXPECT_TRUE(targets(r2, MessageType::kSubscribe).empty());
}

TEST(BrokerPublish, RoutesAlongPrtAndDelivers) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kLeft, Message::subscribe(X("/a/b")));
  broker.handle(kClient, Message::subscribe(X("/a")));

  auto r = broker.handle(kUp, pub("/a/b/c"));
  EXPECT_EQ(targets(r, MessageType::kPublish),
            (std::vector<IfaceId>{kLeft, kClient}));
  EXPECT_EQ(r.deliveries, 1u);
  EXPECT_EQ(r.suppressed_false_positives, 0u);

  // Never bounced back to the arrival interface.
  auto r2 = broker.handle(kLeft, pub("/a/b/c"));
  EXPECT_EQ(targets(r2, MessageType::kPublish), (std::vector<IfaceId>{kClient}));
}

TEST(BrokerPublish, NonMatchingDropped) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kLeft, Message::subscribe(X("/a/b")));
  auto r = broker.handle(kUp, pub("/x/y"));
  EXPECT_TRUE(r.forwards.empty());
}

TEST(BrokerPublish, EdgeDeliveryUsesClientOriginals) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a/b")));
  broker.handle(kClient, Message::subscribe(X("/a/c")));

  auto r1 = broker.handle(kUp, pub("/a/b"));
  EXPECT_EQ(r1.deliveries, 1u);
  auto r2 = broker.handle(kUp, pub("/a/z"));
  EXPECT_EQ(r2.deliveries, 0u);
}

TEST(BrokerUnsubscribe, RemovesAndPropagates) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a")));
  auto r = broker.handle(kClient, Message::unsubscribe(X("/a")));
  EXPECT_EQ(targets(r, MessageType::kUnsubscribe).size(), 3u);
  EXPECT_EQ(broker.prt_size(), 0u);
  // Publications no longer delivered.
  auto r2 = broker.handle(kUp, pub("/a/b"));
  EXPECT_TRUE(r2.forwards.empty());
}

TEST(BrokerUnsubscribe, KeepsWhileOtherHopsRemain) {
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kLeft, Message::subscribe(X("/a")));
  broker.handle(kRight, Message::subscribe(X("/a")));
  auto r = broker.handle(kLeft, Message::unsubscribe(X("/a")));
  EXPECT_TRUE(targets(r, MessageType::kUnsubscribe).empty());
  EXPECT_EQ(broker.prt_size(), 1u);
}

TEST(BrokerUnsubscribe, ReissuesPreviouslyCoveredChildren) {
  // /a absorbed /a/b; when /a goes away, /a/b must be re-forwarded or
  // upstream brokers lose the route.
  Broker::Config config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a")));
  auto r0 = broker.handle(kClient2, Message::subscribe(X("/a/b")));
  EXPECT_TRUE(targets(r0, MessageType::kSubscribe).empty());  // absorbed

  auto r = broker.handle(kClient, Message::unsubscribe(X("/a")));
  auto resubs = targets(r, MessageType::kSubscribe);
  EXPECT_EQ(resubs.size(), 3u);  // /a/b re-issued to all neighbours
  for (const auto& fwd : r.forwards) {
    if (fwd.message.type() == MessageType::kSubscribe) {
      EXPECT_EQ(std::get<SubscribeMsg>(fwd.message.payload).xpe, X("/a/b"));
    }
  }
}

TEST(BrokerMerging, MergePassEmitsMergerAndUnsubs) {
  Dtd dtd = parse_dtd(R"(
<!ELEMENT r (x)+>
<!ELEMENT x (a | b)>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY>
)");
  PathUniverse universe(dtd);

  Broker::Config config;
  config.use_advertisements = false;
  config.merging_enabled = true;
  config.merge_universe = &universe;
  config.merge_interval = 2;
  Broker broker = make_broker(config);

  broker.handle(kClient, Message::subscribe(X("/r/x/a")));
  auto r = broker.handle(kClient2, Message::subscribe(X("/r/x/b")));
  // The merge pass runs after the second insert: /r/x/* subscribed, both
  // originals unsubscribed.
  bool merger_sent = false;
  for (const auto& fwd : r.forwards) {
    if (fwd.message.type() == MessageType::kSubscribe &&
        std::get<SubscribeMsg>(fwd.message.payload).xpe == X("/r/x/*")) {
      merger_sent = true;
    }
  }
  EXPECT_TRUE(merger_sent);
  EXPECT_EQ(broker.merges_applied(), 1u);
  EXPECT_EQ(broker.prt_size(), 1u);

  // Edge exactness after the merge: /r/x/a still delivered to kClient
  // only; a false positive for both is suppressed... /r/x/* matches any
  // /r/x/? path, but neither client subscribed to /r/x/c.
  auto ra = broker.handle(kUp, pub("/r/x/a"));
  EXPECT_EQ(ra.deliveries, 1u);
  EXPECT_EQ(ra.suppressed_false_positives, 1u);  // kClient2's entry
}

TEST(BrokerUnadvertise, WithdrawsAndFloods) {
  Broker broker = make_broker({});
  Advertisement adv = Advertisement::from_elements({"a", "b"});
  broker.handle(kUp, Message::advertise(adv, 7));
  EXPECT_EQ(broker.srt_size(), 1u);

  auto r = broker.handle(kUp, Message::unadvertise(adv, 7));
  EXPECT_EQ(broker.srt_size(), 0u);
  EXPECT_EQ(targets(r, MessageType::kUnadvertise),
            (std::vector<IfaceId>{kLeft, kRight}));

  // New subscriptions no longer follow the withdrawn advertisement.
  auto r2 = broker.handle(kClient, Message::subscribe(X("/a/b")));
  EXPECT_TRUE(targets(r2, MessageType::kSubscribe).empty());
}

TEST(BrokerUnadvertise, KeptWhileOtherHopsRemain) {
  Broker broker = make_broker({});
  Advertisement adv = Advertisement::from_elements({"a", "b"});
  broker.handle(kUp, Message::advertise(adv, 7));
  broker.handle(kLeft, Message::advertise(adv, 8));

  auto r = broker.handle(kUp, Message::unadvertise(adv, 7));
  EXPECT_EQ(broker.srt_size(), 1u);
  EXPECT_TRUE(targets(r, MessageType::kUnadvertise).empty());

  // The remaining route still guides subscriptions.
  auto r2 = broker.handle(kClient, Message::subscribe(X("/a/b")));
  EXPECT_EQ(targets(r2, MessageType::kSubscribe), (std::vector<IfaceId>{kLeft}));
}

TEST(BrokerUnadvertise, UnknownAdvertisementIgnored) {
  Broker broker = make_broker({});
  Advertisement adv = Advertisement::from_elements({"q"});
  auto r = broker.handle(kUp, Message::unadvertise(adv, 7));
  EXPECT_TRUE(r.forwards.empty());
}

TEST(BrokerClientTable, TracksOriginals) {
  Broker broker = make_broker({});
  broker.handle(kClient, Message::subscribe(X("/a")));
  broker.handle(kClient, Message::subscribe(X("/b")));
  const auto* subs = broker.client_subscriptions(kClient);
  ASSERT_NE(subs, nullptr);
  EXPECT_EQ(subs->size(), 2u);
  broker.handle(kClient, Message::unsubscribe(X("/a")));
  EXPECT_EQ(broker.client_subscriptions(kClient)->size(), 1u);
  EXPECT_EQ(broker.client_subscriptions(kRight), nullptr);
}

// --- Indexed routing tables vs linear-scan reference --------------------

TEST(SrtIndex, FindAndContains) {
  Srt srt;
  Advertisement adv = parse_advertisement("/a/b/c");
  EXPECT_EQ(srt.find(adv), nullptr);
  srt.add(adv, IfaceId{1});
  ASSERT_NE(srt.find(adv), nullptr);
  EXPECT_TRUE(srt.contains(adv));
  EXPECT_EQ(srt.find(adv)->hops, ifaces({1}));
  srt.remove(adv, IfaceId{1});
  EXPECT_FALSE(srt.contains(adv));
}

TEST(SrtIndex, HopsOverlappingEqualsScanOnRandomWorkload) {
  Dtd dtd = corpus_dtd("news");
  DerivedAdvertisements derived = derive_advertisements(dtd);
  ASSERT_FALSE(derived.advertisements.empty());

  XpathGenOptions gen;
  gen.count = 200;
  gen.wildcard_prob = 0.2;
  gen.descendant_prob = 0.2;
  gen.relative_prob = 0.2;

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen.seed = seed;
    std::vector<Xpe> queries = generate_xpaths(dtd, gen);
    Srt srt;
    for (std::size_t i = 0; i < derived.advertisements.size(); ++i) {
      srt.add(derived.advertisements[i], IfaceId{static_cast<int>(i % 8)});
    }
    // Churn: withdraw every fourth advertisement so the index rebuilds.
    for (std::size_t i = 0; i < derived.advertisements.size(); i += 4) {
      srt.remove(derived.advertisements[i], IfaceId{static_cast<int>(i % 8)});
    }
    for (const Xpe& q : queries) {
      EXPECT_EQ(srt.hops_overlapping(q),
                testing::hops_overlapping_scan(srt, q))
          << "query " << q.to_string() << " seed " << seed;
    }
  }
}

TEST(PrtFlatIndex, MatchHopsEqualsScanOnRandomWorkload) {
  Dtd dtd = corpus_dtd("news");
  XpathGenOptions gen;
  gen.count = 400;
  gen.wildcard_prob = 0.2;
  gen.descendant_prob = 0.2;
  gen.relative_prob = 0.2;

  Rng rng(11);
  std::vector<Path> probes;
  for (int d = 0; d < 4; ++d) {
    XmlDocument doc = generate_document(dtd, rng);
    for (Path& p : extract_paths(doc)) probes.push_back(std::move(p));
  }
  ASSERT_FALSE(probes.empty());

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen.seed = seed;
    std::vector<Xpe> xpes = generate_xpaths(dtd, gen);
    Prt prt(/*covering=*/false);
    for (std::size_t i = 0; i < xpes.size(); ++i) {
      prt.insert(xpes[i], IfaceId{static_cast<int>(i % 16)});
      // Churn: removals exercise the swap-and-pop index invalidation.
      if (i % 3 == 2) prt.remove(xpes[i - 1], IfaceId{static_cast<int>((i - 1) % 16)});
    }
    for (const Path& p : probes) {
      EXPECT_EQ(prt.match_hops(p), testing::match_hops_scan(prt, p))
          << "path " << p.to_string() << " seed " << seed;
      // The index must select exactly the scan's subscriptions: each
      // matching entry contributes its hops once.
      std::multiset<IfaceId> via_scan;
      for (const auto& [xpe, hops] : prt.entries_with_hops()) {
        if (matches(p, xpe)) via_scan.insert(hops.begin(), hops.end());
      }
      EXPECT_EQ(testing::uncollapsed_hops(prt, p), via_scan)
          << "path " << p.to_string();
    }
  }
}

}  // namespace
}  // namespace xroute

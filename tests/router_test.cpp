// Unit tests for the broker: SRT/PRT behaviour, advertisement flooding,
// advertisement-directed subscription forwarding, covering-based
// absorption and unsubscription, publication routing, edge exactness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ostream>
#include <set>
#include <string>

#include "adv/derive.hpp"
#include "dtd/parser.hpp"
#include "match/pub_match.hpp"
#include "oracles.hpp"
#include "router/broker.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
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

Broker make_broker(BrokerOptions config) {
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
  BrokerOptions config;
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
  BrokerOptions config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a")));
  // Covered by /a: not forwarded.
  auto r = broker.handle(kClient2, Message::subscribe(X("/a/b")));
  EXPECT_TRUE(targets(r, MessageType::kSubscribe).empty());
  EXPECT_EQ(broker.prt_size(), 2u);
}

TEST(BrokerSubscribe, CoveringSubscriptionUnsubscribesCovered) {
  BrokerOptions config;
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
  BrokerOptions config;
  config.use_advertisements = false;
  config.use_covering = false;
  Broker broker = make_broker(config);
  broker.handle(kClient, Message::subscribe(X("/a")));
  auto r = broker.handle(kClient2, Message::subscribe(X("/a/b")));
  EXPECT_EQ(targets(r, MessageType::kSubscribe).size(), 3u);
  EXPECT_EQ(broker.prt_size(), 2u);
}

TEST(BrokerSubscribe, DuplicateForwardsOnlyTowardEarlierArrivals) {
  BrokerOptions config;
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
  BrokerOptions config;
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
  BrokerOptions config;
  config.use_advertisements = false;
  Broker broker = make_broker(config);
  broker.handle(kLeft, Message::subscribe(X("/a/b")));
  auto r = broker.handle(kUp, pub("/x/y"));
  EXPECT_TRUE(r.forwards.empty());
}

TEST(BrokerPublish, EdgeDeliveryUsesClientOriginals) {
  BrokerOptions config;
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
  BrokerOptions config;
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
  BrokerOptions config;
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
  BrokerOptions config;
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

// With every neighbour already holding a coverer's route, a subscription
// has nowhere to go: the broker must not run the SRT overlap test for it.
// That holds for a covered subscribe and for the re-forward of an orphan
// its grandparent still covers.
TEST(BrokerSubscribe, NothingToSendSkipsTheSrt) {
  Broker broker(0, BrokerOptions{});
  broker.add_neighbor(kUp);
  broker.add_client(kClient);
  broker.handle(kUp, Message::advertise(
                         Advertisement::from_elements({"a", "b", "c"}), 7));

  std::size_t srt0 = broker.srt().comparisons();
  auto r0 = broker.handle(kClient, Message::subscribe(X("/a")));
  EXPECT_EQ(targets(r0, MessageType::kSubscribe), (std::vector<IfaceId>{kUp}));
  EXPECT_GT(broker.srt().comparisons(), srt0);

  srt0 = broker.srt().comparisons();
  auto r1 = broker.handle(kClient, Message::subscribe(X("/a/b")));
  auto r2 = broker.handle(kClient, Message::subscribe(X("/a/b/c")));
  EXPECT_TRUE(r1.forwards.empty());
  EXPECT_TRUE(r2.forwards.empty());
  EXPECT_EQ(broker.srt().comparisons(), srt0);

  // /a/b leaves; its orphan /a/b/c splices under /a, whose route stands.
  auto r3 = broker.handle(kClient, Message::unsubscribe(X("/a/b")));
  EXPECT_TRUE(r3.forwards.empty());
  EXPECT_EQ(broker.srt().comparisons(), srt0);

  // /a leaves too: now the orphan needs its own route, found in the SRT.
  auto r4 = broker.handle(kClient, Message::unsubscribe(X("/a")));
  EXPECT_EQ(targets(r4, MessageType::kSubscribe), (std::vector<IfaceId>{kUp}));
  EXPECT_EQ(targets(r4, MessageType::kUnsubscribe),
            (std::vector<IfaceId>{kUp}));
  EXPECT_GT(broker.srt().comparisons(), srt0);
}

TEST(BrokerMerging, MergePassEmitsMergerAndUnsubs) {
  Dtd dtd = parse_dtd(R"(
<!ELEMENT r (x)+>
<!ELEMENT x (a | b)>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY>
)");
  PathUniverse universe(dtd);

  BrokerOptions config;
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

// Edge exactness follows every absorbed subscription to the client that
// made it: through an imperfect merge, a client subscribing the merger's
// own XPE, a second merge that absorbs that merger, and an unsubscribe of
// an absorbed original.
TEST(BrokerMerging, ExactnessFollowsEachClientsOwnSubscriptions) {
  Dtd dtd = parse_dtd(R"(
<!ELEMENT r (x | y)+>
<!ELEMENT x (a | b | c)>
<!ELEMENT y (a | b | c)>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>
)");
  PathUniverse universe(dtd);
  BrokerOptions config;
  config.use_advertisements = false;
  config.merging_enabled = true;
  config.merge_universe = &universe;
  config.merge_interval = 2;
  config.merge_options.max_imperfect_degree = 0.5;
  Broker broker = make_broker(config);
  auto delivered_to = [&](const char* path) {
    std::vector<IfaceId> out;
    for (const auto& fwd : broker.handle(kUp, pub(path)).forwards) {
      if (fwd.interface == kClient || fwd.interface == kClient2) {
        out.push_back(fwd.interface);
      }
    }
    return out;
  };
  using Ifaces = std::vector<IfaceId>;

  // /r/x/a + /r/x/b merge into /r/x/*, which also matches /r/x/c.
  broker.handle(kClient, Message::subscribe(X("/r/x/a")));
  broker.handle(kClient2, Message::subscribe(X("/r/x/b")));
  ASSERT_EQ(broker.merges_applied(), 1u);
  EXPECT_EQ(delivered_to("/r/x/a"), Ifaces{kClient});
  EXPECT_EQ(delivered_to("/r/x/c"), Ifaces{});

  // kClient2 subscribes the merger's own XPE: /r/x/c is now its own.
  broker.handle(kClient2, Message::subscribe(X("/r/x/*")));
  EXPECT_EQ(delivered_to("/r/x/c"), Ifaces{kClient2});

  // /r/y/a + /r/y/b merge into /r/y/*, and that merges with /r/x/* into
  // /r/*/*: what each client absorbed travels into the new merger.
  broker.handle(kClient, Message::subscribe(X("/r/y/a")));
  broker.handle(kLeft, Message::subscribe(X("/r/y/b")));
  ASSERT_EQ(broker.merges_applied(), 3u);
  ASSERT_EQ(broker.prt_size(), 1u);
  EXPECT_EQ(delivered_to("/r/x/c"), Ifaces{kClient2});
  EXPECT_EQ(delivered_to("/r/y/a"), Ifaces{kClient});
  EXPECT_EQ(delivered_to("/r/y/c"), Ifaces{});
  auto yc = broker.handle(kUp, pub("/r/y/c"));
  EXPECT_EQ(yc.suppressed_false_positives, 2u);
  EXPECT_EQ(targets(yc, MessageType::kPublish), Ifaces{kLeft});

  // Unsubscribing an absorbed original withdraws exactly that one.
  broker.handle(kClient, Message::unsubscribe(X("/r/x/a")));
  EXPECT_EQ(delivered_to("/r/x/a"), Ifaces{kClient2});
  EXPECT_EQ(delivered_to("/r/y/a"), Ifaces{kClient});
}

// A client that subscribes a merger's own XPE and then unsubscribes it
// still holds the originals the merger absorbed from it: the merger keeps
// routing to the client, and nothing is withdrawn upstream.
TEST(BrokerMerging, UnsubscribingAMergersOwnXpeKeepsTheAbsorbedOriginals) {
  Dtd dtd = parse_dtd(R"(
<!ELEMENT r (x | y)+>
<!ELEMENT x (a | b | c)>
<!ELEMENT y (a | b | c)>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>
)");
  PathUniverse universe(dtd);
  BrokerOptions config;
  config.use_advertisements = false;
  config.merging_enabled = true;
  config.merge_universe = &universe;
  config.merge_interval = 2;
  config.merge_options.max_imperfect_degree = 0.5;
  Broker broker = make_broker(config);

  broker.handle(kClient, Message::subscribe(X("/r/x/a")));
  broker.handle(kClient, Message::subscribe(X("/r/x/b")));
  ASSERT_EQ(broker.merges_applied(), 1u);
  broker.handle(kClient, Message::subscribe(X("/r/x/*")));
  auto r = broker.handle(kClient, Message::unsubscribe(X("/r/x/*")));
  for (const auto& fwd : r.forwards) {
    EXPECT_NE(fwd.message.type(), MessageType::kUnsubscribe) << fwd.interface;
  }
  EXPECT_EQ(broker.prt_size(), 1u);

  auto xa = broker.handle(kUp, pub("/r/x/a"));
  EXPECT_EQ(xa.deliveries, 1u);
  EXPECT_EQ(targets(xa, MessageType::kPublish), std::vector<IfaceId>{kClient});
  auto xc = broker.handle(kUp, pub("/r/x/c"));
  EXPECT_EQ(xc.deliveries, 0u);
  EXPECT_EQ(xc.suppressed_false_positives, 1u);
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

// A client receives what its live subscriptions match, and nothing after
// it withdraws them; a neighbour's subscription routes a publication to
// the neighbour but never delivers it locally.
TEST(BrokerClientTable, TracksOriginals) {
  Broker broker = make_broker({});
  broker.handle(kClient, Message::subscribe(X("/a")));
  broker.handle(kClient, Message::subscribe(X("/b")));
  broker.handle(kRight, Message::subscribe(X("/c")));
  EXPECT_EQ(broker.handle(kUp, pub("/a")).deliveries, 1u);
  EXPECT_EQ(broker.handle(kUp, pub("/b")).deliveries, 1u);

  broker.handle(kClient, Message::unsubscribe(X("/a")));
  auto a = broker.handle(kUp, pub("/a"));
  EXPECT_TRUE(a.forwards.empty());
  EXPECT_EQ(a.suppressed_false_positives, 0u);
  auto b = broker.handle(kUp, pub("/b"));
  EXPECT_EQ(b.deliveries, 1u);
  EXPECT_EQ(targets(b, MessageType::kPublish), std::vector<IfaceId>{kClient});

  auto c = broker.handle(kUp, pub("/c"));
  EXPECT_EQ(c.deliveries, 0u);
  EXPECT_EQ(targets(c, MessageType::kPublish), std::vector<IfaceId>{kRight});
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

// -- Covering maintenance golden --------------------------------------------
//
// perfbench's broker 1 in miniature: default options, one neighbour
// holding the NEWS advertisements, one client loading 2,000 generated
// XPEs, churning a disjoint 2,000-XPE pool through a 64-XPE live window,
// then tearing everything down. The digests pin every forwarded control
// message, in order, and the covering tree after the churn (parents,
// super pointers both ways). They were recorded before the signature
// pruning of the covering tests, which must change what those tests cost
// and nothing they decide.

struct Fnv {
  std::uint64_t value = 14695981039346656037ull;
  void byte(std::uint8_t b) {
    value ^= b;
    value *= 1099511628211ull;
  }
  void word(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<std::uint8_t>(v >> shift));
    }
  }
  void text(const std::string& s) {
    word(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

struct DigestSink : ForwardSink {
  Fnv fnv;
  std::size_t events = 0;
  void on_event(const DeliveryEvent& event) override {
    ++events;
    fnv.byte(static_cast<std::uint8_t>(event.kind));
    fnv.word(static_cast<std::uint64_t>(event.iface.value()));
    if (!event.has_message()) return;
    for (std::uint8_t b : wire::encode_frame(event.message())) fnv.byte(b);
  }
};

std::uint64_t tree_digest(const SubscriptionTree& tree) {
  Fnv fnv;
  auto name = [&](const SubscriptionTree::Node* n) {
    return n == tree.root() ? std::string("<root>") : n->xpe.to_string();
  };
  tree.for_each([&](const SubscriptionTree::Node& n) {
    fnv.text(name(&n));
    fnv.text(name(n.parent));
    fnv.word(n.super.size());
    for (const SubscriptionTree::Node* t : n.super) fnv.text(name(t));
    fnv.word(n.super_sources.size());
    for (const SubscriptionTree::Node* s : n.super_sources) fnv.text(name(s));
  });
  return fnv.value;
}

/// Digests of one golden run (see run_golden).
struct GoldenRun {
  std::size_t load_events = 0;
  std::size_t churn_events = 0;
  std::uint64_t churn_stream = 0;
  std::uint64_t churn_tree = 0;
  std::size_t teardown_events = 0;
  std::uint64_t final_stream = 0;
  friend bool operator==(const GoldenRun&, const GoldenRun&) = default;
  friend std::ostream& operator<<(std::ostream& os, const GoldenRun& g) {
    return os << "{" << g.load_events << ", " << g.churn_events << ", "
              << g.churn_stream << "ull, " << g.churn_tree << "ull, "
              << g.teardown_events << ", " << g.final_stream << "ull}";
  }
};

/// Advertisement i arrives from neighbour i % `neighbours`. Steady XPE i
/// comes from the client, or with `mixed_sources` from interface
/// i % (`neighbours` + 1), the last being the client; the client runs the
/// churn. Load, 2,000 churn ops, then teardown: the live pool drains and
/// the steady table leaves newest first, so each departing coverer
/// re-forwards its orphans, withdrawn in turn later.
GoldenRun run_golden(int neighbours, bool mixed_sources) {
  constexpr std::size_t kSteady = 2000, kPool = 2000, kOps = 2000, kLive = 64;
  const IfaceId client{neighbours};
  const Dtd dtd = news_dtd();
  XpathGenOptions gen;
  gen.count = kSteady + kPool;
  gen.seed = 1;
  const std::vector<Xpe> xpes = generate_xpaths(dtd, gen);
  EXPECT_EQ(xpes.size(), kSteady + kPool);
  std::vector<Xpe> pool(xpes.begin() + kSteady, xpes.end());
  Rng pool_rng(1);
  std::shuffle(pool.begin(), pool.end(), pool_rng.engine());
  auto steady_from = [&](std::size_t i) {
    if (!mixed_sources) return client;
    return IfaceId{static_cast<int>(i % (neighbours + 1u))};
  };

  Broker broker(1, BrokerOptions{});
  for (int n = 0; n < neighbours; ++n) broker.add_neighbor(IfaceId{n});
  broker.add_client(client);
  DigestSink sink;
  const std::vector<Advertisement> advs =
      derive_advertisements(dtd).advertisements;
  for (std::size_t i = 0; i < advs.size(); ++i) {
    broker.handle(IfaceId{static_cast<int>(i % neighbours)},
                  Message::advertise(advs[i], 0), sink);
  }
  const std::size_t adv_events = sink.events;
  for (std::size_t i = 0; i < kSteady; ++i) {
    broker.handle(steady_from(i), Message::subscribe(xpes[i]), sink);
  }
  GoldenRun run;
  run.load_events = sink.events - adv_events;
  // perfbench's ChurnWindow: subscribe the next pool XPE until kLive are
  // live, then unsubscribe the oldest and subscribe the next, in turn.
  std::deque<const Xpe*> live;
  std::size_t next = 0;
  for (std::size_t op = 0; op < kOps; ++op) {
    if (live.size() >= kLive) {
      broker.handle(client, Message::unsubscribe(*live.front()), sink);
      live.pop_front();
    } else {
      live.push_back(&pool[next]);
      next = (next + 1) % pool.size();
      broker.handle(client, Message::subscribe(*live.back()), sink);
    }
  }
  const SubscriptionTree& tree = *broker.prt().tree();
  EXPECT_EQ(tree.validate(), "");
  EXPECT_EQ(broker.prt_size(), kSteady + live.size());
  run.churn_events = sink.events - adv_events;
  run.churn_stream = sink.fnv.value;
  run.churn_tree = tree_digest(tree);

  for (const Xpe* xpe : live) {
    broker.handle(client, Message::unsubscribe(*xpe), sink);
  }
  for (std::size_t i = kSteady; i-- > 0;) {
    broker.handle(steady_from(i), Message::unsubscribe(xpes[i]), sink);
  }
  EXPECT_EQ(tree.validate(), "");
  EXPECT_EQ(broker.prt_size(), 0u);
  run.teardown_events = sink.events - adv_events;
  run.final_stream = sink.fnv.value;
  return run;
}

// -- The coverer walk against the full union --------------------------------
//
// Broker::coverage_interfaces stops once it holds every neighbour; its
// answer must equal the union over every coverer chain
// (testing::reference_coverage_interfaces).
// Subscriptions come from the neighbours and the client alike, so some
// coverers route toward only some neighbours or none, and the walk must
// go on past them.

void run_coverage_walk(int neighbours) {
  constexpr std::size_t kSteady = 1000, kPool = 1000, kOps = 1000, kLive = 64;
  const IfaceId client{neighbours};
  const Dtd dtd = news_dtd();
  XpathGenOptions gen;
  gen.count = kSteady + kPool;
  gen.seed = 2;
  const std::vector<Xpe> xpes = generate_xpaths(dtd, gen);
  Broker broker(1, BrokerOptions{});
  for (int n = 0; n < neighbours; ++n) broker.add_neighbor(IfaceId{n});
  broker.add_client(client);
  DigestSink sink;
  const std::vector<Advertisement> advs =
      derive_advertisements(dtd).advertisements;
  for (std::size_t i = 0; i < advs.size(); ++i) {
    broker.handle(IfaceId{static_cast<int>(i % neighbours)},
                  Message::advertise(advs[i], 0), sink);
  }
  std::size_t complete = 0, partial = 0;
  auto check = [&](const Xpe& xpe, const std::string& where) {
    if (!broker.prt().contains(xpe)) return;
    const IfaceSet want = testing::reference_coverage_interfaces(broker, xpe);
    EXPECT_EQ(broker.coverage_interfaces(xpe), want)
        << where << ": " << xpe.to_string();
    ++(want.size() == broker.neighbors().size() ? complete : partial);
  };
  auto check_all = [&](const std::string& where) {
    for (const auto& [xpe, hops] : broker.prt().entries_with_hops()) {
      check(xpe, where);
    }
  };
  for (std::size_t i = 0; i < kSteady; ++i) {
    const IfaceId from{static_cast<int>(i % (neighbours + 1u))};
    broker.handle(from, Message::subscribe(xpes[i]), sink);
    check(xpes[i], "load " + std::to_string(i));
  }
  check_all("after load");
  std::deque<const Xpe*> live;
  std::size_t next = kSteady;
  for (std::size_t op = 0; op < kOps; ++op) {
    const std::string where = "churn op " + std::to_string(op);
    if (live.size() >= kLive) {
      const Xpe& gone = *live.front();
      live.pop_front();
      std::vector<Xpe> orphans;
      if (const auto* node = broker.prt().tree()->find(gone)) {
        for (const auto& child : node->children) orphans.push_back(child->xpe);
        for (const auto* target : node->super) orphans.push_back(target->xpe);
      }
      broker.handle(client, Message::unsubscribe(gone), sink);
      for (const Xpe& orphan : orphans) check(orphan, where);
    } else {
      live.push_back(&xpes[next]);
      next = next + 1 < xpes.size() ? next + 1 : kSteady;
      broker.handle(client, Message::subscribe(*live.back()), sink);
      check(*live.back(), where);
    }
    if (op % 100 == 99) check_all(where);
  }
  broker.drop_interface(IfaceId{0}, sink);
  check_all("after dropping neighbour 0");
  EXPECT_EQ(broker.prt().tree()->validate(), "");
  // Both kinds of answer occur: all neighbours covered (the walk may stop
  // early) and only some (it must go on).
  EXPECT_GT(complete, 0u);
  if (neighbours > 1) EXPECT_GT(partial, 0u);
}

TEST(BrokerCoverage, ShortWalkEqualsFullUnion) {
  for (int neighbours : {1, 3}) {
    SCOPED_TRACE("neighbours " + std::to_string(neighbours));
    run_coverage_walk(neighbours);
  }
}

TEST(BrokerGolden, PerfbenchShapedLoadChurnAndTeardown) {
  const GoldenRun got = run_golden(1, /*mixed_sources=*/false);
  EXPECT_EQ(got, (GoldenRun{103, 103, 17822956419240278388ull,
                            9413504988225562101ull, 206,
                            5338147801188080196ull}))
      << got;
}

// Subscriptions from three neighbours and a client, advertisements split
// between the neighbours: coverers now route toward some interfaces and
// not others, and forwards are excluded from their arrival interface.
TEST(BrokerGolden, ThreeNeighboursLoadChurnAndTeardown) {
  const GoldenRun got = run_golden(3, /*mixed_sources=*/true);
  EXPECT_EQ(got, (GoldenRun{189, 245, 17836716109995806008ull,
                            9413504988225562101ull, 476,
                            4876829405827226930ull}))
      << got;
}

}  // namespace
}  // namespace xroute

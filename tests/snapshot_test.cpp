// Tests for broker snapshot & restore.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dtd/parser.hpp"
#include "dtd/universe.hpp"
#include "router/snapshot.hpp"
#include "util/error.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

Xpe X(const char* s) { return parse_xpe(s); }

constexpr IfaceId kLeft{1}, kRight{2}, kClient{10};

Broker make_broker(BrokerOptions config = {}) {
  Broker broker(0, config);
  broker.add_neighbor(kLeft);
  broker.add_neighbor(kRight);
  broker.add_client(kClient);
  return broker;
}

Message pub(const char* path) {
  static std::uint64_t next_doc_id = 1;
  PublishMsg msg;
  msg.path = parse_path(path);
  msg.doc_id = next_doc_id++;  // distinct: brokers deduplicate repeats
  return Message{msg};
}

/// Builds a broker with representative state: advertisements, covered and
/// covering subscriptions, a merger, client originals, forwarding records.
Broker populated_broker() {
  Broker broker = make_broker();
  broker.handle(kLeft,
                Message::advertise(Advertisement::from_elements({"a", "b"}), 5));
  broker.handle(kLeft, Message::advertise(
                           parse_advertisement("/a(/b)+/c"), 5));
  broker.handle(kClient, Message::subscribe(X("/a")));
  broker.handle(kClient, Message::subscribe(X("/a/b")));  // covered
  broker.handle(kRight, Message::subscribe(X("//c[@k='1']")));
  return broker;
}

TEST(Snapshot, RoundTripPreservesRouting) {
  Broker original = populated_broker();
  std::string snapshot = snapshot_to_string(original);

  Broker restored = make_broker();
  snapshot_from_string(restored, snapshot);

  EXPECT_EQ(restored.srt_size(), original.srt_size());
  EXPECT_EQ(restored.prt_size(), original.prt_size());

  // Identical routing decisions after restore.
  for (const char* path : {"/a/b/c", "/a/x", "/q"}) {
    auto before = original.handle(kLeft, pub(path));
    auto after = restored.handle(kLeft, pub(path));
    std::multiset<IfaceId> b_targets, a_targets;
    for (const auto& f : before.forwards) b_targets.insert(f.interface);
    for (const auto& f : after.forwards) a_targets.insert(f.interface);
    EXPECT_EQ(b_targets, a_targets) << path;
    EXPECT_EQ(before.deliveries, after.deliveries) << path;
  }

  // And re-snapshotting yields the same records (ordering may differ:
  // tree placement and hash iteration are not canonicalised).
  auto lines = [](const std::string& text) {
    std::multiset<std::string> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) out.insert(line);
    return out;
  };
  EXPECT_EQ(lines(snapshot_to_string(restored)), lines(snapshot));
}

TEST(Snapshot, PreservesCoveringStructure) {
  Broker original = populated_broker();
  Broker restored = make_broker();
  snapshot_from_string(restored, snapshot_to_string(original));

  // The covered subscription stays covered: a duplicate subscribe of the
  // coverer is not forwarded again; a new covered one is absorbed.
  auto r = restored.handle(kClient, Message::subscribe(X("/a/b/c")));
  bool forwarded = false;
  for (const auto& f : r.forwards) {
    if (f.message.type() == MessageType::kSubscribe) forwarded = true;
  }
  EXPECT_FALSE(forwarded);
}

TEST(Snapshot, PreservesMergers) {
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
  Broker original = make_broker(config);
  original.handle(kClient, Message::subscribe(X("/r/x/a")));
  original.handle(kClient, Message::subscribe(X("/r/x/b")));
  ASSERT_EQ(original.merges_applied(), 1u);

  Broker restored = make_broker(config);
  snapshot_from_string(restored, snapshot_to_string(original));

  // The merger (and its originals for edge exactness) survive: a pub for
  // an unsubscribed sibling is suppressed, not delivered.
  auto r = restored.handle(kLeft, pub("/r/x/a"));
  EXPECT_EQ(r.deliveries, 1u);
  auto r2 = restored.handle(kLeft, pub("/r/x/b"));
  EXPECT_EQ(r2.deliveries, 1u);
}

TEST(Snapshot, MergingRoundTripForwardingBitIdentical) {
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
  Broker original = make_broker(config);
  // Client originals on two interfaces plus a neighbour subscription, so
  // the snapshot carries mergers, absorbed lists and forwarding records.
  original.handle(kClient, Message::subscribe(X("/r/x/a")));
  original.handle(kClient, Message::subscribe(X("/r/x/b")));
  original.handle(kRight, Message::subscribe(X("/r/x")));
  ASSERT_GE(original.merges_applied(), 1u);

  std::string snapshot = snapshot_to_string(original);
  Broker restored = make_broker(config);
  snapshot_from_string(restored, snapshot);

  // Forwarding must be bit-identical: same interfaces, same message types,
  // same deliveries, same suppression counts, for every probe publication.
  for (const char* path : {"/r/x/a", "/r/x/b", "/r/x", "/r"}) {
    Message probe = pub(path);  // same doc id into both brokers
    auto before = original.handle(kLeft, probe);
    auto after = restored.handle(kLeft, probe);
    std::multiset<std::pair<IfaceId, int>> b_fwd, a_fwd;
    for (const auto& f : before.forwards) {
      b_fwd.emplace(f.interface, static_cast<int>(f.message.type()));
    }
    for (const auto& f : after.forwards) {
      a_fwd.emplace(f.interface, static_cast<int>(f.message.type()));
    }
    EXPECT_EQ(b_fwd, a_fwd) << path;
    EXPECT_EQ(before.deliveries, after.deliveries) << path;
    EXPECT_EQ(before.suppressed_false_positives,
              after.suppressed_false_positives)
        << path;
  }

  // The restored broker re-serialises to the same record set.
  auto lines = [](const std::string& text) {
    std::multiset<std::string> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) out.insert(line);
    return out;
  };
  EXPECT_EQ(lines(snapshot_to_string(restored)), lines(snapshot));
}

TEST(Snapshot, FlatModeRoundTrip) {
  BrokerOptions config;
  config.use_covering = false;
  config.use_advertisements = false;
  Broker original = make_broker(config);
  original.handle(kClient, Message::subscribe(X("/a")));
  original.handle(kLeft, Message::subscribe(X("/a/b")));

  Broker restored = make_broker(config);
  snapshot_from_string(restored, snapshot_to_string(original));
  EXPECT_EQ(restored.prt_size(), 2u);
  auto r = restored.handle(kRight, pub("/a/b"));
  EXPECT_EQ(r.deliveries, 1u);
}

TEST(Snapshot, MalformedInputs) {
  // Fresh broker per case: a restore aborted mid-stream may already have
  // applied records, and a second restore into that broker is a
  // logic_error, not a ParseError.
  auto expect_parse_error = [](const char* text) {
    Broker broker = make_broker();
    EXPECT_THROW(snapshot_from_string(broker, text), ParseError) << text;
  };
  expect_parse_error("");
  expect_parse_error("wrong header\nend\n");
  // sub without hops
  expect_parse_error("xroute-broker-snapshot 2\nsub\t/a\n");
  expect_parse_error("xroute-broker-snapshot 2\nbogus\tx\nend\n");
  // truncated: no 'end'
  expect_parse_error("xroute-broker-snapshot 2\nsub\t/a\t1\n");
  expect_parse_error("xroute-broker-snapshot 2\nsrt\t/a\tNaN\nend\n");
  // absorbed without a hop or XPEs
  expect_parse_error("xroute-broker-snapshot 2\nabsorbed\t/a\t1\nend\n");
  // version 1's per-client tables are gone
  expect_parse_error("xroute-broker-snapshot 2\nclient\t10\t/a\nend\n");
}

TEST(Snapshot, UnsupportedVersionHeaderIsParseError) {
  auto expect_parse_error = [](const char* text) {
    Broker broker = make_broker();
    EXPECT_THROW(snapshot_from_string(broker, text), ParseError) << text;
  };
  // Right format, future version: rejected with a clear ParseError rather
  // than misparsed.
  expect_parse_error("xroute-broker-snapshot 3\nend\n");
  expect_parse_error("xroute-broker-snapshot\nend\n");
  // Foreign header entirely.
  expect_parse_error("xroute-link-sync 1\nend\n");
}

TEST(Snapshot, RestoreIntoNonEmptyBrokerIsLogicError) {
  Broker populated = populated_broker();
  std::string snapshot = snapshot_to_string(populated);
  // Any pre-existing routing state vetoes a restore: SRT/PRT entries or
  // forwarding records.
  EXPECT_THROW(snapshot_from_string(populated, snapshot), std::logic_error);

  Broker subscribed = make_broker();
  subscribed.handle(kLeft, Message::subscribe(X("/a/b")));
  EXPECT_THROW(snapshot_from_string(subscribed, snapshot), std::logic_error);

  // A fresh broker with the same interfaces accepts the same snapshot.
  Broker fresh = make_broker();
  EXPECT_NO_THROW(snapshot_from_string(fresh, snapshot));
  EXPECT_EQ(fresh.srt_size(), populated.srt_size());
  EXPECT_EQ(fresh.prt_size(), populated.prt_size());
}

TEST(Snapshot, EmptyBrokerRoundTrip) {
  Broker original = make_broker();
  Broker restored = make_broker();
  snapshot_from_string(restored, snapshot_to_string(original));
  EXPECT_EQ(restored.prt_size(), 0u);
  EXPECT_EQ(restored.srt_size(), 0u);
}

// Link-state transfer runs between brokers. A client's routes come only
// from its own subscribes — what edge exactness relies on — so a SyncState
// arriving on a client interface imports nothing, and a SyncRequest there
// gets no reply.
TEST(LinkSync, ClientSyncStateImportsNothing) {
  Broker broker = make_broker();
  broker.begin_resync(1);
  const std::string state = "xroute-link-sync 1\nsub\t/x\nend\n";
  auto r = broker.handle(kClient, Message::sync_state(state));
  EXPECT_FALSE(r.resync_completed);
  EXPECT_EQ(broker.pending_syncs(), 1u);
  EXPECT_EQ(snapshot_to_string(broker).find("/x"), std::string::npos);

  // The same state from a neighbour is imported and completes the resync.
  auto from_neighbor = broker.handle(kLeft, Message::sync_state(state));
  EXPECT_TRUE(from_neighbor.resync_completed);
  EXPECT_NE(snapshot_to_string(broker).find("sub\t/x\t1"), std::string::npos);
}

TEST(LinkSync, ClientSyncRequestGetsNoReply) {
  Broker broker = make_broker();
  broker.handle(kLeft, Message::subscribe(X("/a")));
  EXPECT_TRUE(broker.handle(kClient, Message::sync_request()).forwards.empty());
  auto reply = broker.handle(kRight, Message::sync_request());
  ASSERT_EQ(reply.forwards.size(), 1u);
  EXPECT_EQ(reply.forwards[0].interface, kRight);
  EXPECT_EQ(reply.forwards[0].message.type(), MessageType::kSyncState);
}

}  // namespace
}  // namespace xroute

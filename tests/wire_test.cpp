// Wire codec tests: exhaustive encode→decode round-trip equality over the
// full Message variant, property round-trips over generated workloads, the
// strict-decoder error paths (truncation at every byte boundary, garbage
// prefixes, hostile lengths), stream reassembly, and the snapshot /
// SyncState payloads riding through the codec.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adv/advertisement.hpp"
#include "adv/derive.hpp"
#include "dtd/universe.hpp"
#include "router/broker.hpp"
#include "router/message.hpp"
#include "router/snapshot.hpp"
#include "util/error.hpp"
#include "wire/codec.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/parser.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

using wire::DecodeStatus;
using wire::FrameKind;

/// Encode → decode → payload equality, and the frame must consume exactly.
void expect_roundtrip(const Message& msg) {
  std::vector<std::uint8_t> frame = wire::encode_frame(msg);
  wire::Decoded decoded = wire::decode_frame(frame);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk)
      << "frame of type " << to_string(msg.type()) << ": "
      << to_string(decoded.status);
  EXPECT_EQ(decoded.consumed, frame.size());
  ASSERT_TRUE(decoded.is_message());
  EXPECT_EQ(decoded.message.type(), msg.type());
  EXPECT_EQ(decoded.message.payload, msg.payload)
      << "payload mismatch for " << to_string(msg.type());
  // Bit-exactness: re-encoding the decoded message reproduces the frame.
  EXPECT_EQ(wire::encode_frame(decoded.message), frame);
}

TEST(WireCodec, RoundTripsEveryMessageType) {
  expect_roundtrip(Message::advertise(parse_advertisement("/a/b/c"), 3));
  expect_roundtrip(Message::advertise(parse_advertisement("/a/*/c"), -1));
  expect_roundtrip(
      Message::advertise(parse_advertisement("/a(/b/c)+/d"), 120));
  expect_roundtrip(Message::subscribe(parse_xpe("/a/b")));
  expect_roundtrip(Message::subscribe(parse_xpe("//c")));
  expect_roundtrip(Message::subscribe(parse_xpe("/a//b/*")));
  expect_roundtrip(Message::subscribe(parse_xpe("a/b/c")));  // relative
  expect_roundtrip(Message::unsubscribe(parse_xpe("/d//e")));
  expect_roundtrip(Message::unadvertise(parse_advertisement("/x/y"), 9));
  expect_roundtrip(Message::sync_request());
  expect_roundtrip(Message::sync_state("xroute-link-sync 1\nend\n"));
  expect_roundtrip(Message::sync_state(""));

  PublishMsg pub;
  pub.path = parse_path("/a/b/c");
  pub.doc_id = 0xFFFF'FFFF'FFFFull;
  pub.path_id = 7;
  pub.doc_bytes = 12345;
  pub.paths_in_doc = 42;
  pub.publish_time = 1234.5625;
  expect_roundtrip(Message{pub});
}

TEST(WireCodec, RoundTripsPredicateXpes) {
  const char* xpes[] = {
      "/a/b[@id='7']",
      "/a//c[text()='x y']",
      "//b[@lang='en']/c",
  };
  for (const char* text : xpes) {
    expect_roundtrip(Message::subscribe(parse_xpe(text)));
    expect_roundtrip(Message::unsubscribe(parse_xpe(text)));
  }
}

TEST(WireCodec, RoundTripsAnnotatedPublicationPaths) {
  XmlDocument doc =
      parse_xml("<a id=\"1\" lang=\"en\"><b>text</b><c><d>x</d></c></a>");
  std::uint64_t doc_id = 1;
  for (const Path& path : extract_paths(doc)) {
    ASSERT_TRUE(path.annotated());
    PublishMsg pub;
    pub.path = path;
    pub.doc_id = doc_id++;
    expect_roundtrip(Message{pub});
  }
}

TEST(WireCodec, RoundTripsHello) {
  wire::Hello hello;
  hello.kind = wire::Hello::PeerKind::kClient;
  hello.peer_id = 40001;
  hello.max_version = wire::kProtocolVersion;
  std::vector<std::uint8_t> frame = wire::encode_hello(hello);
  wire::Decoded decoded = wire::decode_frame(frame);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  ASSERT_EQ(decoded.kind, FrameKind::kHello);
  EXPECT_FALSE(decoded.is_message());
  EXPECT_EQ(decoded.hello, hello);
}

TEST(WireCodec, RoundTripsHelloIncarnation) {
  // The incarnation rides the Hello so peers can reject stale rejoins;
  // zero (a first life) and large restart counts must both survive.
  for (std::uint32_t incarnation : {0u, 1u, 7u, 0xFFFF'FFFFu}) {
    wire::Hello hello;
    hello.kind = wire::Hello::PeerKind::kBroker;
    hello.peer_id = 3;
    hello.max_version = wire::kProtocolVersion;
    hello.incarnation = incarnation;
    wire::Decoded decoded = wire::decode_frame(wire::encode_hello(hello));
    ASSERT_EQ(decoded.status, DecodeStatus::kOk);
    ASSERT_EQ(decoded.kind, FrameKind::kHello);
    EXPECT_EQ(decoded.hello.incarnation, incarnation);
    EXPECT_EQ(decoded.hello, hello);
  }
}

TEST(WireCodec, RoundTripsHeartbeatAndGoodbye) {
  for (std::uint64_t seq : {0ull, 1ull, 300ull, 0xFFFF'FFFF'FFFFull}) {
    std::vector<std::uint8_t> frame = wire::encode_heartbeat(seq);
    wire::Decoded decoded = wire::decode_frame(frame);
    ASSERT_EQ(decoded.status, DecodeStatus::kOk);
    ASSERT_EQ(decoded.kind, FrameKind::kHeartbeat);
    EXPECT_FALSE(decoded.is_message());
    EXPECT_EQ(decoded.heartbeat_seq, seq);
    EXPECT_EQ(decoded.consumed, frame.size());
  }
  std::vector<std::uint8_t> bye = wire::encode_goodbye();
  wire::Decoded decoded = wire::decode_frame(bye);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  ASSERT_EQ(decoded.kind, FrameKind::kGoodbye);
  EXPECT_FALSE(decoded.is_message());
  EXPECT_EQ(decoded.consumed, bye.size());
}

// Property: every message produced from the corpus workload generators
// survives the wire bit-exactly — queries with the paper's W/DO knobs and
// predicates, derived advertisements, and universe paths as publications.
TEST(WireCodec, PropertyRoundTripOverGeneratedWorkloads) {
  for (const char* corpus : {"news", "psd"}) {
    Dtd dtd = corpus_dtd(corpus);

    XpathGenOptions gen;
    gen.count = 150;
    gen.seed = 42;
    gen.predicate_prob = 0.3;
    for (const Xpe& xpe : generate_xpaths(dtd, gen)) {
      expect_roundtrip(Message::subscribe(xpe));
    }

    std::uint64_t doc_id = 1;
    for (const Advertisement& adv : derive_advertisements(dtd).advertisements) {
      expect_roundtrip(Message::advertise(adv, 1));
      expect_roundtrip(Message::unadvertise(adv, 1));
    }
    PathUniverse::Options uopts;
    uopts.max_depth = 6;
    PathUniverse universe(dtd, uopts);
    std::size_t taken = 0;
    for (const Path& path : universe.paths()) {
      if (++taken > 200) break;
      PublishMsg pub;
      pub.path = path;
      pub.doc_id = doc_id++;
      pub.doc_bytes = 200;
      expect_roundtrip(Message{pub});
    }
  }
}

// -- Error paths ------------------------------------------------------------

TEST(WireCodec, TruncationAtEveryBoundaryReportsNeedMore) {
  std::vector<Message> samples;
  samples.push_back(Message::advertise(parse_advertisement("/a(/b/c)+/d"), 2));
  samples.push_back(Message::subscribe(parse_xpe("/a//b[@id='1']/*")));
  PublishMsg pub;
  pub.path = parse_path("/a/b/c");
  pub.doc_id = 99;
  samples.push_back(Message{pub});
  samples.push_back(Message::sync_state("xroute-link-sync 1\nend\n"));

  for (const Message& msg : samples) {
    std::vector<std::uint8_t> frame = wire::encode_frame(msg);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      wire::Decoded decoded = wire::decode_frame(frame.data(), len);
      EXPECT_EQ(decoded.status, DecodeStatus::kNeedMore)
          << "prefix of " << len << "/" << frame.size() << " bytes";
      EXPECT_EQ(decoded.consumed, 0u);
    }
  }
}

TEST(WireCodec, GarbagePrefixFailsFast) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(Message::subscribe(parse_xpe("/a")));

  std::vector<std::uint8_t> bad_magic = frame;
  bad_magic[0] = 'Z';
  EXPECT_EQ(wire::decode_frame(bad_magic).status, DecodeStatus::kBadMagic);
  // A bad magic byte is detected from the very first byte — no "need more"
  // stall on garbage.
  EXPECT_EQ(wire::decode_frame(bad_magic.data(), 1).status,
            DecodeStatus::kBadMagic);

  std::vector<std::uint8_t> bad_version = frame;
  bad_version[2] = 0x7F;
  EXPECT_EQ(wire::decode_frame(bad_version).status, DecodeStatus::kBadVersion);

  std::vector<std::uint8_t> bad_kind = frame;
  bad_kind[3] = 0x66;
  EXPECT_EQ(wire::decode_frame(bad_kind).status, DecodeStatus::kBadKind);
}

TEST(WireCodec, HostileLengthsCannotDemandAllocation) {
  // Header claiming a payload far beyond kMaxFrameBytes: rejected as
  // oversized from the length varint alone.
  std::vector<std::uint8_t> oversized = {wire::kMagic0, wire::kMagic1,
                                         wire::kProtocolVersion,
                                         0x01,  // kSubscribe
                                         0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_EQ(wire::decode_frame(oversized).status, DecodeStatus::kOversized);

  // A syntactically complete frame whose payload claims 0xFFFF list items
  // with two bytes in hand: the count-vs-remaining check rejects it
  // before any allocation happens.
  std::vector<std::uint8_t> hostile = {wire::kMagic0, wire::kMagic1,
                                       wire::kProtocolVersion,
                                       0x01,        // kSubscribe
                                       0x04,        // payload = 4 bytes
                                       0x00,        // flags: absolute
                                       0xFF, 0xFF,  // step count varint
                                       0x03};
  EXPECT_EQ(wire::decode_frame(hostile).status, DecodeStatus::kBadValue);
}

TEST(WireCodec, TrailingBytesAreReported) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(Message::sync_request());
  std::size_t exact = frame.size();
  frame.push_back(0xAB);
  wire::Decoded decoded = wire::decode_frame(frame);
  EXPECT_EQ(decoded.status, DecodeStatus::kTrailingBytes);
  EXPECT_EQ(decoded.consumed, exact);
}

TEST(WireFrameDecoder, ReassemblesFramesFedByteByByte) {
  std::vector<Message> messages;
  messages.push_back(Message::subscribe(parse_xpe("/a/b")));
  messages.push_back(Message::advertise(parse_advertisement("/x/y/z"), 1));
  PublishMsg pub;
  pub.path = parse_path("/a/b");
  pub.doc_id = 5;
  messages.push_back(Message{pub});

  std::vector<std::uint8_t> stream;
  for (const Message& msg : messages) {
    std::vector<std::uint8_t> frame = wire::encode_frame(msg);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  wire::FrameDecoder decoder;
  std::size_t received = 0;
  for (std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    for (;;) {
      wire::Decoded decoded = decoder.next();
      if (decoded.status == DecodeStatus::kNeedMore) break;
      ASSERT_EQ(decoded.status, DecodeStatus::kOk);
      ASSERT_LT(received, messages.size());
      EXPECT_EQ(decoded.message.payload, messages[received].payload);
      ++received;
    }
  }
  EXPECT_EQ(received, messages.size());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireFrameDecoder, ErrorsAreSticky) {
  wire::FrameDecoder decoder;
  std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  decoder.feed(garbage);
  EXPECT_EQ(decoder.next().status, DecodeStatus::kBadMagic);
  // Even a pristine frame cannot resurrect a desynchronised stream.
  decoder.feed(wire::encode_frame(Message::sync_request()));
  EXPECT_EQ(decoder.next().status, DecodeStatus::kBadMagic);
  EXPECT_EQ(decoder.error(), DecodeStatus::kBadMagic);
}

// -- Snapshot / SyncState payloads through the wire -------------------------

/// A broker with state on every relation the snapshot serialises.
Broker populated_broker() {
  BrokerOptions config;
  Broker broker(1, config);
  broker.add_neighbor(IfaceId{0});
  broker.add_neighbor(IfaceId{1});
  broker.add_client(IfaceId{2});
  broker.handle(IfaceId{0}, Message::advertise(parse_advertisement("/a/b"), 7));
  broker.handle(IfaceId{0}, Message::advertise(parse_advertisement("/a/b/c"), 7));
  broker.handle(IfaceId{2}, Message::subscribe(parse_xpe("/a/b")));
  broker.handle(IfaceId{1}, Message::subscribe(parse_xpe("/a/b/c")));
  return broker;
}

TEST(WireSnapshot, FullSnapshotRoundTripsThroughSyncState) {
  Broker broker = populated_broker();
  std::string snapshot = snapshot_to_string(broker);

  // Snapshot → SyncStateMsg → wire → SyncStateMsg → restore.
  wire::Decoded decoded =
      wire::decode_frame(wire::encode_frame(Message::sync_state(snapshot)));
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  const auto& state = std::get<SyncStateMsg>(decoded.message.payload);
  EXPECT_EQ(state.state, snapshot);

  Broker restored(1, BrokerOptions{});
  restored.add_neighbor(IfaceId{0});
  restored.add_neighbor(IfaceId{1});
  restored.add_client(IfaceId{2});
  snapshot_from_string(restored, state.state);
  EXPECT_EQ(snapshot_to_string(restored), snapshot);
  EXPECT_EQ(restored.srt_size(), broker.srt_size());
  EXPECT_EQ(restored.prt_size(), broker.prt_size());
}

TEST(WireSnapshot, LinkStateExportImportRoundTripsThroughWire) {
  Broker broker = populated_broker();
  std::string exported = export_link_state(broker, IfaceId{1});
  ASSERT_NE(exported.find("xroute-link-sync 1"), std::string::npos);

  wire::Decoded decoded =
      wire::decode_frame(wire::encode_frame(Message::sync_state(exported)));
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  const auto& state = std::get<SyncStateMsg>(decoded.message.payload);
  EXPECT_EQ(state.state, exported);

  // The restarted neighbour imports the decoded slice and regains routing
  // state for the shared link.
  Broker restarted(2, BrokerOptions{});
  restarted.add_neighbor(IfaceId{0});
  import_link_state(restarted, IfaceId{0}, state.state);
  EXPECT_GT(restarted.srt_size() + restarted.prt_size(), 0u);
}

TEST(WireSnapshot, MalformedVersionHeaderIsRejectedAfterDecode) {
  // The wire layer transports the state opaquely; the *snapshot* layer owns
  // the version check and must reject an unknown header after a clean
  // wire round-trip.
  std::string bogus = "xroute-link-sync 99\nend\n";
  wire::Decoded decoded =
      wire::decode_frame(wire::encode_frame(Message::sync_state(bogus)));
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);

  Broker restarted(2, BrokerOptions{});
  restarted.add_neighbor(IfaceId{0});
  EXPECT_THROW(
      import_link_state(restarted, IfaceId{0},
                        std::get<SyncStateMsg>(decoded.message.payload).state),
      ParseError);

  Broker blank(3, BrokerOptions{});
  EXPECT_THROW(snapshot_from_string(blank, "xroute-broker-snapshot 99\nend\n"),
               ParseError);
}

// -- Broadcast frames (kAirIndex / kBcastData) -------------------------------

wire::AirIndex sample_air_index() {
  wire::AirIndex index;
  index.channel = 3;
  index.cycle = 41;
  index.bucket_count = 5;
  index.data_bytes = 1234;
  index.names = {"a", "b", "c"};
  // Trie for /a/b (buckets 0,2,4), /a/c (bucket 1), /c (bucket 3).
  index.nodes.push_back({0, wire::AirIndex::kNoParent, {}});
  index.nodes.push_back({1, 0, {0, 2, 4}});
  index.nodes.push_back({2, 0, {1}});
  index.nodes.push_back({2, wire::AirIndex::kNoParent, {3}});
  return index;
}

TEST(WireBroadcast, AirIndexRoundTripsExactly) {
  wire::AirIndex index = sample_air_index();
  std::vector<std::uint8_t> frame = wire::encode_air_index(index);
  wire::Decoded decoded = wire::decode_frame(frame);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  EXPECT_EQ(decoded.consumed, frame.size());
  ASSERT_EQ(decoded.kind, FrameKind::kAirIndex);
  EXPECT_EQ(decoded.air_index, index);
  // Air frames are channel traffic, not routable messages: a broker fed
  // one through a transport must never see it as a Message.
  EXPECT_FALSE(decoded.is_message());
}

TEST(WireBroadcast, BcastDataRoundTripsSlotAndPublication) {
  PublishMsg pub;
  pub.path = parse_path("/a/b/c");
  pub.doc_id = 77;
  pub.path_id = 3;
  pub.doc_bytes = 512;
  wire::BcastSlot slot{2, 9, 14};
  std::vector<std::uint8_t> frame = wire::encode_bcast_data(slot, pub);
  wire::Decoded decoded = wire::decode_frame(frame);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  ASSERT_EQ(decoded.kind, FrameKind::kBcastData);
  EXPECT_EQ(decoded.bcast, slot);
  EXPECT_EQ(std::get<PublishMsg>(decoded.message.payload), pub);
  EXPECT_FALSE(decoded.is_message());
}

TEST(WireBroadcast, TruncationAtEveryBoundaryReportsNeedMore) {
  PublishMsg pub;
  pub.path = parse_path("/a/b");
  pub.doc_id = 5;
  for (const std::vector<std::uint8_t>& frame :
       {wire::encode_air_index(sample_air_index()),
        wire::encode_bcast_data(wire::BcastSlot{1, 2, 3}, pub)}) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      wire::Decoded decoded = wire::decode_frame(frame.data(), len);
      EXPECT_EQ(decoded.status, DecodeStatus::kNeedMore)
          << "prefix of " << len << "/" << frame.size() << " bytes";
      EXPECT_EQ(decoded.consumed, 0u);
    }
  }
}

/// Hand-assembles a kAirIndex frame around `payload` (magic, version,
/// kind, length varint) so corrupt payloads can be aimed at the decoder.
std::vector<std::uint8_t> air_frame(std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> frame = {wire::kMagic0, wire::kMagic1,
                                     wire::kProtocolVersion, 0x14};
  EXPECT_LT(payload.size(), 128u) << "test payloads fit a 1-byte varint";
  frame.push_back(static_cast<std::uint8_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

TEST(WireBroadcast, CorruptAirIndexFieldsAreRejected) {
  // Forward parent reference: node 0 claiming parent_plus_1 = 1 (itself).
  // payload: ch=0 cy=0 buckets=1 data=0 names=1 "a" nodes=1
  //          node{parent+1=1, name=0, nbuckets=0}
  EXPECT_EQ(wire::decode_frame(air_frame({0, 0, 1, 0, 1, 1, 'a', 1,
                                          1, 0, 0}))
                .status,
            DecodeStatus::kBadValue);

  // Name id out of dictionary range (name=7 with 1 name).
  EXPECT_EQ(wire::decode_frame(air_frame({0, 0, 1, 0, 1, 1, 'a', 1,
                                          0, 7, 0}))
                .status,
            DecodeStatus::kBadValue);

  // Bucket ordinal beyond bucket_count: delta list reconstructs to 2
  // with bucket_count = 1.
  EXPECT_EQ(wire::decode_frame(air_frame({0, 0, 1, 0, 1, 1, 'a', 1,
                                          0, 0, 1, 2}))
                .status,
            DecodeStatus::kBadValue);

  // Hostile list count: 0xFFFF names with two bytes in hand is rejected
  // by the count-vs-remaining check before any allocation.
  EXPECT_EQ(wire::decode_frame(air_frame({0, 0, 1, 0, 0xFF, 0xFF, 0x03}))
                .status,
            DecodeStatus::kBadValue);

  // The valid frame the corruptions were derived from still decodes, so
  // the cases above fail for the intended reason.
  EXPECT_EQ(wire::decode_frame(air_frame({0, 0, 1, 0, 1, 1, 'a', 1,
                                          0, 0, 1, 0}))
                .status,
            DecodeStatus::kOk);
}

TEST(WireBroadcast, GarbageAirPayloadNeverCrashes) {
  // Every 1..N-byte garbage payload must come back kBadValue (or kOk for
  // the rare accidentally-valid one) without crashing; deterministic
  // pseudo-random bytes keep the case reproducible.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> payload(1 + trial % 40);
    for (std::uint8_t& b : payload) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(state >> 33);
    }
    wire::Decoded decoded = wire::decode_frame(air_frame(std::move(payload)));
    EXPECT_TRUE(decoded.status == DecodeStatus::kBadValue ||
                decoded.status == DecodeStatus::kOk)
        << to_string(decoded.status) << " at trial " << trial;
  }
}

}  // namespace
}  // namespace xroute

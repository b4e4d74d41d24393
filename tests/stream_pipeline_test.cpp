// End-to-end differential for the streaming publication pipeline: a
// broker fed publications decomposed by the streaming extractor must emit
// a forward stream byte-identical to one fed the tree pipeline's
// decomposition of the same documents — at every thread count — and the
// frame-reuse path (Inbound::frame -> DeliveryEvent::frame) must
// put exactly the bytes on the wire that re-encoding would. The wire
// section mirrors the codec suite's truncation/garbage matrix for the
// borrowed Decoded::raw span.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "router/broker.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/set_builder.hpp"
#include "workload/xml_gen.hpp"
#include "xml/parser.hpp"
#include "xml/paths.hpp"
#include "xml/stream_parser.hpp"

namespace xroute {
namespace {

constexpr IfaceId kNeighbors[] = {IfaceId{1}, IfaceId{2}, IfaceId{3}};
constexpr IfaceId kClients[] = {IfaceId{10}, IfaceId{11}};

/// Serialises every sink event into one byte stream (tag, interface,
/// wire-encoded message) — equal streams mean identical routing, order
/// included.
struct RecordingSink : ForwardSink {
  std::vector<std::uint8_t> bytes;

  void record(std::uint8_t tag, IfaceId iface, const Message& msg) {
    bytes.push_back(tag);
    std::uint32_t id = static_cast<std::uint32_t>(iface.value());
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>(id >> shift));
    }
    std::vector<std::uint8_t> frame = wire::encode_frame(msg);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  void on_event(const DeliveryEvent& event) override {
    if (event.kind == DeliveryEvent::Kind::kSuppressed) {
      bytes.push_back(0x03);
      std::uint32_t id = static_cast<std::uint32_t>(event.iface.value());
      for (int shift = 0; shift < 32; shift += 8) {
        bytes.push_back(static_cast<std::uint8_t>(id >> shift));
      }
      return;
    }
    record(event.kind == DeliveryEvent::Kind::kLocalDelivery ? 0x02 : 0x01,
           event.iface, event.message());
  }
};

/// What a transport puts on the wire: reused frame bytes where offered,
/// re-encoded bytes otherwise.
struct WireSink : ForwardSink {
  std::vector<std::pair<IfaceId, std::vector<std::uint8_t>>> sent;
  std::size_t frames_reused = 0;

  void on_event(const DeliveryEvent& event) override {
    if (event.kind == DeliveryEvent::Kind::kSuppressed) return;
    if (event.frame.empty()) {
      sent.emplace_back(event.iface, wire::encode_frame(event.message()));
    } else {
      ++frames_reused;
      sent.emplace_back(event.iface, std::vector<std::uint8_t>(
                                         event.frame.begin(), event.frame.end()));
    }
  }
};

std::vector<std::string> generate_corpus(std::uint64_t seed,
                                         std::size_t docs) {
  Dtd dtd = corpus_dtd("news");
  Rng rng(seed);
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < docs; ++i) {
    texts.push_back(generate_document(dtd, rng).serialize());
  }
  return texts;
}

std::vector<Message> to_publications(const std::vector<std::string>& texts,
                                     bool streaming) {
  std::vector<Message> out;
  std::uint64_t doc_id = 1;
  for (const std::string& text : texts) {
    std::vector<Path> paths = streaming
                                  ? stream_extract_paths(text)
                                  : extract_paths(parse_xml(text));
    std::uint32_t path_id = 0;
    for (Path& path : paths) {
      PublishMsg msg;
      msg.path = std::move(path);
      msg.doc_id = doc_id;
      msg.path_id = path_id++;
      msg.doc_bytes = text.size();
      msg.paths_in_doc = static_cast<std::uint32_t>(paths.size());
      out.emplace_back(msg);
    }
    ++doc_id;
  }
  return out;
}

Broker make_broker(std::size_t threads, std::uint64_t seed) {
  BrokerOptions config;
  config.use_advertisements = false;
  config.match_threads = threads;
  Broker broker(0, config);
  for (IfaceId n : kNeighbors) broker.add_neighbor(n);
  for (IfaceId c : kClients) broker.add_client(c);

  Dtd dtd = corpus_dtd("news");
  CoverSetOptions opts;
  opts.count = 150;
  opts.target_rate = 0.6;
  opts.seed = seed;
  CoverSet set = build_covering_set(dtd, opts);
  RecordingSink setup;
  std::size_t i = 0;
  for (const Xpe& xpe : set.xpes) {
    IfaceId from = (i % 3 == 0) ? kClients[i % 2] : kNeighbors[i % 3];
    broker.handle(from, Message::subscribe(xpe), setup);
    ++i;
  }
  return broker;
}

std::vector<std::uint8_t> replay(const std::vector<Message>& pubs,
                                 std::size_t threads, std::uint64_t seed) {
  Broker broker = make_broker(threads, seed);
  RecordingSink sink;
  for (const Message& msg : pubs) {
    broker.handle(IfaceId{2}, msg, sink);
  }
  return sink.bytes;
}

TEST(StreamPipeline, ForwardStreamMatchesTreePipelineAtEveryThreadCount) {
  const std::uint64_t seed = 42;
  std::vector<std::string> texts = generate_corpus(seed, 24);
  std::vector<Message> tree_pubs = to_publications(texts, /*streaming=*/false);
  std::vector<Message> stream_pubs =
      to_publications(texts, /*streaming=*/true);
  ASSERT_FALSE(tree_pubs.empty());
  ASSERT_EQ(tree_pubs.size(), stream_pubs.size());

  std::vector<std::uint8_t> reference = replay(tree_pubs, 1, seed);
  ASSERT_FALSE(reference.empty());
  for (std::size_t threads : {1, 2, 4, 8}) {
    EXPECT_EQ(replay(stream_pubs, threads, seed), reference)
        << "streaming pipeline at " << threads << " thread(s)";
    EXPECT_EQ(replay(tree_pubs, threads, seed), reference)
        << "tree pipeline at " << threads << " thread(s)";
  }
}

TEST(StreamPipeline, ReusedFramesAreByteIdenticalToReencoding) {
  const std::uint64_t seed = 7;
  std::vector<std::string> texts = generate_corpus(seed, 12);
  std::vector<Message> pubs = to_publications(texts, /*streaming=*/true);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const Message& msg : pubs) frames.push_back(wire::encode_frame(msg));

  for (std::size_t threads : {1, 4}) {
    // Reference: the frameless path re-encodes every forward.
    Broker reference_broker = make_broker(threads, seed);
    WireSink reference;
    {
      std::vector<Broker::Inbound> batch;
      for (const Message& msg : pubs) {
        batch.push_back(Broker::Inbound{IfaceId{2}, &msg});
      }
      reference_broker.handle_batch(batch, reference);
    }
    EXPECT_EQ(reference.frames_reused, 0u);

    // Frame-carrying inbound: the sink must see the exact same bytes,
    // now reused instead of re-encoded.
    Broker broker = make_broker(threads, seed);
    WireSink sink;
    {
      std::vector<Broker::Inbound> batch;
      for (std::size_t i = 0; i < pubs.size(); ++i) {
        batch.push_back(Broker::Inbound{IfaceId{2}, &pubs[i], frames[i]});
      }
      broker.handle_batch(batch, sink);
    }
    ASSERT_FALSE(sink.sent.empty());
    EXPECT_EQ(sink.frames_reused, sink.sent.size());
    ASSERT_EQ(sink.sent.size(), reference.sent.size());
    for (std::size_t i = 0; i < sink.sent.size(); ++i) {
      EXPECT_EQ(sink.sent[i].first, reference.sent[i].first);
      EXPECT_EQ(sink.sent[i].second, reference.sent[i].second)
          << "frame " << i << " at " << threads << " thread(s)";
    }
  }
}

// ---- Decoded::raw under the codec suite's truncation/garbage matrix ----

Message sample_publication() {
  PublishMsg msg;
  msg.path = parse_path("/news/europe/story");
  msg.doc_id = 99;
  msg.path_id = 1;
  return Message{msg};
}

TEST(StreamPipelineWire, RawSpanCoversExactlyTheFrameBytes) {
  std::vector<std::uint8_t> frame = wire::encode_frame(sample_publication());
  wire::Decoded decoded = wire::decode_frame(frame);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.raw.size(), frame.size());
  EXPECT_EQ(decoded.raw.data(), frame.data());  // borrowed, not copied
  EXPECT_TRUE(std::equal(decoded.raw.begin(), decoded.raw.end(),
                         frame.begin()));
}

TEST(StreamPipelineWire, TruncationAtEveryBoundaryLeavesRawEmpty) {
  std::vector<std::uint8_t> frame = wire::encode_frame(sample_publication());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    wire::Decoded decoded = wire::decode_frame(frame.data(), cut);
    EXPECT_NE(decoded.status, wire::DecodeStatus::kOk) << "cut " << cut;
    EXPECT_TRUE(decoded.raw.empty()) << "cut " << cut;
  }
}

TEST(StreamPipelineWire, GarbageAndCorruptionLeaveRawEmpty) {
  std::vector<std::uint8_t> frame = wire::encode_frame(sample_publication());
  // Corrupt each header byte in turn (magic, version, kind).
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0xFF;
    wire::Decoded decoded = wire::decode_frame(bad);
    EXPECT_NE(decoded.status, wire::DecodeStatus::kOk) << "byte " << i;
    EXPECT_TRUE(decoded.raw.empty()) << "byte " << i;
  }
  const std::uint8_t junk[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  wire::Decoded decoded = wire::decode_frame(junk, sizeof junk);
  EXPECT_NE(decoded.status, wire::DecodeStatus::kOk);
  EXPECT_TRUE(decoded.raw.empty());
}

TEST(StreamPipelineWire, TrailingBytesStillExposeTheFramePrefix) {
  std::vector<std::uint8_t> frame = wire::encode_frame(sample_publication());
  std::vector<std::uint8_t> padded = frame;
  padded.push_back(0x55);
  wire::Decoded decoded = wire::decode_frame(padded);
  EXPECT_EQ(decoded.status, wire::DecodeStatus::kTrailingBytes);
  ASSERT_EQ(decoded.consumed, frame.size());
  ASSERT_EQ(decoded.raw.size(), frame.size());
  EXPECT_TRUE(std::equal(decoded.raw.begin(), decoded.raw.end(),
                         frame.begin()));
}

TEST(StreamPipelineWire, FrameDecoderRawIsValidUntilNextFeed) {
  std::vector<std::uint8_t> a = wire::encode_frame(sample_publication());
  std::vector<std::uint8_t> b = wire::encode_frame(Message::sync_request());
  wire::FrameDecoder decoder;
  decoder.feed(a);
  decoder.feed(b);
  wire::Decoded first = decoder.next();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(std::equal(first.raw.begin(), first.raw.end(), a.begin()));
  // next() only advances the read offset: the first frame's span must
  // still be intact while the second is peeled off.
  wire::Decoded second = decoder.next();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(std::equal(first.raw.begin(), first.raw.end(), a.begin()));
  EXPECT_TRUE(std::equal(second.raw.begin(), second.raw.end(), b.begin()));
  EXPECT_EQ(decoder.next().status, wire::DecodeStatus::kNeedMore);
}

}  // namespace
}  // namespace xroute

// Broadcast dissemination tests (DESIGN.md "Broadcast dissemination"):
// scheduler cycle structure, air-index construction and bucket selection,
// tape persistence, the BroadcastSink mount on the delivery-event stream,
// tuner byte accounting, and the central property the air index must
// uphold — every publication the full matcher owes a client is reachable
// through index-guided skips (no false doze-misses), audited byte-exact
// by the matcher oracle over randomized corpora and query sets.
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/air_index.hpp"
#include "broadcast/channel.hpp"
#include "broadcast/client.hpp"
#include "broadcast/scheduler.hpp"
#include "broadcast/sink.hpp"
#include "match/pub_match.hpp"
#include "obs/metrics.hpp"
#include "router/broker.hpp"
#include "router/message.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xml_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/parser.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

using broadcast::AirIndexBuilder;
using broadcast::BroadcastClient;
using broadcast::BroadcastOptions;
using broadcast::BroadcastScheduler;
using broadcast::BroadcastSink;
using broadcast::ChannelTape;
using broadcast::OracleReport;

Path make_path(std::vector<std::string> elements) {
  Path path;
  path.elements = std::move(elements);
  return path;
}

PublishMsg make_pub(std::vector<std::string> elements, std::uint64_t doc_id,
                    std::uint32_t path_id = 0) {
  PublishMsg pub;
  pub.path = make_path(std::move(elements));
  pub.doc_id = doc_id;
  pub.path_id = path_id;
  pub.doc_bytes = 100;
  return pub;
}

// ---------------------------------------------------------------------------
// Channel assignment

TEST(BroadcastChannel, AssignmentIsStableAndInRange) {
  for (std::uint32_t k : {1u, 2u, 4u, 7u}) {
    for (const char* root : {"a", "news", "item", ""}) {
      std::uint32_t ch = BroadcastScheduler::channel_of(root, k);
      EXPECT_LT(ch, k);
      EXPECT_EQ(ch, BroadcastScheduler::channel_of(root, k));
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler cycle structure

TEST(BroadcastScheduler, CutsCyclesOfIndexThenBuckets) {
  BroadcastScheduler scheduler(BroadcastOptions{1, 3});
  for (int i = 0; i < 7; ++i) {
    scheduler.enqueue(make_pub({"a", "b"}, static_cast<std::uint64_t>(i)));
  }
  scheduler.flush();

  const ChannelTape& tape = scheduler.tape(0);
  // 7 pubs at cycle length 3 -> cycles of 3, 3, 1; each cycle is one
  // index frame plus bucket_count data frames.
  ASSERT_EQ(scheduler.stats(0).cycles, 3u);
  ASSERT_EQ(scheduler.stats(0).publications, 7u);
  std::size_t i = 0;
  std::uint32_t expected_cycle = 0;
  std::uint64_t docs_seen = 0;
  while (i < tape.frame_count()) {
    auto bytes = tape.frame(i);
    wire::Decoded index = wire::decode_frame(bytes.data(), bytes.size());
    ASSERT_EQ(index.status, wire::DecodeStatus::kOk);
    ASSERT_EQ(index.kind, wire::FrameKind::kAirIndex);
    EXPECT_EQ(index.air_index.cycle, expected_cycle);
    for (std::uint32_t b = 0; b < index.air_index.bucket_count; ++b) {
      auto bucket = tape.frame(i + 1 + b);
      wire::Decoded data = wire::decode_frame(bucket.data(), bucket.size());
      ASSERT_EQ(data.status, wire::DecodeStatus::kOk);
      ASSERT_EQ(data.kind, wire::FrameKind::kBcastData);
      EXPECT_EQ(data.bcast.cycle, expected_cycle);
      EXPECT_EQ(data.bcast.bucket, b);
      ++docs_seen;
    }
    i += 1 + index.air_index.bucket_count;
    ++expected_cycle;
  }
  EXPECT_EQ(docs_seen, 7u);
  EXPECT_EQ(expected_cycle, 3u);
}

TEST(BroadcastScheduler, PartitionsByRootAndReportsUtilization) {
  const std::uint32_t kChannels = 4;
  MetricsRegistry metrics;
  BroadcastScheduler scheduler(BroadcastOptions{kChannels, 2}, &metrics);
  std::vector<std::string> roots = {"a", "b", "c", "d", "e"};
  for (std::uint64_t d = 0; d < 20; ++d) {
    scheduler.enqueue(make_pub({roots[d % roots.size()], "x"}, d));
  }
  scheduler.flush();

  std::uint64_t pubs = 0;
  for (std::uint32_t ch = 0; ch < kChannels; ++ch) {
    pubs += scheduler.stats(ch).publications;
    if (scheduler.stats(ch).publications > 0) {
      EXPECT_GT(scheduler.stats(ch).utilization(), 0.0);
      EXPECT_LT(scheduler.stats(ch).utilization(), 1.0);
    }
  }
  EXPECT_EQ(pubs, 20u);
  // Every root lands where channel_of says, and only there.
  for (std::uint32_t ch = 0; ch < kChannels; ++ch) {
    const ChannelTape& tape = scheduler.tape(ch);
    for (std::size_t i = 0; i < tape.frame_count(); ++i) {
      auto bytes = tape.frame(i);
      wire::Decoded decoded = wire::decode_frame(bytes.data(), bytes.size());
      if (decoded.kind != wire::FrameKind::kBcastData) continue;
      const auto& pub = std::get<PublishMsg>(decoded.message.payload);
      EXPECT_EQ(BroadcastScheduler::channel_of(pub.path.elements[0], kChannels),
                ch);
    }
  }
}

// ---------------------------------------------------------------------------
// Air index construction and selection

TEST(AirIndex, BuilderProducesParentPointerTrie) {
  AirIndexBuilder builder(0, 0);
  builder.add(0, make_path({"a", "b", "c"}));
  builder.add(1, make_path({"a", "b"}));
  builder.add(2, make_path({"a", "x"}));
  wire::AirIndex index = builder.finish(3, 300);

  EXPECT_EQ(index.bucket_count, 3u);
  EXPECT_EQ(index.data_bytes, 300u);
  for (std::uint32_t i = 0; i < index.nodes.size(); ++i) {
    const auto& node = index.nodes[i];
    if (node.parent != wire::AirIndex::kNoParent) {
      EXPECT_LT(node.parent, i);  // flat trie invariant: parent precedes child
    }
    ASSERT_LT(node.name, index.names.size());
    for (std::size_t b = 1; b < node.buckets.size(); ++b) {
      EXPECT_LT(node.buckets[b - 1], node.buckets[b]);
    }
  }
  // Shared prefix a/b is one trie path, so "a" and "b" appear once each.
  std::multiset<std::string> names(index.names.begin(), index.names.end());
  EXPECT_EQ(names.count("a"), 1u);
  EXPECT_EQ(names.count("b"), 1u);
}

TEST(AirIndex, SelectBucketsMatchesStructuralSemantics) {
  AirIndexBuilder builder(0, 0);
  builder.add(0, make_path({"a", "b", "c"}));
  builder.add(1, make_path({"a", "b"}));
  builder.add(2, make_path({"d", "b"}));
  wire::AirIndex index = builder.finish(3, 0);

  auto select = [&](const std::string& text) {
    return broadcast::select_buckets(index, {parse_xpe(text)});
  };
  EXPECT_EQ(select("/a/b"), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(select("//b"), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(select("/a/b/c"), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(select("/*/b"), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(select("/z").empty());
}

TEST(AirIndex, StructuralPrefilterStripsPredicatesOnly) {
  Xpe original = parse_xpe("/a/b[@id='7']//c[text()='x']");
  Xpe prefilter = broadcast::structural_prefilter(original);
  ASSERT_EQ(prefilter.size(), original.size());
  for (std::size_t i = 0; i < prefilter.size(); ++i) {
    EXPECT_EQ(prefilter.step(i).axis, original.step(i).axis);
    EXPECT_EQ(prefilter.step(i).name, original.step(i).name);
    EXPECT_TRUE(prefilter.step(i).predicates.empty());
  }
  EXPECT_EQ(prefilter.anchored(), original.anchored());
}

// ---------------------------------------------------------------------------
// Tape persistence

TEST(ChannelTape, SaveLoadRoundtrip) {
  BroadcastScheduler scheduler(BroadcastOptions{1, 2});
  for (std::uint64_t d = 0; d < 5; ++d) {
    scheduler.enqueue(make_pub({"a", "b"}, d));
  }
  scheduler.flush();
  const ChannelTape& tape = scheduler.tape(0);

  std::string file =
      ::testing::TempDir() + "/broadcast_tape_roundtrip.ch0";
  ASSERT_TRUE(tape.save(file));
  auto loaded = ChannelTape::load(file);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->frame_count(), tape.frame_count());
  EXPECT_EQ(loaded->total_bytes(), tape.total_bytes());
  for (std::size_t i = 0; i < tape.frame_count(); ++i) {
    auto a = tape.frame(i);
    auto b = loaded->frame(i);
    ASSERT_EQ(std::vector<std::uint8_t>(a.begin(), a.end()),
              std::vector<std::uint8_t>(b.begin(), b.end()));
  }
  std::remove(file.c_str());
}

TEST(ChannelTape, LoadRejectsCorruptFile) {
  std::string file = ::testing::TempDir() + "/broadcast_tape_corrupt.ch0";
  {
    std::vector<std::uint8_t> garbage = {'X', 'R', 0xFF, 0xFF, 0x00, 0x01};
    FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(garbage.data(), 1, garbage.size(), f);
    std::fclose(f);
  }
  EXPECT_FALSE(ChannelTape::load(file).has_value());
  std::remove(file.c_str());
}

// ---------------------------------------------------------------------------
// BroadcastSink mount on the delivery-event stream

TEST(BroadcastSink, EnqueuesMatchedPublicationsOnce) {
  BroadcastScheduler scheduler(BroadcastOptions{1, 1});
  BroadcastSink sink(&scheduler);

  using Kind = DeliveryEvent::Kind;
  Message pub{make_pub({"a", "b"}, 1)};
  // Forward + local delivery of the same publication: one air bucket.
  sink.on_event(DeliveryEvent{Kind::kForward, IfaceId{1}, &pub});
  sink.on_event(DeliveryEvent{Kind::kLocalDelivery, IfaceId{2}, &pub});
  // Suppressed events carry no message at all and must not enqueue.
  sink.on_event(DeliveryEvent{Kind::kSuppressed, IfaceId{3}});
  // Control traffic never goes on the air.
  const Message subscribe = Message::subscribe(parse_xpe("/a"));
  sink.on_event(DeliveryEvent{Kind::kForward, IfaceId{1}, &subscribe});
  scheduler.flush();

  EXPECT_EQ(scheduler.stats(0).publications, 1u);
}

TEST(BroadcastSink, DrainsFromBrokerMatcher) {
  BrokerOptions config;
  config.use_advertisements = false;
  Broker broker(0, config);
  broker.add_client(IfaceId{1});
  broker.add_client(IfaceId{2});

  BroadcastScheduler scheduler(BroadcastOptions{2, 4});
  BroadcastSink sink(&scheduler);
  broker.handle(IfaceId{1}, Message::subscribe(parse_xpe("/a//b")), sink);
  broker.handle(IfaceId{2}, Message{make_pub({"a", "x", "b"}, 1)}, sink);
  broker.handle(IfaceId{2}, Message{make_pub({"q", "r"}, 2)}, sink);  // no match
  scheduler.flush();

  std::uint64_t pubs = 0;
  for (std::uint32_t ch = 0; ch < scheduler.channels(); ++ch) {
    pubs += scheduler.stats(ch).publications;
  }
  EXPECT_EQ(pubs, 1u);  // only the matched publication went on the air
}

// ---------------------------------------------------------------------------
// Tuner behaviour

TEST(BroadcastClient, ChannelsNeededPinsAnchoredNamedRoots) {
  const std::uint32_t kChannels = 4;
  BroadcastClient anchored({parse_xpe("/news//item")});
  EXPECT_EQ(anchored.channels_needed(kChannels),
            (std::vector<std::uint32_t>{
                BroadcastScheduler::channel_of("news", kChannels)}));

  EXPECT_EQ(BroadcastClient({parse_xpe("//item")}).channels_needed(kChannels)
                .size(),
            kChannels);
  EXPECT_EQ(BroadcastClient({parse_xpe("/*/item")}).channels_needed(kChannels)
                .size(),
            kChannels);
}

TEST(BroadcastClient, EveryStreamByteIsAccounted) {
  BroadcastScheduler scheduler(BroadcastOptions{1, 4});
  for (std::uint64_t d = 0; d < 10; ++d) {
    scheduler.enqueue(make_pub({d % 2 == 0 ? "a" : "b", "x"}, d));
  }
  scheduler.flush();
  const ChannelTape& tape = scheduler.tape(0);

  BroadcastClient tuner({parse_xpe("/a/x")});
  tuner.tune(tape);
  const auto& stats = tuner.stats();
  EXPECT_EQ(stats.tuning_bytes + stats.listened_bytes + stats.dozed_bytes,
            tape.total_bytes());
  EXPECT_GT(stats.dozed_bytes, 0u);  // the /b/x buckets were slept through
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_EQ(stats.access_bytes.size(), 5u);
  OracleReport audit = broadcast::oracle_check(tape, tuner);
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.expected, 5u);
}

TEST(BroadcastClient, MidStreamTuneInSkipsToNextIndex) {
  BroadcastScheduler scheduler(BroadcastOptions{1, 2});
  for (std::uint64_t d = 0; d < 6; ++d) {
    scheduler.enqueue(make_pub({"a", "x"}, d));
  }
  scheduler.flush();
  const ChannelTape& tape = scheduler.tape(0);

  // Tune in mid-cycle (frame 1 is a data bucket): the tuner must listen
  // through the remainder of the broken cycle as tuning overhead, then
  // operate normally from the next index.
  BroadcastClient tuner({parse_xpe("/a/x")});
  tuner.tune(tape, 1);
  EXPECT_EQ(tuner.stats().cycles_tuned, 2u);
  EXPECT_EQ(tuner.stats().delivered, 4u);
  OracleReport audit = broadcast::oracle_check(tape, tuner);
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.expected, 4u);
}

TEST(BroadcastClient, OracleCatchesFabricatedTuner) {
  // A tuner that tunes a cycle but whose subscriptions match nothing must
  // come back empty — and the oracle must agree there was nothing owed.
  BroadcastScheduler scheduler(BroadcastOptions{1, 2});
  scheduler.enqueue(make_pub({"a", "b"}, 1));
  scheduler.flush();
  BroadcastClient tuner({parse_xpe("/zzz")});
  tuner.tune(scheduler.tape(0));
  EXPECT_EQ(tuner.stats().delivered, 0u);
  OracleReport audit = broadcast::oracle_check(scheduler.tape(0), tuner);
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.expected, 0u);
}

// ---------------------------------------------------------------------------
// The air-index property: no false doze-misses, byte-exact deliveries
//
// For randomized corpora and query sets (wildcards, descendants and
// predicates included), every publication the full matcher says a tuned
// client is owed must be reachable through index-guided skips, and every
// delivered frame must equal the air's bytes. This is the property that
// makes dozing safe: the structural prefilter over-selects (predicates
// are evaluated after download), it never under-selects.
TEST(BroadcastProperty, IndexGuidedSkipsNeverLoseAMatch) {
  Dtd dtd = corpus_dtd("news");
  Rng rng(404);
  for (std::uint64_t round = 0; round < 4; ++round) {
    const std::uint32_t channels = 1 + static_cast<std::uint32_t>(round % 3);
    BroadcastScheduler scheduler(
        BroadcastOptions{channels, 4 + static_cast<std::uint32_t>(round) * 3});
    std::vector<PublishMsg> pubs;
    for (std::uint64_t d = 0; d < 12; ++d) {
      std::vector<Path> paths =
          extract_paths(parse_xml(generate_document(dtd, rng).serialize()));
      std::uint32_t path_id = 0;
      for (Path& path : paths) {
        PublishMsg pub;
        pub.path = std::move(path);
        pub.doc_id = round * 100 + d;
        pub.path_id = path_id++;
        pub.doc_bytes = 64;
        pubs.push_back(pub);
        scheduler.enqueue(pubs.back());
      }
    }
    scheduler.flush();

    XpathGenOptions gen;
    gen.count = 24;
    gen.seed = 1000 + round;
    gen.wildcard_prob = 0.2;
    gen.descendant_prob = 0.3;
    gen.predicate_prob = 0.3;  // exercise the prefilter's predicate strip
    std::vector<Xpe> queries = generate_xpaths(dtd, gen);
    ASSERT_FALSE(queries.empty());

    for (const Xpe& query : queries) {
      BroadcastClient tuner({query});
      std::vector<std::uint32_t> dial = tuner.channels_needed(channels);
      std::uint64_t expected_total = 0;
      for (std::uint32_t ch : dial) {
        tuner.tune(scheduler.tape(ch));
        OracleReport audit = broadcast::oracle_check(scheduler.tape(ch), tuner);
        EXPECT_EQ(audit.missed, 0u) << "false doze-miss for " << query.to_string();
        EXPECT_EQ(audit.spurious, 0u) << "spurious delivery for " << query.to_string();
        EXPECT_EQ(audit.byte_mismatches, 0u);
        expected_total += audit.expected;
      }
      // Cross-check the oracle itself against a direct matcher sweep over
      // the pubs that landed on the tuned channels.
      std::set<std::uint32_t> tuned(dial.begin(), dial.end());
      std::uint64_t direct = 0;
      for (const PublishMsg& pub : pubs) {
        std::uint32_t ch = BroadcastScheduler::channel_of(
            pub.path.elements.empty() ? "" : pub.path.elements[0], channels);
        if (tuned.count(ch) != 0 && matches(pub.path, query)) ++direct;
      }
      EXPECT_EQ(expected_total, direct) << query.to_string();
      EXPECT_EQ(tuner.stats().delivered, direct) << query.to_string();
    }
  }
}

}  // namespace
}  // namespace xroute

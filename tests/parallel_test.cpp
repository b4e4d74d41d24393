// Differential tests for the parallel matching engine: a broker at any
// match_threads count must be observationally identical to the sequential
// broker — not just the same delivery sets, but the exact same forward
// sequence, byte for byte (every outgoing message is wire-encoded and the
// streams compared). The workloads are seeded random mixes of control and
// data messages, run through a small fault matrix (duplicated and
// reordered inbound sequences) so determinism holds under the conditions
// the overlay actually produces, and through handle_batch() so the batched
// epoch path is held to the same contract as per-message handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dtd/universe.hpp"
#include "router/broker.hpp"
#include "router/match_scheduler.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/set_builder.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

constexpr IfaceId kNeighbors[] = {IfaceId{1}, IfaceId{2}, IfaceId{3}};
constexpr IfaceId kClients[] = {IfaceId{10}, IfaceId{11}};

/// Serialises every sink event into one byte stream: a tag byte per event
/// kind, the interface id, and the wire encoding of the message. Equal
/// streams mean equal forwards, equal local deliveries *and* equal
/// suppression decisions, in the same order.
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
      // Count-only event: tag + interface, no message bytes to record.
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

using Workload = std::vector<std::pair<IfaceId, Message>>;

/// A seeded random message mix: subscriptions from a DTD covering set
/// (clients and neighbours), publications sampled from the same DTD's
/// path universe (so publications actually hit subscriptions), and
/// unsubscriptions of earlier subscriptions.
Workload make_workload(std::uint64_t seed, std::size_t subscriptions,
                       std::size_t publications) {
  Dtd dtd = corpus_dtd("news");
  CoverSetOptions set_opts;
  set_opts.count = subscriptions;
  set_opts.target_rate = 0.6;
  set_opts.seed = seed;
  CoverSet set = build_covering_set(dtd, set_opts);

  Rng rng(seed * 7919 + 1);
  PathUniverse universe(dtd);
  // Half the publications replay a subscription's own concrete backing
  // path (guaranteed matches, so deliveries and edge-exactness checks are
  // actually exercised), half are uniform universe paths (misses and
  // partial matches).
  std::vector<Path> backing;
  for (const Xpe& xpe : set.xpes) {
    if (!xpe.has_wildcard() && !xpe.has_descendant() && !xpe.relative() &&
        !xpe.has_predicates()) {
      backing.push_back(parse_path(xpe.to_string()));
    }
  }
  std::vector<Path> paths;
  for (std::size_t d = 0; d < publications; ++d) {
    if (!backing.empty() && rng.chance(0.5)) {
      paths.push_back(rng.pick(backing));
    } else {
      paths.push_back(rng.pick(universe.paths()));
    }
  }

  Workload workload;
  std::uint64_t doc_id = 1;
  std::size_t next_sub = 0, next_path = 0;
  std::vector<std::pair<IfaceId, Xpe>> active;
  while (next_sub < set.xpes.size() || next_path < paths.size()) {
    double roll = rng.uniform();
    if (roll < 0.35 && next_sub < set.xpes.size()) {
      IfaceId from = rng.chance(0.5) ? kClients[rng.index(2)]
                                     : kNeighbors[rng.index(3)];
      workload.emplace_back(from, Message::subscribe(set.xpes[next_sub]));
      active.emplace_back(from, set.xpes[next_sub]);
      ++next_sub;
    } else if (roll < 0.40 && !active.empty()) {
      auto [from, xpe] = active[rng.index(active.size())];
      workload.emplace_back(from, Message::unsubscribe(xpe));
    } else if (next_path < paths.size()) {
      PublishMsg msg;
      msg.path = paths[next_path++];
      msg.doc_id = doc_id++;
      workload.emplace_back(kNeighbors[rng.index(3)], Message{msg});
    }
  }
  return workload;
}

/// Fault-matrix perturbations of the inbound sequence: what links actually
/// do to a message stream (duplicate deliveries, reordering windows). Both
/// brokers see the *same* perturbed sequence; the differential says the
/// thread count cannot change how it is handled.
enum class Fault { kClean, kDuplicate, kReorder, kDuplicateReorder };

Workload perturb(const Workload& workload, Fault fault, std::uint64_t seed) {
  Rng rng(seed);
  Workload out;
  for (const auto& item : workload) {
    out.push_back(item);
    if ((fault == Fault::kDuplicate || fault == Fault::kDuplicateReorder) &&
        rng.chance(0.08)) {
      out.push_back(item);  // the link delivered it twice
    }
  }
  if (fault == Fault::kReorder || fault == Fault::kDuplicateReorder) {
    for (std::size_t i = 1; i < out.size(); ++i) {
      if (rng.chance(0.15)) std::swap(out[i - 1], out[i]);
    }
  }
  return out;
}

BrokerOptions config_with_threads(std::size_t threads, bool covering = true) {
  BrokerOptions config;
  config.use_advertisements = false;
  config.use_covering = covering;
  config.match_threads = threads;
  return config;
}

/// Replays the workload message by message and returns the recorded byte
/// stream plus the summed status counters.
struct Replay {
  std::vector<std::uint8_t> bytes;
  Broker::HandleStatus status;
};

Replay replay(const Workload& workload, const BrokerOptions& config) {
  Broker broker(0, config);
  for (IfaceId n : kNeighbors) broker.add_neighbor(n);
  for (IfaceId c : kClients) broker.add_client(c);
  RecordingSink sink;
  Replay result;
  for (const auto& [from, msg] : workload) {
    result.status += broker.handle(from, msg, sink);
  }
  result.bytes = std::move(sink.bytes);
  return result;
}

class ParallelDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Fault>> {};

TEST_P(ParallelDifferential, ForwardStreamIsByteIdenticalAcrossThreadCounts) {
  auto [seed, fault] = GetParam();
  Workload workload =
      perturb(make_workload(seed, /*subscriptions=*/120, /*publications=*/60),
              fault, seed ^ 0xFA17);
  ASSERT_FALSE(workload.empty());

  Replay sequential = replay(workload, config_with_threads(1));
  ASSERT_FALSE(sequential.bytes.empty());
  ASSERT_GT(sequential.status.deliveries, 0u);

  for (std::size_t threads : {2, 4, 8}) {
    Replay parallel = replay(workload, config_with_threads(threads));
    EXPECT_EQ(parallel.bytes, sequential.bytes)
        << "seed " << seed << ", " << threads << " threads";
    EXPECT_EQ(parallel.status.deliveries, sequential.status.deliveries);
    EXPECT_EQ(parallel.status.suppressed_false_positives,
              sequential.status.suppressed_false_positives);
    EXPECT_EQ(parallel.status.merger_false_matches,
              sequential.status.merger_false_matches);
  }
}

TEST_P(ParallelDifferential, FlatTableStreamIsByteIdentical) {
  auto [seed, fault] = GetParam();
  Workload workload =
      perturb(make_workload(seed, /*subscriptions=*/80, /*publications=*/50),
              fault, seed ^ 0xF1A7);
  Replay sequential = replay(workload, config_with_threads(1, false));
  for (std::size_t threads : {2, 4}) {
    Replay parallel = replay(workload, config_with_threads(threads, false));
    EXPECT_EQ(parallel.bytes, sequential.bytes)
        << "seed " << seed << ", " << threads << " threads (flat PRT)";
  }
}

std::string differential_name(
    const ::testing::TestParamInfo<std::tuple<std::uint64_t, Fault>>& info) {
  static const char* kFaultNames[] = {"clean", "dup", "reorder",
                                      "dup_reorder"};
  return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
         kFaultNames[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelDifferential,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(Fault::kClean, Fault::kDuplicate,
                                         Fault::kReorder,
                                         Fault::kDuplicateReorder)),
    differential_name);

// handle_batch must be the concatenation of per-message handling — same
// bytes, same counters — at any thread count and any batch partition.
TEST(ParallelBatch, BatchedHandlingMatchesPerMessage) {
  Workload workload = make_workload(11, /*subscriptions=*/100, /*publications=*/60);
  Replay reference = replay(workload, config_with_threads(1));

  for (std::size_t threads : {1, 4}) {
    for (std::size_t batch_size :
         {std::size_t{3}, std::size_t{16}, workload.size()}) {
      Broker broker(0, config_with_threads(threads));
      for (IfaceId n : kNeighbors) broker.add_neighbor(n);
      for (IfaceId c : kClients) broker.add_client(c);
      RecordingSink sink;
      Broker::HandleStatus status;
      for (std::size_t start = 0; start < workload.size();
           start += batch_size) {
        std::vector<Broker::Inbound> batch;
        for (std::size_t i = start;
             i < std::min(start + batch_size, workload.size()); ++i) {
          batch.push_back(Broker::Inbound{workload[i].first,
                                          &workload[i].second});
        }
        status += broker.handle_batch(batch, sink);
      }
      EXPECT_EQ(sink.bytes, reference.bytes)
          << threads << " threads, batch size " << batch_size;
      EXPECT_EQ(status.deliveries, reference.status.deliveries);
      EXPECT_EQ(status.suppressed_false_positives,
                reference.status.suppressed_false_positives);
    }
  }
}

// The scheduler exists exactly when match_threads > 1, counts its epochs,
// and reproduces the sequential comparison count contract (comparisons
// are folded back into the PRT's counter).
TEST(ParallelScheduler, EpochsRunAndComparisonsFoldBack) {
  Workload workload = make_workload(5, /*subscriptions=*/60, /*publications=*/40);
  Broker sequential(0, config_with_threads(1));
  Broker parallel(0, config_with_threads(4));
  EXPECT_EQ(sequential.scheduler(), nullptr);
  ASSERT_NE(parallel.scheduler(), nullptr);

  for (Broker* b : {&sequential, &parallel}) {
    for (IfaceId n : kNeighbors) b->add_neighbor(n);
    for (IfaceId c : kClients) b->add_client(c);
  }
  RecordingSink seq_sink, par_sink;
  for (const auto& [from, msg] : workload) {
    sequential.handle(from, msg, seq_sink);
    parallel.handle(from, msg, par_sink);
  }
  EXPECT_EQ(par_sink.bytes, seq_sink.bytes);
  EXPECT_GT(parallel.scheduler()->epochs(), 0u);
  // handle() matches a publication as a batch of one: one task per epoch.
  EXPECT_EQ(parallel.scheduler()->total_tasks(),
            parallel.scheduler()->epochs());
  // Identical work, identical match-test counts: the workers may not
  // duplicate or skip index probes.
  EXPECT_EQ(parallel.comparisons(), sequential.comparisons());
}

TEST(ParallelOptions, InvalidCombinationsAreRejected) {
  BrokerOptions config;
  config.match_threads = 0;
  EXPECT_THROW(Broker(0, config), std::invalid_argument);
  config.match_threads = 4;
  EXPECT_NO_THROW(Broker(0, config));

  // Merging without a path universe would never merge.
  config.merging_enabled = true;
  EXPECT_THROW(Broker(0, config), std::invalid_argument);
  config.merging_enabled = false;

  // Stage timings cannot be attributed across workers.
  Broker broker(0, config_with_threads(2));
  broker.add_neighbor(IfaceId{1});
  Broker::StageTimings stages;
  EXPECT_THROW(broker.handle(IfaceId{1},
                             Message::subscribe(parse_xpe("/a")), &stages),
               std::logic_error);
}

TEST(ParallelOptions, ApplyBrokerOptionParsesEveryKnob) {
  BrokerOptions options;
  EXPECT_EQ(options.parse_option("threads", "4"), "");
  EXPECT_EQ(options.parse_option("covering", "off"), "");
  EXPECT_EQ(options.parse_option("advertisements=on"), "");
  EXPECT_EQ(options.match_threads, 4u);
  // Epochs match each publication whole: there is no shard count to set.
  EXPECT_EQ(options.parse_option("shards", "16"),
            "unknown broker option 'shards'");
  EXPECT_FALSE(options.use_covering);
  EXPECT_TRUE(options.use_advertisements);
  EXPECT_NE(options.parse_option("threads", "zero"), "");
  EXPECT_NE(options.parse_option("bogus", "1"), "");
  EXPECT_NE(options.parse_option("no-equals-sign"), "");
}

// A moved-from broker is dead, and the moved-to broker's scheduler must
// match against the *moved* tables (the pool holds the PRT's address).
TEST(ParallelScheduler, MoveRebuildsTheSchedulerAgainstTheNewTables) {
  BrokerOptions config = config_with_threads(4);
  Broker source(0, config);
  source.add_neighbor(IfaceId{1});
  source.add_neighbor(IfaceId{2});
  source.handle(IfaceId{2}, Message::subscribe(parse_xpe("/a/b")));

  Broker moved(std::move(source));
  ASSERT_NE(moved.scheduler(), nullptr);
  PublishMsg msg;
  msg.path = parse_path("/a/b");
  msg.doc_id = 99;
  auto result = moved.handle(IfaceId{1}, Message{msg});
  ASSERT_EQ(result.forwards.size(), 1u);
  EXPECT_EQ(result.forwards[0].interface, IfaceId{2});
}

}  // namespace
}  // namespace xroute

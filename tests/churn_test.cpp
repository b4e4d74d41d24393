// Churn differential suite: the barrier-free control plane (epochs pin
// the compiled PRT index, the edge state is copy-on-write) must leave the
// broker observationally identical to the sequential oracle while
// subscribe/unsubscribe/advertise churn interleaves with publications —
// the exact property the quiesce barrier used to buy. Every workload
// here is a seeded random interleaving of control and data messages
// replayed per-message and through handle_batch() (whose batched epochs
// now *pipeline* control ops into the match window), and the serialised
// sink streams must be byte-identical at every thread count. On mismatch the failure is
// shrunk to the shortest failing workload prefix so the diverging
// message is named directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
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

/// Serialises every sink event into one byte stream (tag, interface,
/// wire frame) — equal streams mean equal forwards, deliveries and
/// suppressions in the same order.
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

using Workload = std::vector<std::pair<IfaceId, Message>>;

struct ChurnOptions {
  std::size_t subscriptions = 120;
  std::size_t publications = 80;
  bool advertisements = false;
};

/// A seeded interleaving heavy on control-plane churn: subscriptions
/// from a DTD covering set, early unsubscriptions of still-active ones,
/// advertisements built from the subscriptions' own concrete steps (so
/// they actually overlap), and publications half-drawn from subscription
/// backing paths.
Workload make_churn_workload(std::uint64_t seed, const ChurnOptions& opts) {
  Dtd dtd = corpus_dtd("news");
  CoverSetOptions set_opts;
  set_opts.count = opts.subscriptions;
  set_opts.target_rate = 0.6;
  set_opts.seed = seed;
  CoverSet set = build_covering_set(dtd, set_opts);

  Rng rng(seed * 6007 + 13);
  PathUniverse universe(dtd);
  std::vector<Path> backing;
  std::vector<std::vector<std::string>> alphabets;
  for (const Xpe& xpe : set.xpes) {
    if (!xpe.has_wildcard() && !xpe.has_descendant() && !xpe.relative() &&
        !xpe.has_predicates()) {
      backing.push_back(parse_path(xpe.to_string()));
    }
    std::set<std::string> names;
    for (const Step& step : xpe.steps()) {
      if (!step.is_wildcard()) names.insert(step.name);
    }
    if (!names.empty()) {
      alphabets.emplace_back(names.begin(), names.end());
    }
  }
  std::vector<Path> paths;
  for (std::size_t d = 0; d < opts.publications; ++d) {
    if (!backing.empty() && rng.chance(0.5)) {
      paths.push_back(rng.pick(backing));
    } else {
      paths.push_back(rng.pick(universe.paths()));
    }
  }

  Workload workload;
  std::uint64_t doc_id = 1;
  std::size_t next_sub = 0, next_path = 0, next_adv = 0;
  std::vector<std::pair<IfaceId, Xpe>> active;
  while (next_sub < set.xpes.size() || next_path < paths.size()) {
    double roll = rng.uniform();
    if (roll < 0.30 && next_sub < set.xpes.size()) {
      IfaceId from = rng.chance(0.5) ? kClients[rng.index(2)]
                                     : kNeighbors[rng.index(3)];
      workload.emplace_back(from, Message::subscribe(set.xpes[next_sub]));
      active.emplace_back(from, set.xpes[next_sub]);
      ++next_sub;
    } else if (roll < 0.42 && !active.empty()) {
      std::size_t pick = rng.index(active.size());
      auto [from, xpe] = active[pick];
      workload.emplace_back(from, Message::unsubscribe(xpe));
      active.erase(active.begin() + pick);
    } else if (roll < 0.50 && opts.advertisements &&
               next_adv < alphabets.size()) {
      workload.emplace_back(
          kNeighbors[rng.index(3)],
          Message::advertise(
              Advertisement::from_elements(alphabets[next_adv]),
              static_cast<int>(next_adv)));
      ++next_adv;
    } else if (next_path < paths.size()) {
      PublishMsg msg;
      msg.path = paths[next_path++];
      msg.doc_id = doc_id++;
      workload.emplace_back(kNeighbors[rng.index(3)], Message{msg});
    }
  }
  return workload;
}

BrokerOptions make_config(std::size_t threads, bool covering,
                          bool advertisements) {
  BrokerOptions config;
  config.use_advertisements = advertisements;
  config.use_covering = covering;
  config.match_threads = threads;
  return config;
}

Broker make_broker(const BrokerOptions& config) {
  Broker broker(0, config);
  for (IfaceId n : kNeighbors) broker.add_neighbor(n);
  for (IfaceId c : kClients) broker.add_client(c);
  return broker;
}

struct Replay {
  std::vector<std::uint8_t> bytes;
  Broker::HandleStatus status;
};

/// Per-message replay of the first `count` workload items.
Replay replay_prefix(const Workload& workload, const BrokerOptions& config,
                     std::size_t count) {
  Broker broker = make_broker(config);
  RecordingSink sink;
  Replay result;
  for (std::size_t i = 0; i < count && i < workload.size(); ++i) {
    result.status += broker.handle(workload[i].first, workload[i].second,
                                   sink);
  }
  result.bytes = std::move(sink.bytes);
  return result;
}

Replay replay(const Workload& workload, const BrokerOptions& config) {
  return replay_prefix(workload, config, workload.size());
}

/// Replay through handle_batch() in fixed-size windows: runs of
/// consecutive publications become pipelined epochs with the following
/// control messages handled mid-flight.
Replay replay_batched(const Workload& workload, const BrokerOptions& config,
                      std::size_t batch_size) {
  Broker broker = make_broker(config);
  RecordingSink sink;
  Replay result;
  for (std::size_t start = 0; start < workload.size(); start += batch_size) {
    std::vector<Broker::Inbound> batch;
    for (std::size_t i = start;
         i < std::min(start + batch_size, workload.size()); ++i) {
      batch.push_back(Broker::Inbound{workload[i].first,
                                      &workload[i].second});
    }
    result.status += broker.handle_batch(batch, sink);
  }
  result.bytes = std::move(sink.bytes);
  return result;
}

/// Shrinker: per-message streams are append-only, so the first diverging
/// message index is the smallest prefix length whose replays differ —
/// found by binary search, then reported so the failure names one
/// concrete message instead of a 200-op workload.
std::string shrink_divergence(const Workload& workload,
                              const BrokerOptions& oracle,
                              const BrokerOptions& subject) {
  std::size_t lo = 1, hi = workload.size();
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (replay_prefix(workload, oracle, mid).bytes ==
        replay_prefix(workload, subject, mid).bytes) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo > workload.size()) return "streams diverge only in counters";
  const auto& [from, msg] = workload[lo - 1];
  return "first divergence at op " + std::to_string(lo - 1) + "/" +
         std::to_string(workload.size()) + " (from iface " +
         std::to_string(from.value()) + ", msg type " +
         std::to_string(static_cast<int>(msg.type())) + ")";
}

struct ChurnCase {
  std::uint64_t seed;
  bool covering;
  bool advertisements;
};

class ChurnDifferential : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(ChurnDifferential, PerMessageStreamIsByteIdenticalAcrossThreads) {
  const ChurnCase& c = GetParam();
  ChurnOptions opts;
  opts.advertisements = c.advertisements;
  Workload workload = make_churn_workload(c.seed, opts);
  ASSERT_FALSE(workload.empty());

  BrokerOptions oracle = make_config(1, c.covering, c.advertisements);
  Replay sequential = replay(workload, oracle);
  ASSERT_FALSE(sequential.bytes.empty());
  ASSERT_GT(sequential.status.deliveries, 0u);

  for (std::size_t threads : {2, 4, 8}) {
    BrokerOptions config = make_config(threads, c.covering,
                                       c.advertisements);
    Replay parallel = replay(workload, config);
    EXPECT_EQ(parallel.bytes, sequential.bytes)
        << "seed " << c.seed << ", " << threads << " threads: "
        << shrink_divergence(workload, oracle, config);
    EXPECT_EQ(parallel.status.deliveries, sequential.status.deliveries);
    EXPECT_EQ(parallel.status.suppressed_false_positives,
              sequential.status.suppressed_false_positives);
    EXPECT_EQ(parallel.status.merger_false_matches,
              sequential.status.merger_false_matches);
  }
}

TEST_P(ChurnDifferential, PipelinedBatchesMatchThePerMessageOracle) {
  const ChurnCase& c = GetParam();
  ChurnOptions opts;
  opts.advertisements = c.advertisements;
  Workload workload = make_churn_workload(c.seed, opts);
  Replay sequential =
      replay(workload, make_config(1, c.covering, c.advertisements));

  for (std::size_t threads : {1, 2, 4, 8}) {
    BrokerOptions config = make_config(threads, c.covering,
                                       c.advertisements);
    for (std::size_t batch_size :
         {std::size_t{2}, std::size_t{7}, std::size_t{32},
          workload.size()}) {
      Replay batched = replay_batched(workload, config, batch_size);
      EXPECT_EQ(batched.bytes, sequential.bytes)
          << "seed " << c.seed << ", " << threads << " threads, batch "
          << batch_size;
      EXPECT_EQ(batched.status.deliveries, sequential.status.deliveries);
      EXPECT_EQ(batched.status.suppressed_false_positives,
                sequential.status.suppressed_false_positives);
      EXPECT_EQ(batched.status.merger_false_matches,
                sequential.status.merger_false_matches);
    }
  }
}

std::string case_name(const ChurnCase& c) {
  return "seed" + std::to_string(c.seed) +
         (c.covering ? "_covering" : "_flat") +
         (c.advertisements ? "_adv" : "");
}

std::string churn_name(const ::testing::TestParamInfo<ChurnCase>& info) {
  return case_name(info.param);
}

/// Without this gtest prints a ChurnCase as its raw bytes, padding
/// included, so the listed test names (and the CTest names discovered
/// from them) would change from one build to the next.
void PrintTo(const ChurnCase& c, std::ostream* os) { *os << case_name(c); }

INSTANTIATE_TEST_SUITE_P(
    Matrix, ChurnDifferential,
    ::testing::Values(ChurnCase{1, true, false}, ChurnCase{2, true, false},
                      ChurnCase{3, true, true}, ChurnCase{4, false, false},
                      ChurnCase{5, false, true}),
    churn_name);

// The epochs' workers may not duplicate or skip match probes: under
// churn the folded-back comparison counts stay in lockstep with the
// sequential tables'.
TEST(ChurnScheduler, ComparisonCountsStayInLockstepUnderChurn) {
  ChurnOptions opts;
  Workload workload = make_churn_workload(7, opts);
  Broker sequential = make_broker(make_config(1, true, false));
  Broker parallel = make_broker(make_config(4, true, false));
  RecordingSink seq_sink, par_sink;
  for (const auto& [from, msg] : workload) {
    sequential.handle(from, msg, seq_sink);
    parallel.handle(from, msg, par_sink);
  }
  EXPECT_EQ(par_sink.bytes, seq_sink.bytes);
  EXPECT_EQ(parallel.comparisons(), sequential.comparisons());
  // Churn means the index actually recompiled.
  EXPECT_GT(parallel.prt().index_stats().builds, 1u);
}

// Control ops must complete while a batch epoch is in flight: a batch
// whose publication run is followed by control messages processes those
// messages inside the epoch. Compilation coalesces — no epoch can pin
// mid-window, so the window's ops ride a single index build when the
// next epoch pins — and that next epoch must already match against the
// mid-epoch subscriptions.
TEST(ChurnScheduler, ControlOpsCompleteMidEpoch) {
  Broker broker = make_broker(make_config(4, true, false));
  RecordingSink sink;
  const Xpe sub = parse_xpe("/news/article");
  broker.handle(kClients[0], Message::subscribe(sub), sink);

  PublishMsg pub;
  pub.path = parse_path("/news/article");
  pub.doc_id = 100;
  Message pub_msg{pub};
  Message sub2 = Message::subscribe(parse_xpe("/news/sports"));
  Message sub3 = Message::subscribe(parse_xpe("/news/weather"));
  std::vector<Broker::Inbound> batch{
      Broker::Inbound{kNeighbors[0], &pub_msg},
      Broker::Inbound{kClients[1], &sub2},
      Broker::Inbound{kClients[1], &sub3},
  };
  Broker::HandleStatus status = broker.handle_batch(batch, sink);
  EXPECT_EQ(status.deliveries, 1u);
  const std::uint64_t builds_before = broker.prt().index_stats().builds;

  // The next batch pins the coalesced index: exactly one build, and the
  // subscription that arrived mid-epoch is live for matching.
  PublishMsg pub2;
  pub2.path = parse_path("/news/sports");
  pub2.doc_id = 101;
  Message pub2_msg{pub2};
  std::vector<Broker::Inbound> batch2{
      Broker::Inbound{kNeighbors[0], &pub2_msg},
  };
  status = broker.handle_batch(batch2, sink);
  EXPECT_EQ(status.deliveries, 1u);
  EXPECT_EQ(broker.prt().index_stats().builds, builds_before + 1);
}

}  // namespace
}  // namespace xroute

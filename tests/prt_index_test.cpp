// The PRT's compiled match index: golden match totals, the lazy-compile
// contract and the refresh's structural sharing.
//
// The golden tests pin what the matcher observably does over a fixed
// publication set — comparison totals (Prt::comparisons() over the match
// passes), the hop set of every path and merger false matches — for
// covering, flat, merged (imperfect) and predicate tables.
// Each table is matched, churned, and matched again, so incremental
// recompiles of dirty buckets are covered, not just a first full compile.
// The figures were recorded from the separate sequential and parallel
// matchers this index replaced; they must never move.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dtd/universe.hpp"
#include "router/broker.hpp"
#include "router/routing_tables.hpp"
#include "util/rng.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xml_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

struct MatchTotals {
  /// Prt::comparisons() accumulated over the match passes. The covering
  /// tests of the inserts are left out: root-signature pruning skips some
  /// of them depending on symbol ids, i.e. on what else the process
  /// interned first.
  std::size_t comparisons = 0;
  std::size_t matched_paths = 0;
  std::size_t hop_total = 0;
  /// FNV-1a over (path ordinal, sorted hops) of every matched path.
  std::uint64_t hop_digest = 14695981039346656037ull;
  std::size_t merger_false_matches = 0;

  void add(std::size_t ordinal, const IfaceSet& hops) {
    if (hops.empty()) return;
    ++matched_paths;
    hop_total += hops.size();
    fold(ordinal);
    for (IfaceId hop : hops) fold(static_cast<std::uint64_t>(hop.value()));
  }
  void fold(std::uint64_t v) {
    hop_digest ^= v;
    hop_digest *= 1099511628211ull;
  }
  friend bool operator==(const MatchTotals&, const MatchTotals&) = default;
  friend std::ostream& operator<<(std::ostream& os, const MatchTotals& t) {
    return os << "{" << t.comparisons << ", " << t.matched_paths << ", "
              << t.hop_total << ", " << t.hop_digest << "ull, "
              << t.merger_false_matches << "}";
  }
};

std::vector<Path> publication_paths(const Dtd& dtd, std::uint64_t seed,
                                    int docs) {
  Rng rng(seed);
  std::vector<Path> out;
  for (int d = 0; d < docs; ++d) {
    XmlDocument doc = generate_document(dtd, rng);
    for (Path& p : extract_paths(doc)) out.push_back(std::move(p));
  }
  return out;
}

std::vector<Xpe> workload_xpes(const Dtd& dtd, std::uint64_t seed,
                               double predicate_prob) {
  XpathGenOptions gen;
  gen.count = 400;
  gen.wildcard_prob = 0.2;
  gen.descendant_prob = 0.2;
  gen.relative_prob = 0.2;
  gen.predicate_prob = predicate_prob;
  gen.seed = seed;
  return generate_xpaths(dtd, gen);
}

IfaceId hop_of(std::size_t i) { return IfaceId{static_cast<int>(i % 8) + 1}; }

/// Loads `xpes`, matches every path, churns (every third subscription
/// removed, every fifth gains a second hop), and matches again.
MatchTotals run_table(Prt& prt, const std::vector<Xpe>& xpes,
                      const std::vector<Path>& paths) {
  MatchTotals totals;
  auto match_all = [&](std::size_t base) {
    const std::size_t before = prt.comparisons();
    for (std::size_t k = 0; k < paths.size(); ++k) {
      totals.add(base + k, prt.match_hops(paths[k]));
    }
    totals.comparisons += prt.comparisons() - before;
  };
  for (std::size_t i = 0; i < xpes.size(); ++i) prt.insert(xpes[i], hop_of(i));
  match_all(0);
  for (std::size_t i = 0; i < xpes.size(); ++i) {
    if (i % 3 == 0) prt.remove(xpes[i], hop_of(i));
    if (i % 5 == 0) prt.insert(xpes[i], hop_of(i + 3));
  }
  match_all(paths.size());
  return totals;
}

TEST(PrtIndex, GoldenCoveringTable) {
  Dtd dtd = news_dtd();
  Prt prt(/*covering=*/true);
  MatchTotals got = run_table(prt, workload_xpes(dtd, 1, 0.0),
                              publication_paths(dtd, 11, 6));
  EXPECT_EQ(got, (MatchTotals{23398, 160, 1250,
                              339016866363174807ull, 0}))
      << got;
}

TEST(PrtIndex, GoldenFlatTable) {
  Dtd dtd = news_dtd();
  Prt prt(/*covering=*/false);
  MatchTotals got = run_table(prt, workload_xpes(dtd, 2, 0.0),
                              publication_paths(dtd, 12, 6));
  EXPECT_EQ(got, (MatchTotals{4826, 188, 1473,
                              9535115011568522821ull, 0}))
      << got;
}

TEST(PrtIndex, GoldenPredicateTable) {
  Dtd dtd = news_dtd();
  Prt prt(/*covering=*/true);
  MatchTotals got = run_table(prt, workload_xpes(dtd, 3, 0.5),
                              publication_paths(dtd, 13, 6));
  EXPECT_EQ(got, (MatchTotals{27412, 172, 1360,
                              8109740993548329101ull, 0}))
      << got;
}

// Imperfect merging through a broker: subscriptions arrive from eight
// neighbours, merge passes run every 50 new subscriptions, and a local
// publisher's paths are forwarded to the matched neighbours. Merger
// matches no original backs are the paper's in-network false positives.
// The parallel engine must reproduce the sequential figures exactly.
TEST(PrtIndex, GoldenMergedTable) {
  Dtd dtd = news_dtd();
  PathUniverse universe(dtd);
  const std::vector<Xpe> xpes = workload_xpes(dtd, 4, 0.0);
  const std::vector<Path> paths = publication_paths(dtd, 14, 6);
  for (std::size_t threads : {1, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " match thread(s)");
    BrokerOptions config;
    config.use_advertisements = false;
    config.merging_enabled = true;
    config.merge_universe = &universe;
    config.merge_interval = 50;
    config.merge_options.max_imperfect_degree = 0.3;
    config.merge_options.rule_general = true;
    config.match_threads = threads;
    Broker broker(0, config);
    for (std::size_t i = 0; i < 8; ++i) broker.add_neighbor(hop_of(i));
    const IfaceId publisher{100};
    broker.add_client(publisher);

    MatchTotals totals;
    std::uint64_t doc_id = 1;
    auto publish_all = [&](std::size_t base) {
      const std::size_t before = broker.prt().comparisons();
      for (std::size_t k = 0; k < paths.size(); ++k) {
        PublishMsg pub;
        pub.path = paths[k];
        pub.doc_id = doc_id++;
        Broker::HandleResult r = broker.handle(publisher, Message{pub});
        IfaceSet hops;
        for (const Broker::Forward& f : r.forwards) hops.insert(f.interface);
        totals.add(base + k, hops);
        totals.merger_false_matches += r.merger_false_matches;
      }
      totals.comparisons += broker.prt().comparisons() - before;
    };
    for (std::size_t i = 0; i < xpes.size(); ++i) {
      broker.handle(hop_of(i), Message::subscribe(xpes[i]));
    }
    publish_all(0);
    for (std::size_t i = 0; i < xpes.size(); i += 3) {
      broker.handle(hop_of(i), Message::unsubscribe(xpes[i]));
    }
    publish_all(paths.size());
    ASSERT_GT(broker.merges_applied(), 0u);
    EXPECT_EQ(totals, (MatchTotals{26951, 170, 1313,
                                   8998570865359734323ull, 14}))
        << totals;
  }
}

// -- Lazy compile and structural sharing ------------------------------------

// K control ops with no match in between compile nothing; the next match
// recompiles each bucket they dirtied exactly once, however often it was
// touched, and buckets whose ops netted out keep their previous content.
TEST(PrtIndex, ControlOpsCompileNothingUntilTheNextMatch) {
  for (bool covering : {true, false}) {
    SCOPED_TRACE(covering ? "covering" : "flat");
    Prt prt(covering);
    prt.insert(parse_xpe("/news/article"), IfaceId{1});
    prt.insert(parse_xpe("/sports/score"), IfaceId{1});
    prt.insert(parse_xpe("/weather/report"), IfaceId{1});
    prt.match_hops(parse_path("/news/article"));
    const Prt::IndexStats before = prt.index_stats();

    // Six ops over three buckets (keyed by the deepest concrete step):
    // "article" changes, "score" and "report" net out.
    prt.insert(parse_xpe("/news/article"), IfaceId{4});
    prt.insert(parse_xpe("//article"), IfaceId{2});
    prt.insert(parse_xpe("/sports/score"), IfaceId{2});
    prt.remove(parse_xpe("/sports/score"), IfaceId{2});
    prt.insert(parse_xpe("/x/report"), IfaceId{3});
    prt.remove(parse_xpe("/x/report"), IfaceId{3});
    EXPECT_EQ(prt.index_stats().builds, before.builds);
    EXPECT_EQ(prt.index_stats().buckets_rebuilt, before.buckets_rebuilt);

    EXPECT_EQ(prt.match_hops(parse_path("/news/article")), ifaces({1, 2, 4}));
    EXPECT_EQ(prt.index_stats().builds, before.builds + 1);
    EXPECT_EQ(prt.index_stats().buckets_rebuilt, before.buckets_rebuilt + 3);
    EXPECT_EQ(prt.index_stats().buckets_unchanged,
              before.buckets_unchanged + 2);

    // A clean table matches without compiling.
    EXPECT_EQ(prt.match_hops(parse_path("/sports/score")), ifaces({1}));
    EXPECT_EQ(prt.index_stats().builds, before.builds + 1);
  }
}

// Removing one of a subscription's hops leaves the subscription (and the
// tree shape) in place, but its compiled bucket copied the hop list: the
// next match must recompile it and stop routing to the removed hop.
TEST(PrtIndex, HopOnlyRemoveIsVisibleToTheNextMatch) {
  for (bool covering : {true, false}) {
    SCOPED_TRACE(covering ? "covering" : "flat");
    Prt prt(covering);
    prt.insert(parse_xpe("/news/article"), IfaceId{1});
    prt.insert(parse_xpe("/news/article"), IfaceId{2});
    prt.insert(parse_xpe("/sports/score"), IfaceId{1});
    EXPECT_EQ(prt.match_hops(parse_path("/news/article")), ifaces({1, 2}));
    const std::uint64_t rebuilt = prt.index_stats().buckets_rebuilt;

    EXPECT_TRUE(prt.remove(parse_xpe("/news/article"), IfaceId{2}));
    EXPECT_EQ(prt.size(), 2u);
    EXPECT_EQ(prt.match_hops(parse_path("/news/article")), ifaces({1}));
    EXPECT_EQ(prt.index_stats().buckets_rebuilt, rebuilt + 1);
  }
}

// A sequential broker compiles at its first publication after control
// ops, never at the ops themselves, and publishes nothing: it matches the
// index inline.
TEST(PrtIndex, SequentialBrokerCompilesLazilyAndPublishesNothing) {
  BrokerOptions config;
  config.use_advertisements = false;
  Broker broker(0, config);
  broker.add_neighbor(IfaceId{1});
  broker.add_client(IfaceId{10});
  for (const char* text : {"/news/article", "/news/sports", "/weather/report"}) {
    broker.handle(IfaceId{10}, Message::subscribe(parse_xpe(text)));
  }
  EXPECT_EQ(broker.prt().index_stats().builds, 0u);

  PublishMsg pub;
  pub.path = parse_path("/news/article");
  pub.doc_id = 1;
  EXPECT_EQ(broker.handle(IfaceId{1}, Message{pub}).deliveries, 1u);
  EXPECT_EQ(broker.prt().index_stats().builds, 1u);
}

// A threaded broker compiles lazily too: N control ops compile nothing,
// and the epoch that the next publication runs compiles exactly once.
TEST(PrtIndex, ThreadedBrokerCompilesLazily) {
  BrokerOptions config;
  config.use_advertisements = false;
  config.match_threads = 4;
  Broker broker(0, config);
  broker.add_neighbor(IfaceId{1});
  broker.add_client(IfaceId{10});
  PublishMsg pub;
  pub.path = parse_path("/news/article");
  pub.doc_id = 1;
  broker.handle(IfaceId{1}, Message{pub});
  const std::uint64_t builds = broker.prt().index_stats().builds;

  constexpr int kOps = 24;
  for (int i = 0; i < kOps; ++i) {
    const Xpe xpe = parse_xpe("/news/item" + std::to_string(i));
    broker.handle(IfaceId{i % 2 == 0 ? 10 : 1}, Message::subscribe(xpe));
  }
  broker.handle(IfaceId{10}, Message::subscribe(parse_xpe("/news/article")));
  EXPECT_EQ(broker.prt().index_stats().builds, builds);

  pub.doc_id = 2;
  EXPECT_EQ(broker.handle(IfaceId{1}, Message{pub}).deliveries, 1u);
  EXPECT_EQ(broker.prt().index_stats().builds, builds + 1);
}

// A refresh recompiles only the dirty buckets and shares the others with
// the previous index by reference; with nothing dirty it returns the
// previous index itself.
TEST(PrtIndex, RecompilesOnlyDirtyBuckets) {
  Prt prt(/*covering=*/true);
  // Distinct roots => distinct discriminating-symbol buckets.
  prt.insert(parse_xpe("/news/article"), IfaceId{1});
  prt.insert(parse_xpe("/sports/score"), IfaceId{1});
  prt.insert(parse_xpe("/weather/report"), IfaceId{1});
  std::shared_ptr<const PrtIndex> prev = prt.index();
  const std::uint64_t rebuilt_initial = prt.index_stats().buckets_rebuilt;
  ASSERT_GE(prev->bucket_count(), 3u);

  // Touch one bucket; the other buckets must be shared, not recompiled.
  prt.insert(parse_xpe("/news/article/body"), IfaceId{2});
  std::shared_ptr<const PrtIndex> next = prt.index();
  EXPECT_NE(next, prev);
  EXPECT_EQ(prt.index_stats().buckets_rebuilt - rebuilt_initial, 1u);
  EXPECT_GE(prt.index_stats().buckets_shared, 2u);
  EXPECT_EQ(next->bucket_count(), prev->bucket_count());

  // Nothing dirty: no build, the same index.
  const Prt::IndexStats clean = prt.index_stats();
  EXPECT_EQ(prt.index(), next);
  EXPECT_EQ(prt.index_stats().builds, clean.builds);
  EXPECT_EQ(prt.index_stats().buckets_rebuilt, clean.buckets_rebuilt);
}

// Control ops that net out before the next refresh — here including a
// capture: the newcomer covers /news/article, moves it below itself, and
// the removal splices it back into its original position — recompile
// every dirty bucket back to its previous content. The refresh must keep
// the previous index itself, so matchers keep their warm bucket map and a
// parallel broker has nothing to publish.
TEST(PrtIndex, NettedOutChurnKeepsThePreviousIndex) {
  Prt prt(/*covering=*/true);
  prt.insert(parse_xpe("/news/article"), IfaceId{1});
  prt.insert(parse_xpe("/sports/score"), IfaceId{1});
  std::shared_ptr<const PrtIndex> prev = prt.index();

  prt.insert(parse_xpe("/news"), IfaceId{2});
  prt.remove(parse_xpe("/news"), IfaceId{2});
  const Prt::IndexStats before = prt.index_stats();
  EXPECT_EQ(prt.index(), prev);
  EXPECT_EQ(prt.index_stats().builds, before.builds + 1);
  EXPECT_EQ(prt.index_stats().builds_elided, before.builds_elided + 1);

  // A change that does not net out compiles a fresh index.
  prt.insert(parse_xpe("/weather/report"), IfaceId{2});
  EXPECT_NE(prt.index(), prev);
  EXPECT_EQ(prt.index_stats().builds_elided, before.builds_elided + 1);
}

}  // namespace
}  // namespace xroute

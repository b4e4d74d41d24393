// Unit tests for the subscription tree (paper §4.1): insertion cases,
// super pointers, pruned matching, removal, and structural invariants.
// Matching runs through the PRT's compiled index where the test is about
// matching, and through the reference scan (tests/oracles.hpp) where it
// only reads the tree's routing content.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "dtd/universe.hpp"
#include "index/merging.hpp"
#include "index/subscription_tree.hpp"
#include "oracles.hpp"
#include "router/routing_tables.hpp"
#include "util/rng.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xml_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

Xpe X(const char* s) { return parse_xpe(s); }

using testing::match_hops_scan;

TEST(SubscriptionTreeTest, InsertChainBuildsDepth) {
  SubscriptionTree tree;
  auto r1 = tree.insert(X("/a"), IfaceId{1});
  EXPECT_TRUE(r1.was_new);
  EXPECT_FALSE(r1.covered_by_existing);

  auto r2 = tree.insert(X("/a/b"), IfaceId{1});
  EXPECT_TRUE(r2.covered_by_existing);
  EXPECT_EQ(r2.node->parent->xpe, X("/a"));

  auto r3 = tree.insert(X("/a/b/c"), IfaceId{1});
  EXPECT_TRUE(r3.covered_by_existing);
  EXPECT_EQ(r3.node->parent->xpe, X("/a/b"));
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.validate(), "");
}

TEST(SubscriptionTreeTest, CaseTwoInsertAboveCovered) {
  SubscriptionTree tree;
  tree.insert(X("/a/b/c"), IfaceId{1});
  tree.insert(X("/a/b/d"), IfaceId{1});
  // The newcomer covers both existing top-level subscriptions.
  auto r = tree.insert(X("/a/b"), IfaceId{1});
  EXPECT_FALSE(r.covered_by_existing);
  ASSERT_EQ(r.now_covered.size(), 2u);
  EXPECT_EQ(r.node->children.size(), 2u);
  EXPECT_EQ(tree.root()->children.size(), 1u);
  EXPECT_EQ(tree.validate(), "");
}

TEST(SubscriptionTreeTest, DuplicateInsertAddsHop) {
  SubscriptionTree tree;
  auto r1 = tree.insert(X("/a"), IfaceId{1});
  auto r2 = tree.insert(X("/a"), IfaceId{2});
  EXPECT_TRUE(r1.was_new);
  EXPECT_FALSE(r2.was_new);
  EXPECT_EQ(r1.node, r2.node);
  EXPECT_EQ(r2.node->hops, ifaces({1, 2}));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(SubscriptionTreeTest, SuperPointerAcrossSubtrees) {
  SubscriptionTree tree;
  tree.insert(X("/a/b"), IfaceId{1});   // goes under root
  tree.insert(X("/*/b"), IfaceId{1});   // incomparable order: also under root? no —
                               // /*/b covers /a/b, so Case 2 nests them.
  // Build a genuine DAG: /a covers /a/b but not /*/b; /*/b covers /a/b.
  tree.insert(X("/a"), IfaceId{1});
  EXPECT_EQ(tree.validate(), "");

  // /a/b is covered by both /a (or /*/b) via the tree and the other via a
  // super pointer.
  const SubscriptionTree::Node* ab = tree.find(X("/a/b"));
  ASSERT_NE(ab, nullptr);
  std::size_t coverers = ab->super_sources.size() +
                         (ab->parent != tree.root() ? 1u : 0u);
  EXPECT_GE(coverers, 2u);
}

TEST(SubscriptionTreeTest, CoveredQuery) {
  SubscriptionTree tree;
  tree.insert(X("/a/*"), IfaceId{1});
  EXPECT_TRUE(tree.covered(X("/a/b")));
  EXPECT_TRUE(tree.covered(X("/a/b/c")));
  EXPECT_FALSE(tree.covered(X("/b")));
  // A subscription equal to an existing one is not covered by *itself*.
  EXPECT_FALSE(tree.covered(X("/a/*")));
}

TEST(SubscriptionTreeTest, MatchPrunesButStaysExact) {
  Prt prt(/*covering=*/true);
  prt.insert(X("/a"), IfaceId{1});
  prt.insert(X("/a/b"), IfaceId{2});
  prt.insert(X("/a/b/c"), IfaceId{3});
  prt.insert(X("/x"), IfaceId{4});

  EXPECT_EQ(prt.match_hops(parse_path("/a/b/c")), ifaces({1, 2, 3}));
  EXPECT_EQ(prt.match_hops(parse_path("/a/b")), ifaces({1, 2}));
  EXPECT_EQ(prt.match_hops(parse_path("/a/z")), ifaces({1}));
  EXPECT_EQ(prt.match_hops(parse_path("/x/y")), ifaces({4}));
  EXPECT_EQ(prt.match_hops(parse_path("/q")), ifaces({}));
}

TEST(SubscriptionTreeTest, RemoveLeafAndInner) {
  SubscriptionTree tree;
  tree.insert(X("/a"), IfaceId{1});
  tree.insert(X("/a/b"), IfaceId{1});
  tree.insert(X("/a/b/c"), IfaceId{1});

  // Removing the middle node splices its child to /a.
  EXPECT_TRUE(tree.remove(X("/a/b"), IfaceId{1}));
  EXPECT_EQ(tree.size(), 2u);
  const SubscriptionTree::Node* abc = tree.find(X("/a/b/c"));
  ASSERT_NE(abc, nullptr);
  EXPECT_EQ(abc->parent->xpe, X("/a"));
  EXPECT_EQ(tree.validate(), "");

  EXPECT_FALSE(tree.remove(X("/a/b"), IfaceId{1}));  // already gone
  EXPECT_TRUE(tree.remove(X("/a"), IfaceId{1}));
  EXPECT_TRUE(tree.remove(X("/a/b/c"), IfaceId{1}));
  EXPECT_TRUE(tree.empty());
}

TEST(SubscriptionTreeTest, RemoveOnlyDropsGivenHop) {
  SubscriptionTree tree;
  tree.insert(X("/a"), IfaceId{1});
  tree.insert(X("/a"), IfaceId{2});
  EXPECT_TRUE(tree.remove(X("/a"), IfaceId{1}));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.remove(X("/a"), IfaceId{2}));
  EXPECT_TRUE(tree.empty());
}

TEST(SubscriptionTreeTest, SuperPointerCleanupOnRemove) {
  SubscriptionTree tree;
  tree.insert(X("/a/b"), IfaceId{1});
  tree.insert(X("/a"), IfaceId{1});
  tree.insert(X("/*/b"), IfaceId{1});  // super pointer to /a/b
  EXPECT_EQ(tree.validate(), "");
  EXPECT_TRUE(tree.erase(X("/*/b")));
  EXPECT_EQ(tree.validate(), "");
  const SubscriptionTree::Node* ab = tree.find(X("/a/b"));
  ASSERT_NE(ab, nullptr);
  EXPECT_TRUE(ab->super_sources.empty());
}

TEST(SubscriptionTreeTest, RelativeNeverUnderAbsolute) {
  // Paper's "Property of a Relative XPE node".
  SubscriptionTree tree;
  tree.insert(X("/a"), IfaceId{1});
  tree.insert(X("a/b"), IfaceId{1});  // relative
  const SubscriptionTree::Node* rel = tree.find(X("a/b"));
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->parent, tree.root());

  // But an absolute under a relative coverer is fine: "b" covers "/x/b".
  tree.insert(X("b"), IfaceId{1});
  auto r = tree.insert(X("/x/b"), IfaceId{1});
  EXPECT_TRUE(r.covered_by_existing);
  EXPECT_EQ(tree.validate(), "");
}

TEST(SubscriptionTreeTest, NowCoveredOnlyReportsTopLevel) {
  SubscriptionTree tree;
  tree.insert(X("/a/b"), IfaceId{1});
  tree.insert(X("/a/b/c"), IfaceId{1});  // nested under /a/b
  auto r = tree.insert(X("/a"), IfaceId{1});
  // Only /a/b is top-level; /a/b/c was already covered.
  ASSERT_EQ(r.now_covered.size(), 1u);
  EXPECT_EQ(r.now_covered[0], X("/a/b"));
}

TEST(SubscriptionTreeTest, TrackCoveredOffStillCorrect) {
  SubscriptionTree::Options opts;
  opts.track_covered = false;
  SubscriptionTree tree(opts);
  tree.insert(X("/a/b"), IfaceId{1});
  tree.insert(X("/c"), IfaceId{2});
  auto r = tree.insert(X("/*/b"), IfaceId{3});
  // Without tracking, cross-subtree covered subscriptions are not
  // reported, but matching stays exact... /*/b covers /a/b which is a
  // sibling scan at the same level, so Case 2 still nests it.
  EXPECT_EQ(r.now_covered.size(), 1u);
  EXPECT_EQ(match_hops_scan(tree, parse_path("/a/b")), ifaces({1, 3}));
  EXPECT_EQ(tree.validate(), "");
}

TEST(SubscriptionTreeTest, ComparisonsCounterAdvances) {
  SubscriptionTree tree;
  tree.insert(X("/a"), IfaceId{1});
  std::size_t before = tree.comparisons();
  tree.insert(X("/a/b"), IfaceId{1});
  EXPECT_GT(tree.comparisons(), before);
}

TEST(SubscriptionTreeTest, MergeChildrenBasics) {
  SubscriptionTree tree;
  tree.insert(X("/a/b/a"), IfaceId{1});
  tree.insert(X("/a/b/b"), IfaceId{2});
  tree.insert(X("/a/b/a/x"), IfaceId{3});  // child of /a/b/a

  std::vector<SubscriptionTree::Node*> originals{tree.find(X("/a/b/a")),
                                                 tree.find(X("/a/b/b"))};
  SubscriptionTree::Node* merger =
      tree.merge_children(tree.root(), originals, X("/a/b/*"));
  ASSERT_NE(merger, nullptr);
  EXPECT_TRUE(merger->merger);
  EXPECT_EQ(merger->hops, ifaces({1, 2}));
  EXPECT_EQ(merger->merged_from.size(), 2u);
  // The original's child now hangs under the merger.
  const SubscriptionTree::Node* grandchild = tree.find(X("/a/b/a/x"));
  ASSERT_NE(grandchild, nullptr);
  EXPECT_EQ(grandchild->parent, merger);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.validate(), "");
  // Matching routes to the merger's (unioned) hops.
  EXPECT_EQ(match_hops_scan(tree, parse_path("/a/b/b")), ifaces({1, 2}));
}

TEST(SubscriptionTreeTest, MergeCollisionReturnsNull) {
  SubscriptionTree tree;
  tree.insert(X("/a/*"), IfaceId{9});
  tree.insert(X("/q/a"), IfaceId{1});
  tree.insert(X("/q/b"), IfaceId{2});
  // Merger XPE already exists elsewhere: merge must be refused.
  std::vector<SubscriptionTree::Node*> originals{tree.find(X("/q/a")),
                                                 tree.find(X("/q/b"))};
  EXPECT_EQ(tree.merge_children(tree.root(), originals, X("/a/*")), nullptr);
  EXPECT_EQ(tree.size(), 3u);
}

// --- Compiled-index and covering-cache tests (the indexed hot path) -----

TEST(SubscriptionTreeTest, IndexedMatchEqualsScanOnRandomChurn) {
  Dtd dtd = corpus_dtd("news");
  XpathGenOptions gen;
  gen.count = 300;
  gen.wildcard_prob = 0.2;
  gen.descendant_prob = 0.2;
  gen.relative_prob = 0.2;

  Rng rng(7);
  std::vector<Path> probes;
  for (int d = 0; d < 4; ++d) {
    XmlDocument doc = generate_document(dtd, rng);
    for (Path& p : extract_paths(doc)) probes.push_back(std::move(p));
  }
  ASSERT_FALSE(probes.empty());

  auto check = [&](const Prt& prt, const std::string& where) {
    ASSERT_EQ(prt.tree()->validate(), "") << where;
    for (const Path& p : probes) {
      // Entry level: every matching node contributes its hops once.
      std::multiset<IfaceId> scanned;
      for (const SubscriptionTree::Node* node :
           testing::match_nodes_scan(*prt.tree(), p)) {
        scanned.insert(node->hops.begin(), node->hops.end());
      }
      EXPECT_EQ(testing::uncollapsed_hops(prt, p), scanned)
          << "path " << p.to_string() << " " << where;
      EXPECT_EQ(prt.match_hops(p), match_hops_scan(*prt.tree(), p))
          << "path " << p.to_string() << " " << where;
    }
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen.seed = seed;
    std::vector<Xpe> xpes = generate_xpaths(dtd, gen);
    Prt prt(/*covering=*/true);
    // Insert everything, interleaving removals of every third XPE so the
    // index sees root-set churn (splice-to-root on detach included), and
    // match along the way so each check runs against an incrementally
    // refreshed index.
    for (std::size_t i = 0; i < xpes.size(); ++i) {
      prt.insert(xpes[i], IfaceId{static_cast<int>(i % 16)});
      if (i % 3 == 2) prt.remove(xpes[i - 1], IfaceId{static_cast<int>((i - 1) % 16)});
      if (i % 50 == 49) {
        check(prt, "seed " + std::to_string(seed) + " step " +
                       std::to_string(i));
      }
    }
    check(prt, "seed " + std::to_string(seed));
  }
}

TEST(SubscriptionTreeTest, IndexedMatchSeesMutationsImmediately) {
  Prt prt(/*covering=*/true);
  prt.insert(X("/a/b"), IfaceId{1});
  EXPECT_EQ(prt.match_hops(parse_path("/a/b")), ifaces({1}));
  // Root-set mutation after a match (index built): new root must be found.
  prt.insert(X("/x"), IfaceId{2});
  EXPECT_EQ(prt.match_hops(parse_path("/x")), ifaces({2}));
  // Removal must drop it again.
  prt.remove(X("/x"), IfaceId{2});
  EXPECT_EQ(prt.match_hops(parse_path("/x")), ifaces({}));
  // Detaching a root splices its children to the root: still matched.
  prt.insert(X("/a"), IfaceId{3});
  EXPECT_EQ(prt.match_hops(parse_path("/a/b")), ifaces({1, 3}));
  prt.remove(X("/a"), IfaceId{3});
  EXPECT_EQ(prt.match_hops(parse_path("/a/b")), ifaces({1}));
}

TEST(SubscriptionTreeTest, CoverCacheServesRepeatsWithoutStaleResults) {
  SubscriptionTree tree;
  // insert → query: /a covers /a/b, so the newcomer is absorbed.
  tree.insert(X("/a"), IfaceId{1});
  auto first = tree.insert(X("/a/b"), IfaceId{2});
  EXPECT_TRUE(first.covered_by_existing);
  EXPECT_TRUE(tree.covered(X("/a/b")));

  // remove → query: the coverer is gone; a stale cache entry would keep
  // reporting /a/b as covered. Uids bind XPE values, so the memo stays
  // valid across the mutation by construction.
  tree.erase(X("/a"));
  EXPECT_FALSE(tree.covered(X("/a/b")));
  EXPECT_EQ(match_hops_scan(tree, parse_path("/a/b")), ifaces({2}));

  // re-insert → query: same value, same uids, same (still correct) verdict.
  auto again = tree.insert(X("/a"), IfaceId{1});
  EXPECT_FALSE(again.covered_by_existing);
  EXPECT_TRUE(tree.covered(X("/a/b")));
  // The repeats above were answered from the memo at least once.
  EXPECT_GT(tree.cover_cache_hits(), 0u);
  EXPECT_GT(tree.cover_cache_size(), 0u);
}

TEST(SubscriptionTreeTest, CoverCacheHitsStillCountAsComparisons) {
  SubscriptionTree tree;
  tree.insert(X("/a"), IfaceId{1});
  std::size_t before = tree.comparisons();
  EXPECT_TRUE(tree.covered(X("/a/b")));
  std::size_t cold = tree.comparisons() - before;
  std::size_t hits_before = tree.cover_cache_hits();
  EXPECT_TRUE(tree.covered(X("/a/b")));
  // Same number of covering requests, now memo-served: the experiment
  // counter is unchanged by the cache.
  EXPECT_EQ(tree.comparisons() - before, 2 * cold);
  EXPECT_GT(tree.cover_cache_hits(), hits_before);
}

// --- Signature-pruned maintenance against the unpruned reference --------

std::vector<Xpe> names(const std::vector<SubscriptionTree::Node*>& nodes) {
  std::vector<Xpe> out;
  for (const SubscriptionTree::Node* n : nodes) out.push_back(n->xpe);
  return out;
}

/// Drives `ops` random subscribes and unsubscribes of `xpes` from `hops`
/// interfaces into the tree, mirrored into the reference as the tree
/// gains and loses nodes: every insert's outcome is compared in order,
/// and after every op the whole shape, validate() and covered() on a
/// random probe. Given a universe, a merge pass (tolerance 0.5) runs
/// every 40 ops and the reference repeats each merge it made, so later
/// sweeps run over merged subtrees and their signature unions.
void run_differential(const std::vector<Xpe>& xpes, std::uint64_t seed,
                      std::size_t ops, int hops = 1,
                      const PathUniverse* universe = nullptr) {
  SubscriptionTree tree;
  testing::ReferenceCoveringTree reference;
  MergeOptions merge_options;
  merge_options.max_imperfect_degree = 0.5;
  const MergeEngine engine(universe, merge_options);
  Rng rng(seed);
  std::size_t super_links = 0;
  std::size_t merges = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    const Xpe& xpe = xpes[rng.index(xpes.size())];
    // With one hop no draw is made, so the single-hop streams are those
    // the differential drew before it took hops.
    const IfaceId hop{hops > 1 ? 1 + static_cast<int>(rng.index(hops)) : 1};
    const std::string where =
        "op " + std::to_string(op) + " " + xpe.to_string();
    const SubscriptionTree::Node* node = tree.find(xpe);
    if (node && node->hops.count(hop)) {
      if (rng.chance(0.6)) {
        const bool kept = node->merger || node->hops.size() > 1;
        tree.remove(xpe, hop);
        if (!tree.find(xpe)) {
          EXPECT_FALSE(kept) << where;
          reference.erase(xpe);
        }
      }
    } else if (node) {
      ASSERT_FALSE(tree.insert(xpe, hop).was_new) << where;
    } else if (universe && rng.chance(0.2)) {
      // Unsubscribing an XPE the tree does not hold (it may be a merged
      // original) leaves the shape alone.
      EXPECT_FALSE(tree.remove(xpe, hop)) << where;
    } else {
      const SubscriptionTree::InsertResult got = tree.insert(xpe, hop);
      const testing::ReferenceCoveringTree::Insert want = reference.insert(xpe);
      ASSERT_TRUE(got.was_new) << where;
      EXPECT_EQ(got.covered_by_existing, want.covered_by_existing) << where;
      EXPECT_EQ(got.now_covered, want.now_covered) << where;
      EXPECT_EQ(names(got.node->super), want.super) << where;
      EXPECT_EQ(names(got.node->super_sources), want.super_sources) << where;
      super_links += want.super.size() + want.super_sources.size();
    }
    if (universe && op % 40 == 39) {
      for (const MergeRecord& record : engine.run(tree).merges) {
        reference.merge(record.originals, record.merger);
        ++merges;
      }
    }
    ASSERT_EQ(tree.validate(), "") << where;
    ASSERT_EQ(testing::ReferenceCoveringTree::shape(tree), reference.shape())
        << where;
    const Xpe& probe = xpes[rng.index(xpes.size())];
    EXPECT_EQ(tree.covered(probe), reference.covered(probe))
        << where << ", probe " << probe.to_string();
  }
  EXPECT_EQ(tree.size(), reference.size());
  // The workload must exercise the sweep, not only tree edges, and the
  // merge variant must merge.
  EXPECT_GT(super_links, 0u);
  if (universe) EXPECT_GT(merges, 0u);
}

TEST(SubscriptionTreeTest, PrunedMaintenanceEqualsReferenceOnSmallAlphabet) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<Xpe> xpes;
    for (int i = 0; i < 80; ++i) {
      xpes.push_back(testing::random_xpe(rng, testing::small_alphabet(), 4));
    }
    run_differential(xpes, seed, 600);
  }
}

TEST(SubscriptionTreeTest, PrunedMaintenanceEqualsReferenceOnNews) {
  XpathGenOptions gen;
  gen.count = 300;
  gen.seed = 5;
  gen.relative_prob = 0.2;
  run_differential(generate_xpaths(corpus_dtd("news"), gen), 5, 900);
}

// Three hops per XPE, so an unsubscribe removes a node only with its last
// hop, and merge passes over the NEWS universe in between.
TEST(SubscriptionTreeTest, PrunedMaintenanceEqualsReferenceThroughMerges) {
  const Dtd dtd = corpus_dtd("news");
  const PathUniverse universe(dtd);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    XpathGenOptions gen;
    gen.count = 200;
    gen.seed = seed;
    gen.relative_prob = 0.2;
    run_differential(generate_xpaths(dtd, gen), seed, 900, /*hops=*/3,
                     &universe);
  }
}

// The super-pointer sweep skips subtrees by their signature unions. On a
// 2,000-XPE NEWS table, churn inserts from a disjoint pool read fewer
// than half of the tree's nodes on average; without the skip every sweep
// reads all of them but the newcomer's own subtree. (Signatures hash
// symbol ids, which depend on what the process interned first, so single
// inserts vary from run to run; the mean has a wide margin.)
TEST(SubscriptionTreeTest, SweepSkipsSubtreesThatCannotMatch) {
  constexpr std::size_t kTable = 2000, kPool = 64;
  XpathGenOptions gen;
  gen.count = kTable + kPool;
  gen.seed = 1;
  const std::vector<Xpe> xpes = generate_xpaths(corpus_dtd("news"), gen);
  ASSERT_EQ(xpes.size(), kTable + kPool);
  SubscriptionTree tree;
  for (std::size_t i = 0; i < kTable; ++i) tree.insert(xpes[i], IfaceId{1});
  const std::size_t before = tree.sweep_visits();
  for (std::size_t i = kTable; i < xpes.size(); ++i) {
    ASSERT_TRUE(tree.insert(xpes[i], IfaceId{2}).was_new);
    tree.erase(xpes[i]);
  }
  const std::size_t visits = tree.sweep_visits() - before;
  EXPECT_LT(2 * visits, kPool * (kTable + 1))
      << visits / kPool << " nodes per insert";
  EXPECT_EQ(tree.validate(), "");
}

}  // namespace
}  // namespace xroute

// Unit tests for the merging rules, D_imperfect, and the merge engine
// (paper §4.3).
#include <gtest/gtest.h>

#include "dtd/parser.hpp"
#include "dtd/universe.hpp"
#include "index/merging.hpp"
#include "oracles.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

Xpe X(const char* s) { return parse_xpe(s); }

TEST(MergeRules, OneDifferencePaperExample) {
  // a/*/c/d and a/*/c/e merge into a/*/c/*.
  auto merged = MergeEngine::merge_one_difference({X("a/*/c/d"), X("a/*/c/e")});
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, X("a/*/c/*"));
}

TEST(MergeRules, OneDifferenceManyCandidates) {
  // "The number of merging candidates in this rule is not limited to 2."
  auto merged = MergeEngine::merge_one_difference(
      {X("/a/b/a"), X("/a/b/b"), X("/a/b/d")});
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, X("/a/b/*"));
}

TEST(MergeRules, OneDifferenceRejections) {
  // Two differing positions.
  EXPECT_FALSE(MergeEngine::merge_one_difference({X("/a/b"), X("/c/d")}));
  // Different lengths.
  EXPECT_FALSE(MergeEngine::merge_one_difference({X("/a"), X("/a/b")}));
  // Different operators (that's Rule 2's business).
  EXPECT_FALSE(MergeEngine::merge_one_difference({X("/a/b"), X("/a//b")}));
  // A wildcard at the differing position means covering, not merging.
  EXPECT_FALSE(MergeEngine::merge_one_difference({X("/a/*"), X("/a/b")}));
  // Identical expressions.
  EXPECT_FALSE(MergeEngine::merge_one_difference({X("/a/b"), X("/a/b")}));
  // Fewer than two.
  EXPECT_FALSE(MergeEngine::merge_one_difference({X("/a/b")}));
}

TEST(MergeRules, TwoDifferencesPaperExample) {
  // /a/c/*/* and /a//c/*/c merge into /a//c/*/*.
  auto merged = MergeEngine::merge_two_differences(X("/a/c/*/*"), X("/a//c/*/c"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, X("/a//c/*/*"));
}

TEST(MergeRules, TwoDifferencesRejections) {
  // Only one difference -> Rule 1's business.
  EXPECT_FALSE(MergeEngine::merge_two_differences(X("/a/b"), X("/a/c")));
  // Three differences.
  EXPECT_FALSE(
      MergeEngine::merge_two_differences(X("/a/b/c/d"), X("/x//b/c/y")));
  // Lengths differ.
  EXPECT_FALSE(MergeEngine::merge_two_differences(X("/a/b"), X("/a//b/c")));
}

TEST(MergeRules, GeneralRulePaperForm) {
  // prefix XPE1 suffix + prefix XPE2 suffix -> prefix // suffix.
  auto merged = MergeEngine::merge_general(X("/a/x/y/d"), X("/a/z/d"), 2);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, X("/a//d"));
}

TEST(MergeRules, GeneralRuleGuards) {
  // Too little common material under min_common = 3.
  EXPECT_FALSE(MergeEngine::merge_general(X("/a/x/d"), X("/a/z/d"), 3));
  EXPECT_TRUE(MergeEngine::merge_general(X("/a/b/x/d"), X("/a/b/z/d"), 3));
  // No common prefix.
  EXPECT_FALSE(MergeEngine::merge_general(X("/q/x/d"), X("/a/z/d"), 1));
  // No common suffix.
  EXPECT_FALSE(MergeEngine::merge_general(X("/a/x"), X("/a/z"), 1));
  // Equal inputs.
  EXPECT_FALSE(MergeEngine::merge_general(X("/a/b"), X("/a/b"), 1));
}

// ---------- D_imperfect ----------

const char kMergeDtd[] = R"(
<!ELEMENT r (x)+>
<!ELEMENT x (a | b | c | d | e)>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>
<!ELEMENT d EMPTY><!ELEMENT e EMPTY>
)";

TEST(ImperfectDegree, PaperStyleComputation) {
  // Universe paths: /r/x/{a,b,c,d,e}. Merging /r/x/d and /r/x/e into
  // /r/x/* admits a,b,c as false positives: D = 3/5.
  Dtd dtd = parse_dtd(kMergeDtd);
  PathUniverse universe(dtd);
  ASSERT_EQ(universe.paths().size(), 5u);
  MergeEngine engine(&universe, MergeOptions{});
  double degree =
      engine.imperfect_degree(X("/r/x/*"), {X("/r/x/d"), X("/r/x/e")});
  EXPECT_DOUBLE_EQ(degree, 0.6);
}

TEST(ImperfectDegree, PerfectMergerIsZero) {
  Dtd dtd = parse_dtd(kMergeDtd);
  PathUniverse universe(dtd);
  MergeEngine engine(&universe, MergeOptions{});
  double degree = engine.imperfect_degree(
      X("/r/x/*"),
      {X("/r/x/a"), X("/r/x/b"), X("/r/x/c"), X("/r/x/d"), X("/r/x/e")});
  EXPECT_DOUBLE_EQ(degree, 0.0);
}

// ---------- the engine ----------

TEST(MergeEngineTest, PerfectMergeApplied) {
  Dtd dtd = parse_dtd(kMergeDtd);
  PathUniverse universe(dtd);
  SubscriptionTree tree;
  for (const char* s :
       {"/r/x/a", "/r/x/b", "/r/x/c", "/r/x/d", "/r/x/e"}) {
    tree.insert(X(s), IfaceId{1});
  }
  MergeOptions options;
  options.max_imperfect_degree = 0.0;
  MergeEngine engine(&universe, options);
  MergeReport report = engine.run(tree);
  ASSERT_EQ(report.merges.size(), 1u);
  EXPECT_EQ(report.merges[0].merger, X("/r/x/*"));
  EXPECT_EQ(report.merges[0].originals.size(), 5u);
  EXPECT_DOUBLE_EQ(report.merges[0].d_imperfect, 0.0);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(report.nodes_removed, 4u);
  EXPECT_EQ(tree.validate(), "");
}

TEST(MergeEngineTest, ImperfectMergeGatedByTolerance) {
  Dtd dtd = parse_dtd(kMergeDtd);
  PathUniverse universe(dtd);
  SubscriptionTree tree;
  tree.insert(X("/r/x/d"), IfaceId{1});
  tree.insert(X("/r/x/e"), IfaceId{2});

  {
    MergeOptions strict;  // perfect only
    MergeEngine engine(&universe, strict);
    EXPECT_TRUE(engine.run(tree).merges.empty());
    EXPECT_EQ(tree.size(), 2u);
  }
  {
    MergeOptions loose;
    loose.max_imperfect_degree = 0.7;
    MergeEngine engine(&universe, loose);
    MergeReport report = engine.run(tree);
    ASSERT_EQ(report.merges.size(), 1u);
    EXPECT_NEAR(report.merges[0].d_imperfect, 0.6, 1e-9);
    EXPECT_EQ(tree.size(), 1u);
    EXPECT_EQ(testing::match_hops_scan(tree, parse_path("/r/x/d")), ifaces({1, 2}));
  }
}

TEST(MergeEngineTest, NoUniverseMeansNoMerging) {
  SubscriptionTree tree;
  tree.insert(X("/r/x/d"), IfaceId{1});
  tree.insert(X("/r/x/e"), IfaceId{1});
  MergeEngine engine(nullptr, MergeOptions{});
  EXPECT_TRUE(engine.run(tree).merges.empty());
  EXPECT_EQ(tree.size(), 2u);
}

TEST(MergeEngineTest, MergersCanMergeAgain) {
  // Two merge passes can cascade: {d,e} -> * at one position frees the
  // sibling group for further rules at another position.
  Dtd dtd = parse_dtd(R"(
<!ELEMENT r (x | y)+>
<!ELEMENT x (a | b)>
<!ELEMENT y (a | b)>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY>
)");
  PathUniverse universe(dtd);
  SubscriptionTree tree;
  tree.insert(X("/r/x/a"), IfaceId{1});
  tree.insert(X("/r/x/b"), IfaceId{2});
  tree.insert(X("/r/y/a"), IfaceId{3});
  tree.insert(X("/r/y/b"), IfaceId{4});
  MergeOptions options;  // perfect merging
  MergeEngine engine(&universe, options);
  MergeReport report = engine.run(tree);
  // /r/x/* + /r/y/* first, then /r/*/*.
  EXPECT_GE(report.merges.size(), 2u);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(testing::match_hops_scan(tree, parse_path("/r/y/b")),
            ifaces({1, 2, 3, 4}));
  EXPECT_EQ(tree.validate(), "");
}

}  // namespace
}  // namespace xroute

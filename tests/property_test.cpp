// Property-based tests: the paper's PTIME algorithms are checked against
// brute-force path-enumeration oracles over a small alphabet.
//
//  * covering:   sound everywhere (a reported covering is never wrong);
//                exact on the '//'-free fragment.
//  * adv×sub:    exact for non-recursive advertisements and for the
//                automaton on recursive ones.
//  * tree:       invariants hold and matching equals a flat scan under
//                random insert/remove interleavings.
#include <gtest/gtest.h>

#include <set>

#include "dtd/universe.hpp"
#include "index/merging.hpp"
#include "index/subscription_tree.hpp"
#include "match/adv_automaton.hpp"
#include "match/adv_match.hpp"
#include "match/covering.hpp"
#include "match/rec_adv_match.hpp"
#include "oracles.hpp"
#include "workload/dtd_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

using testing::all_paths;
using testing::covers_oracle;
using testing::overlap_oracle;
using testing::random_flat_adv;
using testing::random_path;
using testing::random_xpe;
using testing::small_alphabet;

class CoveringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoveringProperty, SoundAgainstOracle) {
  Rng rng(GetParam());
  const auto paths = all_paths(small_alphabet(), 6);
  for (int i = 0; i < 400; ++i) {
    Xpe s1 = random_xpe(rng, small_alphabet(), 4);
    Xpe s2 = random_xpe(rng, small_alphabet(), 4);
    if (covers(s1, s2)) {
      EXPECT_TRUE(covers_oracle(s1, s2, paths))
          << s1.to_string() << " claimed to cover " << s2.to_string();
    }
  }
}

TEST_P(CoveringProperty, ExactOnSimpleFragment) {
  // Without '//' the homomorphism test is complete as well — except for
  // the anchored-covers-floating direction, which the paper's dispatch
  // rejects wholesale ("an absolute XPE cannot cover a relative XPE");
  // all-wildcard corner cases like "/*" ⊇ "*" are real coverings it
  // misses. Exactness is asserted for every other pair.
  Rng rng(GetParam() + 1000);
  const auto paths = all_paths(small_alphabet(), 6);
  for (int i = 0; i < 400; ++i) {
    Xpe s1 = random_xpe(rng, small_alphabet(), 4, 0.3, /*descendant=*/0.0);
    Xpe s2 = random_xpe(rng, small_alphabet(), 4, 0.3, /*descendant=*/0.0);
    if (s1.anchored() && !s2.anchored()) continue;
    EXPECT_EQ(covers(s1, s2), covers_oracle(s1, s2, paths))
        << s1.to_string() << " vs " << s2.to_string();
  }
}

TEST(CoveringKnownIncompleteness, AnchoredWildcardOverFloating) {
  // "/*" truly covers "*" (both match every non-empty path) but the
  // paper's dispatch — which we follow — reports no covering. Document
  // the sound-but-incomplete behaviour.
  const auto paths = all_paths(small_alphabet(), 4);
  EXPECT_TRUE(covers_oracle(parse_xpe("/*"), parse_xpe("*"), paths));
  EXPECT_FALSE(covers(parse_xpe("/*"), parse_xpe("*")));
}

TEST_P(CoveringProperty, ReflexiveAndAntisymmetricish) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 200; ++i) {
    Xpe s = random_xpe(rng, small_alphabet(), 5);
    EXPECT_TRUE(covers(s, s)) << s.to_string();
  }
}

TEST_P(CoveringProperty, SoundTransitivity) {
  // If the algorithm reports a >= b and b >= c, then a >= c must hold in
  // truth (the algorithm itself may or may not re-derive it).
  Rng rng(GetParam() + 3000);
  const auto paths = all_paths(small_alphabet(), 6);
  for (int i = 0; i < 300; ++i) {
    Xpe a = random_xpe(rng, small_alphabet(), 3);
    Xpe b = random_xpe(rng, small_alphabet(), 4);
    Xpe c = random_xpe(rng, small_alphabet(), 4);
    if (covers(a, b) && covers(b, c)) {
      EXPECT_TRUE(covers_oracle(a, c, paths))
          << a.to_string() << " >= " << b.to_string() << " >= "
          << c.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoveringProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

class AdvMatchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdvMatchProperty, NonRecursiveExactAgainstOracle) {
  Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    Advertisement a = random_flat_adv(rng, small_alphabet(), 5);
    Xpe s = random_xpe(rng, small_alphabet(), 5);
    bool expected = overlap_oracle(a, s, small_alphabet(), 7);
    EXPECT_EQ(nonrec_adv_overlaps(a.flat_elements(), s), expected)
        << a.to_string() << " vs " << s.to_string();
    EXPECT_EQ(AdvAutomaton(a).overlaps(s), expected)
        << "automaton: " << a.to_string() << " vs " << s.to_string();
  }
}

TEST_P(AdvMatchProperty, KmpStrategyNeverDisagreesWithNaive) {
  Rng rng(GetParam() + 500);
  for (int i = 0; i < 500; ++i) {
    Advertisement a = random_flat_adv(rng, small_alphabet(), 6);
    Xpe s = random_xpe(rng, small_alphabet(), 4, 0.3, 0.0, 1.0);  // relative
    EXPECT_EQ(
        rel_expr_and_adv(a.flat_elements(), s, SearchStrategy::kNaive),
        rel_expr_and_adv(a.flat_elements(), s, SearchStrategy::kKmpWhenSound))
        << a.to_string() << " vs " << s.to_string();
  }
}

TEST_P(AdvMatchProperty, SimpleRecursiveFig3AgreesWithAutomaton) {
  Rng rng(GetParam() + 900);
  for (int i = 0; i < 300; ++i) {
    // Random a1 (a2)+ a3 with small parts.
    auto part = [&](std::size_t max_len, std::size_t min_len) {
      std::vector<std::string> out;
      std::size_t len = min_len + rng.index(max_len - min_len + 1);
      for (std::size_t k = 0; k < len; ++k) {
        out.push_back(rng.chance(0.25) ? std::string(kWildcard)
                                       : rng.pick(small_alphabet()));
      }
      return out;
    };
    std::vector<std::string> a1 = part(2, 0), a2 = part(2, 1), a3 = part(2, 0);
    std::vector<AdvNode> nodes;
    for (auto& e : a1) nodes.push_back(AdvNode::element(e));
    std::vector<AdvNode> group;
    for (auto& e : a2) group.push_back(AdvNode::element(e));
    nodes.push_back(AdvNode::group(group));
    for (auto& e : a3) nodes.push_back(AdvNode::element(e));
    Advertisement adv(nodes);

    Xpe s = random_xpe(rng, small_alphabet(), 6, 0.25, 0.0, 0.0);  // absolute
    EXPECT_EQ(abs_expr_and_sim_rec_adv(a1, a2, a3, s),
              AdvAutomaton(adv).overlaps(s))
        << adv.to_string() << " vs " << s.to_string();
    EXPECT_EQ(abs_expr_and_rec_adv(adv, s), AdvAutomaton(adv).overlaps(s))
        << "expansion enumeration: " << adv.to_string() << " vs "
        << s.to_string();
  }
}

TEST_P(AdvMatchProperty, PubMatchedImpliesAdvOverlap) {
  // If a publication in P(a) matches s, then a and s overlap — ties the
  // three matchers together end-to-end.
  Rng rng(GetParam() + 1300);
  for (int i = 0; i < 400; ++i) {
    Advertisement a = random_flat_adv(rng, small_alphabet(), 5);
    // Instantiate a publication from the advertisement.
    Path p;
    for (const std::string& e : a.flat_elements()) {
      p.elements.push_back(e == kWildcard ? rng.pick(small_alphabet()) : e);
    }
    Xpe s = random_xpe(rng, small_alphabet(), 5);
    if (matches(p, s)) {
      EXPECT_TRUE(nonrec_adv_overlaps(a.flat_elements(), s))
          << a.to_string() << " pub " << p.to_string() << " sub "
          << s.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdvMatchProperty,
                         ::testing::Values(11, 12, 13, 14, 15));

class TreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeProperty, MatchingEqualsFlatScanUnderChurn) {
  Rng rng(GetParam());
  // Inserted and matched through the PRT, so every step matches against
  // an index refreshed incrementally after the previous step's mutation.
  Prt prt(/*covering=*/true);
  const SubscriptionTree& tree = *prt.tree();
  std::vector<std::pair<Xpe, IfaceId>> reference;  // flat mirror

  for (int step = 0; step < 300; ++step) {
    if (!reference.empty() && rng.chance(0.3)) {
      // Remove a random (xpe, hop).
      std::size_t victim = rng.index(reference.size());
      EXPECT_TRUE(prt.remove(reference[victim].first,
                             reference[victim].second));
      reference.erase(reference.begin() + static_cast<long>(victim));
    } else {
      Xpe s = random_xpe(rng, small_alphabet(), 4);
      IfaceId hop{rng.uniform_int(0, 3)};
      prt.insert(s, hop);
      // Mirror: avoid duplicate (xpe, hop) pairs.
      bool present = false;
      for (auto& [x, h] : reference) {
        if (x == s && h == hop) present = true;
      }
      if (!present) reference.emplace_back(s, hop);
    }

    ASSERT_EQ(tree.validate(), "") << "after step " << step;

    Path p = random_path(rng, small_alphabet(), 6);
    IfaceSet expected;
    for (const auto& [x, h] : reference) {
      if (matches(p, x)) expected.insert(h);
    }
    ASSERT_EQ(prt.match_hops(p), expected)
        << "path " << p.to_string() << " step " << step;
  }

  // Drain everything; the tree must empty out.
  for (auto& [x, h] : reference) {
    EXPECT_TRUE(prt.remove(x, h));
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.validate(), "");
}

TEST_P(TreeProperty, CoveredFlagSoundness) {
  // If insert reports covered_by_existing, some earlier subscription truly
  // covers the newcomer.
  Rng rng(GetParam() + 400);
  const auto paths = all_paths(small_alphabet(), 6);
  SubscriptionTree tree;
  std::vector<Xpe> inserted;
  for (int i = 0; i < 150; ++i) {
    Xpe s = random_xpe(rng, small_alphabet(), 4);
    auto result = tree.insert(s, IfaceId{0});
    if (result.was_new && result.covered_by_existing) {
      bool truly_covered = false;
      for (const Xpe& other : inserted) {
        if (covers_oracle(other, s, paths)) {
          truly_covered = true;
          break;
        }
      }
      EXPECT_TRUE(truly_covered) << s.to_string();
    }
    if (result.was_new) inserted.push_back(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperty, ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace xroute

namespace predicate_props {

using namespace xroute;
using xroute::testing::small_alphabet;

/// Random XPE whose concrete steps may carry predicates over a tiny
/// attribute vocabulary.
Xpe random_predicated_xpe(Rng& rng) {
  Xpe base = xroute::testing::random_xpe(rng, small_alphabet(), 4, 0.2, 0.2);
  std::vector<Step> steps = base.steps();
  for (Step& step : steps) {
    if (step.is_wildcard() || !rng.chance(0.4)) continue;
    Predicate p;
    p.target = Predicate::Target::kAttribute;
    p.name = std::string(1, rng.chance(0.5) ? 'u' : 'v');
    switch (rng.index(4)) {
      case 0: p.op = Predicate::Op::kExists; break;
      case 1:
        p.op = Predicate::Op::kEq;
        p.value = std::to_string(rng.uniform_int(0, 3));
        break;
      case 2:
        p.op = Predicate::Op::kLt;
        p.value = std::to_string(rng.uniform_int(1, 4));
        break;
      default:
        p.op = Predicate::Op::kGe;
        p.value = std::to_string(rng.uniform_int(0, 3));
        break;
    }
    step.predicates.push_back(std::move(p));
  }
  return base.relative() ? Xpe::relative(std::move(steps))
                         : Xpe::absolute(std::move(steps));
}

/// Random annotated path: small element alphabet, attributes u/v with
/// small numeric values (sometimes absent).
Path random_annotated_path(Rng& rng) {
  Path p = xroute::testing::random_path(rng, small_alphabet(), 5);
  for (std::size_t i = 0; i < p.size(); ++i) {
    PathNodeData data;
    if (rng.chance(0.7)) data.attributes["u"] = std::to_string(rng.uniform_int(0, 3));
    if (rng.chance(0.7)) data.attributes["v"] = std::to_string(rng.uniform_int(0, 3));
    p.data.push_back(std::move(data));
  }
  return p;
}

class PredicateCoveringProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredicateCoveringProperty, SoundOnAnnotatedPaths) {
  // If covers(s1, s2) then every annotated path matching s2 matches s1.
  Rng rng(GetParam());
  std::vector<Path> sample;
  for (int i = 0; i < 1500; ++i) sample.push_back(random_annotated_path(rng));
  std::size_t confirmed = 0;
  for (int i = 0; i < 500; ++i) {
    Xpe s1 = random_predicated_xpe(rng);
    Xpe s2 = random_predicated_xpe(rng);
    if (!covers(s1, s2)) continue;
    ++confirmed;
    for (const Path& p : sample) {
      if (matches(p, s2)) {
        ASSERT_TRUE(matches(p, s1))
            << s1.to_string() << " claimed to cover " << s2.to_string()
            << " but missed " << p.to_string();
      }
    }
  }
  EXPECT_GT(confirmed, 0u);  // the test must exercise real coverings
}

// The subscription tree answers "no" to every covering request whose
// signatures fail sig_may_cover, so the test must be a necessary
// condition of covers(): over small-alphabet XPEs with wildcards, '//',
// relative forms and predicates, covers(s1, s2) implies it.
TEST_P(PredicateCoveringProperty, SignatureTestIsNecessaryForCovering) {
  Rng rng(GetParam());
  auto draw = [&] {
    return rng.chance(0.5)
               ? random_predicated_xpe(rng)
               : xroute::testing::random_xpe(rng, small_alphabet(), 5);
  };
  std::size_t confirmed = 0;
  for (int i = 0; i < 20000; ++i) {
    Xpe s1 = draw();
    Xpe s2 = draw();
    if (!covers(s1, s2)) continue;
    ++confirmed;
    ASSERT_TRUE(SubscriptionTree::sig_may_cover(
        SubscriptionTree::symbol_sig(s1), SubscriptionTree::symbol_sig(s2)))
        << s1.to_string() << " covers " << s2.to_string();
  }
  EXPECT_GT(confirmed, 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateCoveringProperty,
                         ::testing::Values(51, 52, 53));

class MergeSoundnessProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeSoundnessProperty, AppliedMergersNeverLoseDeliveries) {
  // Run merge passes over random trees; every publication matched by an
  // original's hops before merging must still route to those hops after.
  Rng rng(GetParam());
  DtdGenOptions gopts;
  gopts.elements = 12;
  Dtd dtd = generate_random_dtd(rng, gopts);
  PathUniverse::Options uopts;
  uopts.max_depth = 8;
  uopts.max_paths = 4000;
  PathUniverse universe(dtd, uopts);
  if (universe.paths().empty()) GTEST_SKIP();

  XpathGenOptions xopts;
  xopts.count = 120;
  xopts.seed = GetParam();
  xopts.wildcard_prob = 0.2;
  xopts.descendant_prob = 0.1;
  auto xpes = generate_xpaths(dtd, xopts);

  Prt prt(/*covering=*/true);
  SubscriptionTree& tree = *prt.tree();
  std::vector<std::pair<Xpe, IfaceId>> reference;
  for (std::size_t i = 0; i < xpes.size(); ++i) {
    IfaceId hop{static_cast<int>(i % 5)};
    prt.insert(xpes[i], hop);
    reference.emplace_back(xpes[i], hop);
  }

  MergeOptions mopts;
  mopts.max_imperfect_degree = 0.3;
  mopts.rule_general = true;
  MergeEngine engine(&universe, mopts);
  MergeReport report = engine.run(tree);
  ASSERT_EQ(tree.validate(), "");

  std::size_t checked = 0;
  for (const Path& p : universe.paths()) {
    if (++checked > 1500) break;
    IfaceSet expected;
    for (const auto& [xpe, hop] : reference) {
      if (matches(p, xpe)) expected.insert(hop);
    }
    IfaceSet got = prt.match_hops(p);
    for (IfaceId hop : expected) {
      ASSERT_TRUE(got.count(hop))
          << "hop " << hop << " lost for " << p.to_string() << " after "
          << report.merges.size() << " merges";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeSoundnessProperty,
                         ::testing::Values(61, 62, 63, 64));

}  // namespace predicate_props

// Tests for the attribute/text predicate extension (paper §3.1: "our
// approach could be easily extended to element attributes and content").
#include <gtest/gtest.h>

#include "index/subscription_tree.hpp"
#include "match/covering.hpp"
#include "match/pub_match.hpp"
#include "oracles.hpp"
#include <algorithm>
#include <set>

#include "util/error.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xml_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/parser.hpp"
#include "xpath/parser.hpp"
#include "xpath/predicate.hpp"

namespace xroute {
namespace {

// ---------- parsing & printing ----------

TEST(PredicateParse, RoundTrips) {
  for (const char* text : {
           "/a/b[@x='1']",
           "/a[@x]/b",
           "//media[@type='photo']/media-reference",
           "/a/b[@n<'10']",
           "/a/b[@n>='2.5']",
           "/a/b[@n!='x']/c[@m<='0']",
           "/t[text()='hello world']",
           "/a[@x='1'][@y='2']",
       }) {
    EXPECT_EQ(parse_xpe(text).to_string(), text) << text;
  }
}

TEST(PredicateParse, QuotedAndNumericValues) {
  Xpe a = parse_xpe("/a/b[@n<10]");  // unquoted number
  ASSERT_EQ(a.step(1).predicates.size(), 1u);
  EXPECT_EQ(a.step(1).predicates[0].value, "10");
  EXPECT_EQ(a.to_string(), "/a/b[@n<'10']");  // canonical quoted form

  Xpe b = parse_xpe("/a[@s=\"double quoted\"]");
  EXPECT_EQ(b.step(0).predicates[0].value, "double quoted");
}

TEST(PredicateParse, Errors) {
  EXPECT_THROW(parse_xpe("/a/b[]"), ParseError);
  EXPECT_THROW(parse_xpe("/a/b[@]"), ParseError);
  EXPECT_THROW(parse_xpe("/a/b[@x"), ParseError);
  EXPECT_THROW(parse_xpe("/a/b[@x='v'"), ParseError);
  EXPECT_THROW(parse_xpe("/a/b[@x='v"), ParseError);
  EXPECT_THROW(parse_xpe("/a/b[text()]"), ParseError);  // needs comparison
  EXPECT_THROW(parse_xpe("/a/b[foo='v']"), ParseError);
}

TEST(PredicateParse, DistinctFromUnpredicated) {
  EXPECT_NE(parse_xpe("/a/b[@x='1']"), parse_xpe("/a/b"));
  EXPECT_NE(parse_xpe("/a/b[@x='1']"), parse_xpe("/a/b[@x='2']"));
  XpeHash h;
  EXPECT_NE(h(parse_xpe("/a/b[@x='1']")), h(parse_xpe("/a/b")));
}

// ---------- value comparison ----------

TEST(PredicateValues, NumericVsLexicographic) {
  EXPECT_TRUE(compare_values("9", Predicate::Op::kLt, "10"));    // numeric
  EXPECT_FALSE(compare_values("9a", Predicate::Op::kLt, "10"));  // lexical
  EXPECT_TRUE(compare_values("abc", Predicate::Op::kEq, "abc"));
  EXPECT_TRUE(compare_values("abc", Predicate::Op::kNe, "abd"));
  EXPECT_TRUE(compare_values("2.5", Predicate::Op::kGe, "2.5"));
  EXPECT_FALSE(compare_values("2.4", Predicate::Op::kGe, "2.5"));
}

// ---------- matching against annotated paths ----------

Path annotated_path() {
  XmlDocument doc = parse_xml(
      R"(<news><media type="photo" width="640"><ref>x</ref></media></news>)");
  return extract_paths(doc)[0];  // /news/media/ref with annotations
}

TEST(PredicateMatch, AttributeEquality) {
  Path p = annotated_path();
  EXPECT_TRUE(matches(p, parse_xpe("/news/media[@type='photo']/ref")));
  EXPECT_FALSE(matches(p, parse_xpe("/news/media[@type='video']/ref")));
  EXPECT_TRUE(matches(p, parse_xpe("//media[@type!='video']")));
  EXPECT_TRUE(matches(p, parse_xpe("//media[@type]")));
  EXPECT_FALSE(matches(p, parse_xpe("//media[@missing]")));
}

TEST(PredicateMatch, NumericRanges) {
  Path p = annotated_path();
  EXPECT_TRUE(matches(p, parse_xpe("//media[@width<'1000']")));
  EXPECT_TRUE(matches(p, parse_xpe("//media[@width>='640']")));
  EXPECT_FALSE(matches(p, parse_xpe("//media[@width>'640']")));
}

TEST(PredicateMatch, TextContent) {
  Path p = annotated_path();
  EXPECT_TRUE(matches(p, parse_xpe("//ref[text()='x']")));
  EXPECT_FALSE(matches(p, parse_xpe("//ref[text()='y']")));
}

TEST(PredicateMatch, MultiplePredicatesConjunction) {
  Path p = annotated_path();
  EXPECT_TRUE(matches(p, parse_xpe("//media[@type='photo'][@width='640']")));
  EXPECT_FALSE(matches(p, parse_xpe("//media[@type='photo'][@width='641']")));
}

TEST(PredicateMatch, WildcardWithPredicate) {
  Path p = annotated_path();
  EXPECT_TRUE(matches(p, parse_xpe("/news/*[@type='photo']")));
  EXPECT_FALSE(matches(p, parse_xpe("/news/*[@type='video']")));
}

TEST(PredicateMatch, StructuralPathFailsPredicates) {
  // A predicate can never hold on a path without annotations.
  Path p = parse_path("/news/media/ref");
  EXPECT_FALSE(matches(p, parse_xpe("//media[@type]")));
  EXPECT_TRUE(matches(p, parse_xpe("//media")));
}

// ---------- predicate implication & covering ----------

TEST(PredicateImplication, Rules) {
  auto P = [](const char* text) {
    return parse_xpe((std::string("/a") + text).c_str()).step(0).predicates[0];
  };
  // Anything implies existence.
  EXPECT_TRUE(predicate_implies(P("[@x='5']"), P("[@x]")));
  EXPECT_TRUE(predicate_implies(P("[@x<'2']"), P("[@x]")));
  // Equality implies any satisfied comparison.
  EXPECT_TRUE(predicate_implies(P("[@x='5']"), P("[@x<'10']")));
  EXPECT_TRUE(predicate_implies(P("[@x='5']"), P("[@x!='9']")));
  EXPECT_FALSE(predicate_implies(P("[@x='15']"), P("[@x<'10']")));
  // Interval containment.
  EXPECT_TRUE(predicate_implies(P("[@x<'5']"), P("[@x<'10']")));
  EXPECT_TRUE(predicate_implies(P("[@x<'5']"), P("[@x<='5']")));
  EXPECT_FALSE(predicate_implies(P("[@x<='5']"), P("[@x<'5']")));
  EXPECT_TRUE(predicate_implies(P("[@x>'7']"), P("[@x>='7']")));
  EXPECT_FALSE(predicate_implies(P("[@x<'10']"), P("[@x<'5']")));
  // Different attributes never imply each other.
  EXPECT_FALSE(predicate_implies(P("[@x='5']"), P("[@y='5']")));
  // Existence implies nothing concrete.
  EXPECT_FALSE(predicate_implies(P("[@x]"), P("[@x='5']")));
}

TEST(PredicateCovering, FewerPredicatesCoverMore) {
  EXPECT_TRUE(covers(parse_xpe("/a/b"), parse_xpe("/a/b[@x='1']")));
  EXPECT_FALSE(covers(parse_xpe("/a/b[@x='1']"), parse_xpe("/a/b")));
  EXPECT_TRUE(covers(parse_xpe("/a/b[@x]"), parse_xpe("/a/b[@x='1']")));
  EXPECT_TRUE(covers(parse_xpe("/a/b[@x<'10']"), parse_xpe("/a/b[@x<'5']")));
  EXPECT_FALSE(covers(parse_xpe("/a/b[@x<'5']"), parse_xpe("/a/b[@x<'10']")));
  EXPECT_TRUE(covers(parse_xpe("/a/*"), parse_xpe("/a/b[@x='1']")));
  // Across descendant operators too.
  EXPECT_TRUE(covers(parse_xpe("//b[@x]"), parse_xpe("/a//b[@x='1']")));
}

TEST(PredicateCovering, SoundInTheTree) {
  // Covered predicated XPEs are delivered through their coverers.
  SubscriptionTree tree;
  tree.insert(parse_xpe("//media[@type]"), IfaceId{1});
  auto r = tree.insert(parse_xpe("//media[@type='photo']"), IfaceId{2});
  EXPECT_TRUE(r.covered_by_existing);

  Path p = annotated_path();
  EXPECT_EQ(testing::match_hops_scan(tree, p), ifaces({1, 2}));
  EXPECT_EQ(tree.validate(), "");
}

// ---------- end-to-end through the generated workload ----------

TEST(PredicateWorkload, GeneratorProducesSatisfiableQueries) {
  Dtd dtd = psd_dtd();
  XpathGenOptions options;
  options.count = 200;
  options.predicate_prob = 0.5;
  options.wildcard_prob = 0.0;
  options.descendant_prob = 0.0;
  options.relative_prob = 0.0;
  options.seed = 4;
  auto xpes = generate_xpaths(dtd, options);
  std::size_t with_predicates = 0;
  for (const Xpe& x : xpes) {
    if (x.has_predicates()) ++with_predicates;
  }
  EXPECT_GT(with_predicates, 20u);

  // Generated documents carry the declared attributes, so a reasonable
  // fraction of the predicated queries match real content.
  Rng rng(5);
  std::size_t matched = 0;
  for (int d = 0; d < 30; ++d) {
    XmlDocument doc = generate_document(dtd, rng, {});
    for (const Path& p : extract_paths(doc)) {
      for (const Xpe& x : xpes) {
        if (x.has_predicates() && matches(p, x)) {
          ++matched;
          break;
        }
      }
    }
  }
  EXPECT_GT(matched, 0u);
}

TEST(PredicateWorkload, GeneratedAttributesRespectDeclarations) {
  Dtd dtd = news_dtd();
  Rng rng(6);
  XmlDocument doc = generate_document(dtd, rng, {});
  std::vector<const XmlNode*> stack{&doc.root()};
  while (!stack.empty()) {
    const XmlNode* node = stack.back();
    stack.pop_back();
    const auto& decls = dtd.element(node->name).attributes;
    for (const auto& [key, value] : node->attributes) {
      const AttributeDecl* decl = nullptr;
      for (const auto& d : decls) {
        if (d.name == key) decl = &d;
      }
      ASSERT_NE(decl, nullptr) << node->name << "/@" << key;
      if (!decl->enumeration.empty()) {
        EXPECT_NE(std::find(decl->enumeration.begin(), decl->enumeration.end(),
                            value),
                  decl->enumeration.end())
            << node->name << "/@" << key << "=" << value;
      }
    }
    // Required attributes always present.
    for (const auto& d : decls) {
      if (!d.required) continue;
      bool found = false;
      for (const auto& [key, value] : node->attributes) {
        (void)value;
        if (key == d.name) found = true;
      }
      EXPECT_TRUE(found) << node->name << " missing @" << d.name;
    }
    for (const XmlNode& c : node->children) stack.push_back(&c);
  }
}

}  // namespace
}  // namespace xroute

// Self-test of the benchmark's delivery oracle: a clean run reports no
// error, and an injected drop, spurious frame and duplicate are each
// flagged. run.py runs it before every measurement; exit code 0 = pass.
#include <cstdlib>
#include <iostream>

#include "oracle.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "oracle_test: FAILED: " << what << "\n";
    ++failures;
  }
}

using perfbench::DeliveryOracle;
using perfbench::Verdict;

// Three required paths in one document, one path nobody wants.
DeliveryOracle published_doc() {
  DeliveryOracle oracle;
  for (std::uint32_t p = 0; p < 3; ++p) {
    oracle.published(7, p, Verdict{true, false}, false);
  }
  oracle.published(7, 3, Verdict{false, false}, false);
  return oracle;
}

}  // namespace

int main() {
  using xroute::parse_path;
  using xroute::parse_xpe;

  std::vector<xroute::Xpe> steady{parse_xpe("/news/article/headline")};
  std::vector<xroute::Xpe> pool{parse_xpe("//byline")};
  Verdict hit = perfbench::classify(
      parse_path("/news/article/headline/b"), steady, pool);
  check(hit.steady && !hit.pool, "classify: steady match");
  Verdict pool_only =
      perfbench::classify(parse_path("/news/article/byline"), steady, pool);
  check(!pool_only.steady && pool_only.pool, "classify: pool-only match");

  {
    DeliveryOracle oracle = published_doc();
    for (std::uint32_t p = 0; p < 3; ++p) oracle.arrived(7, p);
    DeliveryOracle::Report r = oracle.report();
    check(r.expected == 3 && r.delivered == 3 && r.errors() == 0,
          "clean delivery reports no error");
  }
  {
    DeliveryOracle oracle = published_doc();
    oracle.arrived(7, 0);
    oracle.arrived(7, 2);
    DeliveryOracle::Report r = oracle.report();
    check(r.missing == 1 && r.errors() == 1, "an injected drop is flagged");
  }
  {
    DeliveryOracle oracle = published_doc();
    for (std::uint32_t p = 0; p < 4; ++p) oracle.arrived(7, p);
    oracle.arrived(99, 0);  // never published at all
    DeliveryOracle::Report r = oracle.report();
    check(r.spurious == 2 && r.errors() == 2,
          "unwanted and unpublished frames are flagged as spurious");
  }
  {
    DeliveryOracle oracle = published_doc();
    for (std::uint32_t p = 0; p < 3; ++p) oracle.arrived(7, p);
    oracle.arrived(7, 1);
    DeliveryOracle::Report r = oracle.report();
    check(r.duplicates == 1 && r.errors() == 1,
          "an injected duplicate is flagged");
  }
  {
    // A pool-only path may arrive while the pool churns, and need not.
    DeliveryOracle oracle;
    oracle.published(1, 0, pool_only, true);
    oracle.published(1, 1, pool_only, true);
    oracle.arrived(1, 0);
    DeliveryOracle::Report r = oracle.report();
    check(r.expected == 0 && r.errors() == 0,
          "a churn-pool delivery is neither expected nor spurious");
    // Outside a churn phase the same delivery is spurious.
    DeliveryOracle strict;
    strict.published(1, 0, pool_only, false);
    strict.arrived(1, 0);
    check(strict.report().spurious == 1,
          "a pool-only delivery with no live pool is spurious");
  }

  if (failures == 0) std::cerr << "oracle_test: all checks passed\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

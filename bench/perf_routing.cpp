// Broker hot-path throughput: indexed + interned matching vs the linear-
// scan reference twins in tests/oracles.hpp.
//
// Measures the two routing-table operations every message crosses:
//
//   subscription forward — Srt::hops_overlapping (symbol index + interned
//       overlap) vs hops_overlapping_scan (linear scan with string element
//       comparisons);
//   publication match    — flat Prt::match_hops at --subs subscriptions
//       (the compiled index + interned matcher) vs match_hops_scan (linear
//       scan with the string matcher), plus the covering tree's compiled
//       index vs its pruned DFS scan as an informative extra;
//   subscription load    — N generated XPEs into a default covering PRT
//       (track_covered on): wall time, covering tests and super-pointer
//       sweep visits per insert, the smallest N checked against the
//       unpruned reference tree.
//
// Every indexed result is verified equal to the reference before timing;
// the run aborts if any differs. The run also replays the pinned
// clean-network golden scenario (net/golden.hpp) and fails if the totals
// moved — the observability layer's zero-overhead contract — and embeds
// that run's full metrics snapshot. Results land in BENCH_routing.json
// (see DESIGN.md "Performance architecture" for how to read it).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adv/derive.hpp"
#include "machine.hpp"
#include "metrics_snapshot.hpp"
#include "net/golden.hpp"
#include "net/simulator.hpp"
#include "oracles.hpp"
#include "router/routing_tables.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/set_builder.hpp"
#include "workload/xml_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/paths.hpp"

using namespace xroute;

namespace {

using Clock = std::chrono::steady_clock;

/// Runs `body` repeatedly until at least `min_seconds` have elapsed and
/// returns operations per second (ops = `ops_per_rep` * repetitions).
double ops_per_sec(double min_seconds, std::size_t ops_per_rep,
                   const std::function<void()>& body) {
  std::size_t reps = 0;
  auto start = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(ops_per_rep) * static_cast<double>(reps) /
         elapsed;
}

struct Metric {
  std::size_t table_entries = 0;
  std::size_t queries = 0;
  double scan_per_sec = 0.0;
  double indexed_per_sec = 0.0;
  std::size_t tests_scan = 0;
  std::size_t tests_indexed = 0;
  double speedup() const {
    return scan_per_sec > 0 ? indexed_per_sec / scan_per_sec : 0.0;
  }
};

void emit(std::ostream& os, const Metric& m) {
  os << "    \"table_entries\": " << m.table_entries << ",\n"
     << "    \"queries\": " << m.queries << ",\n"
     << "    \"baseline_scan_per_sec\": " << m.scan_per_sec << ",\n"
     << "    \"indexed_per_sec\": " << m.indexed_per_sec << ",\n"
     << "    \"speedup\": " << m.speedup() << ",\n"
     << "    \"tests_scan\": " << m.tests_scan << ",\n"
     << "    \"tests_indexed\": " << m.tests_indexed << "\n";
}

struct LoadPoint {
  std::size_t subscriptions = 0;
  double seconds = 0.0;
  std::size_t covering_tests = 0;
  std::size_t sweep_visits = 0;
  std::size_t covered = 0;
};

/// Loads `xpes` into a default covering PRT (hops round-robin). With a
/// reference, every insert's covered flag and now_covered list and the
/// final tree are also compared with it; `*same` reports the verdict.
LoadPoint load_table(const std::vector<Xpe>& xpes, int hops,
                     testing::ReferenceCoveringTree* reference, bool* same) {
  LoadPoint point;
  point.subscriptions = xpes.size();
  Prt prt(/*covering=*/true);
  std::vector<Prt::InsertOutcome> outcomes;
  outcomes.reserve(xpes.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < xpes.size(); ++i) {
    outcomes.push_back(
        prt.insert(xpes[i], IfaceId{static_cast<int>(i) % hops}));
  }
  point.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  point.covering_tests = prt.comparisons();
  point.sweep_visits = prt.tree()->sweep_visits();
  for (const Prt::InsertOutcome& o : outcomes) point.covered += o.covered;
  if (reference) {
    for (std::size_t i = 0; i < xpes.size(); ++i) {
      const testing::ReferenceCoveringTree::Insert want =
          reference->insert(xpes[i]);
      if (outcomes[i].covered != want.covered_by_existing ||
          outcomes[i].now_covered != want.now_covered) {
        std::cerr << "MISMATCH: load insert " << i << " ("
                  << xpes[i].to_string() << ")\n";
        *same = false;
      }
    }
    if (testing::ReferenceCoveringTree::shape(*prt.tree()) !=
        reference->shape()) {
      std::cerr << "MISMATCH: loaded tree differs from the reference\n";
      *same = false;
    }
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("Broker hot-path throughput: indexed vs linear-scan reference");
  flags.define("subs", "10000", "subscription count (PRT size)");
  flags.define("srt-queries", "2000", "subscriptions timed against the SRT");
  flags.define("docs", "40", "generated documents (publication paths)");
  flags.define("dtd", "news", "corpus DTD (news|psd)");
  flags.define("rate", "0.9", "target covering rate of the subscription set");
  flags.define("seed", "1", "workload seed");
  flags.define("hops", "64", "distinct last-hop interfaces");
  flags.define("min-seconds", "0.3", "minimum timed duration per loop");
  flags.define("load", "1000,2000,5000,10000",
               "subscription-load sizes, ascending; the first is checked "
               "against the reference tree");
  flags.define("out", "BENCH_routing.json", "output file");
  flags.define("git-rev", "unknown", "source revision, recorded in the config");
  if (!flags.parse(argc, argv)) return 0;

  const std::size_t subs = flags.get_int("subs");
  const std::size_t srt_queries = flags.get_int("srt-queries");
  const int hops = static_cast<int>(flags.get_int("hops"));
  const double min_seconds = flags.get_double("min-seconds");
  Dtd dtd = corpus_dtd(flags.get_string("dtd"));

  // ---- Workload -------------------------------------------------------
  CoverSetOptions set_opts;
  set_opts.count = subs;
  set_opts.target_rate = flags.get_double("rate");
  set_opts.seed = flags.get_int64("seed");
  CoverSet set = build_covering_set(dtd, set_opts);
  std::cout << set.xpes.size() << " subscriptions (covering rate "
            << set.constructed_rate << ")\n";

  DerivedAdvertisements derived = derive_advertisements(dtd);
  std::cout << derived.advertisements.size() << " advertisements\n";

  Rng rng(flags.get_int64("seed"));
  std::vector<Path> paths;
  for (int d = 0; d < flags.get_int("docs"); ++d) {
    XmlDocument doc = generate_document(dtd, rng);
    for (Path& p : extract_paths(doc)) paths.push_back(std::move(p));
  }
  std::cout << paths.size() << " publication paths\n";
  if (set.xpes.empty() || derived.advertisements.empty() || paths.empty()) {
    std::cerr << "empty workload\n";
    return 1;
  }

  bool verified = true;

  // ---- Subscription forward (SRT) -------------------------------------
  Metric srt_metric;
  {
    Srt srt;
    for (std::size_t i = 0; i < derived.advertisements.size(); ++i) {
      srt.add(derived.advertisements[i], IfaceId{static_cast<int>(i) % hops});
    }
    std::vector<const Xpe*> queries;
    for (std::size_t i = 0; i < srt_queries; ++i) {
      queries.push_back(&set.xpes[i % set.xpes.size()]);
    }
    srt_metric.table_entries = srt.size();
    srt_metric.queries = queries.size();

    // Verification pass (also warms the lazy advertisement automatons so
    // neither timed loop pays compilation).
    for (const Xpe* q : queries) {
      if (srt.hops_overlapping(*q) !=
          testing::hops_overlapping_scan(srt, *q)) {
        std::cerr << "MISMATCH: hops_overlapping(" << q->to_string() << ")\n";
        verified = false;
      }
    }

    srt_metric.scan_per_sec = ops_per_sec(min_seconds, queries.size(), [&] {
      for (const Xpe* q : queries) {
        testing::hops_overlapping_scan(srt, *q, &srt_metric.tests_scan);
      }
    });
    std::size_t before = srt.comparisons();
    srt_metric.indexed_per_sec = ops_per_sec(min_seconds, queries.size(), [&] {
      for (const Xpe* q : queries) srt.hops_overlapping(*q);
    });
    srt_metric.tests_indexed = srt.comparisons() - before;
    std::cout << "SRT forward: scan " << srt_metric.scan_per_sec
              << " subs/s, indexed " << srt_metric.indexed_per_sec
              << " subs/s (" << srt_metric.speedup() << "x)\n";
  }

  // ---- Publication match (flat PRT, the no-covering baseline) ---------
  Metric prt_metric;
  {
    Prt prt(/*covering=*/false);
    for (std::size_t i = 0; i < set.xpes.size(); ++i) {
      prt.insert(set.xpes[i], IfaceId{static_cast<int>(i) % hops});
    }
    prt_metric.table_entries = prt.size();
    prt_metric.queries = paths.size();

    const std::vector<std::pair<Xpe, IfaceSet>> entries =
        prt.entries_with_hops();
    for (const Path& p : paths) {
      if (prt.match_hops(p) != testing::match_hops_scan(entries, p)) {
        std::cerr << "MISMATCH: match_hops(" << p.to_string() << ")\n";
        verified = false;
      }
    }

    prt_metric.scan_per_sec = ops_per_sec(min_seconds, paths.size(), [&] {
      for (const Path& p : paths) {
        testing::match_hops_scan(entries, p, &prt_metric.tests_scan);
      }
    });
    std::size_t before = prt.comparisons();
    prt_metric.indexed_per_sec = ops_per_sec(min_seconds, paths.size(), [&] {
      for (const Path& p : paths) prt.match_hops(p);
    });
    prt_metric.tests_indexed = prt.comparisons() - before;
    std::cout << "PRT match: scan " << prt_metric.scan_per_sec
              << " pubs/s, indexed " << prt_metric.indexed_per_sec
              << " pubs/s (" << prt_metric.speedup() << "x)\n";
  }

  // ---- Covering-tree match (informative) ------------------------------
  Metric tree_metric;
  {
    Prt prt(/*covering=*/true, /*track_covered=*/false);
    for (std::size_t i = 0; i < set.xpes.size(); ++i) {
      prt.insert(set.xpes[i], IfaceId{static_cast<int>(i) % hops});
    }
    tree_metric.table_entries = prt.size();
    tree_metric.queries = paths.size();
    const SubscriptionTree& tree = *prt.tree();
    for (const Path& p : paths) {
      if (prt.match_hops(p) != testing::match_hops_scan(tree, p)) {
        std::cerr << "MISMATCH: tree match_hops(" << p.to_string() << ")\n";
        verified = false;
      }
    }
    tree_metric.scan_per_sec = ops_per_sec(min_seconds, paths.size(), [&] {
      for (const Path& p : paths) {
        testing::match_hops_scan(tree, p, &tree_metric.tests_scan);
      }
    });
    std::size_t before = prt.comparisons();
    tree_metric.indexed_per_sec = ops_per_sec(min_seconds, paths.size(), [&] {
      for (const Path& p : paths) prt.match_hops(p);
    });
    tree_metric.tests_indexed = prt.comparisons() - before;
    std::cout << "Tree match: scan " << tree_metric.scan_per_sec
              << " pubs/s, indexed " << tree_metric.indexed_per_sec
              << " pubs/s (" << tree_metric.speedup() << "x)\n";
  }

  // ---- Subscription load (control plane) ------------------------------
  // Prefixes of one generated set (the paper's generator at W = DO =
  // 0.15), so each size extends the previous one.
  std::vector<std::size_t> load_sizes;
  {
    std::istringstream list(flags.get_string("load"));
    for (std::string item; std::getline(list, item, ',');) {
      load_sizes.push_back(std::stoul(item));
    }
  }
  std::vector<LoadPoint> load;
  bool load_same = true;
  if (!load_sizes.empty()) {
    XpathGenOptions gen;
    gen.count = load_sizes.back();
    gen.seed = flags.get_int64("seed");
    const std::vector<Xpe> pool = generate_xpaths(dtd, gen);
    for (std::size_t k = 0; k < load_sizes.size(); ++k) {
      const std::size_t n = std::min(load_sizes[k], pool.size());
      const std::vector<Xpe> xpes(pool.begin(),
                                  pool.begin() + static_cast<long>(n));
      testing::ReferenceCoveringTree reference;
      load.push_back(load_table(xpes, hops, k == 0 ? &reference : nullptr,
                                &load_same));
      const LoadPoint& p = load.back();
      const double inserts = static_cast<double>(p.subscriptions);
      std::cout << "load " << p.subscriptions << ": " << p.seconds << " s, "
                << static_cast<double>(p.covering_tests) / inserts
                << " covering tests/insert, "
                << static_cast<double>(p.sweep_visits) / inserts
                << " sweep visits/insert\n";
    }
    verified = verified && load_same;
  }

  // ---- Clean-network golden (zero-overhead contract) ------------------
  // Same assertion tests/obs_test.cpp makes: replaying the pinned golden
  // scenario must reproduce the pre-observability totals exactly. A
  // metrics or tracing hook that moves a single message or byte fails the
  // bench the same way a routing mismatch does.
  Simulator golden_sim(Simulator::Options{0.0});
  const bool golden_ok = run_golden_scenario(golden_sim) == golden_expected();
  if (!golden_ok) {
    std::cerr << "GOLDEN MISMATCH: clean-network totals moved "
                 "(observability overhead?)\n";
    verified = false;
  }
  std::cout << "golden network: "
            << (golden_ok ? "totals identical" : "TOTALS MOVED") << "\n";

  std::ofstream out(flags.get_string("out"));
  out << "{\n"
      << "  \"bench\": \"perf_routing\",\n"
      << "  \"config\": {\n"
      << "    \"dtd\": \"" << flags.get_string("dtd") << "\",\n"
      << "    \"subscriptions\": " << set.xpes.size() << ",\n"
      << "    \"advertisements\": " << derived.advertisements.size() << ",\n"
      << "    \"publication_paths\": " << paths.size() << ",\n"
      << "    \"hops\": " << hops << ",\n"
      << "    \"cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"cpu_model\": \"" << cpu_model() << "\",\n"
      << "    \"git_rev\": \"" << flags.get_string("git-rev") << "\",\n"
      << "    \"seed\": " << flags.get_int64("seed") << "\n"
      << "  },\n"
      << "  \"subscription_forward\": {\n";
  emit(out, srt_metric);
  out << "  },\n"
      << "  \"publication_match\": {\n";
  emit(out, prt_metric);
  out << "  },\n"
      << "  \"covering_tree_match\": {\n";
  emit(out, tree_metric);
  out << "  },\n"
      << "  \"load\": {\n"
      << "    \"reference_subscriptions\": "
      << (load.empty() ? 0 : load.front().subscriptions) << ",\n"
      << "    \"identical_to_reference\": " << (load_same ? "true" : "false")
      << ",\n"
      << "    \"points\": [";
  for (std::size_t k = 0; k < load.size(); ++k) {
    const LoadPoint& p = load[k];
    const double n = static_cast<double>(p.subscriptions);
    out << (k ? ",\n" : "\n") << "      {\"subscriptions\": " << p.subscriptions
        << ", \"seconds\": " << p.seconds
        << ", \"us_per_insert\": " << 1e6 * p.seconds / n
        << ", \"covering_tests\": " << p.covering_tests
        << ", \"covering_tests_per_insert\": "
        << static_cast<double>(p.covering_tests) / n
        << ", \"sweep_visits_per_insert\": "
        << static_cast<double>(p.sweep_visits) / n
        << ", \"covered\": " << p.covered << "}";
  }
  out << "\n    ]\n  },\n"
      << "  \"golden_network\": " << (golden_ok ? "true" : "false") << ",\n";
  emit_metrics_snapshot(out, golden_sim.stats().registry(), "metrics");
  out << ",\n"
      << "  \"verified_identical\": " << (verified ? "true" : "false") << "\n"
      << "}\n";
  std::cout << (verified ? "results verified identical\n"
                         : "VERIFICATION FAILED\n")
            << "wrote " << flags.get_string("out") << "\n";
  return verified ? 0 : 1;
}

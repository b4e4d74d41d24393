// Parallel matching engine thread sweep (PR 5 acceptance bench).
//
// One broker, 10k subscriptions from the news-DTD covering set, and a
// stream of publications sampled from the same DTD's path universe,
// matched through Broker::handle_batch at 1/2/4/8 match workers. Before
// any timing, every thread count's forward output is verified identical
// to the sequential broker's on a probe set — the determinism contract —
// and the run aborts on a mismatch.
//
// Two speedup figures land in BENCH_parallel.json, and the honest one is
// chosen by the machine:
//
//  * measured — wall-clock pubs/sec ratio. Meaningful only when the
//    machine has a core for every worker (cores >= workers); on a
//    core-starved box the workers time-slice the cores and wall clock
//    measures the scheduler's context-switching, not the engine.
//  * projected — per-thread CPU time (CLOCK_THREAD_CPUTIME_ID, immune to
//    preemption): control-thread CPU per publication plus an even split
//    of the workers' total match CPU. This is the epoch critical path an
//    unloaded machine would see; it excludes thread wake latency (which
//    spin-then-park hides under batch load) and assumes the per-
//    publication tasks balance, which batch sizes >> workers give.
//
// "speedup_basis" in the JSON says which figure "speedup_at_4_workers"
// reports; "cores" records the machine so a reader can judge.
#include <time.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include <algorithm>

#include "dtd/universe.hpp"
#include "machine.hpp"
#include "metrics_snapshot.hpp"
#include "obs/metrics.hpp"
#include "router/broker.hpp"
#include "router/match_scheduler.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/symbols.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/set_builder.hpp"
#include "workload/xml_gen.hpp"
#include "xml/parser.hpp"
#include "xml/stream_parser.hpp"

using namespace xroute;

namespace {

using Clock = std::chrono::steady_clock;

/// Forwards go nowhere: the bench times matching + forward-order merge,
/// not serialisation.
struct DiscardSink : ForwardSink {
  void on_event(const DeliveryEvent&) override {}
};

std::uint64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

constexpr int kPublisherIface = 0;

Broker make_broker(std::size_t threads, const CoverSet& set, int hops) {
  BrokerOptions config;
  config.use_advertisements = false;
  config.match_threads = threads;
  Broker broker(0, config);
  for (int h = 0; h <= hops; ++h) broker.add_neighbor(IfaceId{h});
  // restore_subscription: table state without control-message churn (the
  // bench measures the data plane, not subscription flooding).
  for (std::size_t i = 0; i < set.xpes.size(); ++i) {
    broker.restore_subscription(
        set.xpes[i], IfaceSet{IfaceId{1 + static_cast<int>(i) % hops}});
  }
  return broker;
}

struct SweepPoint {
  std::size_t threads = 0;
  double pubs_per_sec = 0.0;
  double ctl_cpu_ns_per_pub = 0.0;
  double worker_busy_ns_per_pub = 0.0;
  double critical_path_ns_per_pub = 0.0;
  double projected_speedup = 1.0;
  std::uint64_t epochs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::vector<MatchScheduler::WorkerStats> workers;
};

/// Per-publication CPU cost of each pipeline stage, measured in isolation
/// over the same document stream (one thread; a "pub" is one path, as on
/// the wire). parse covers wire bytes -> paths; parse_tree is the DOM
/// reference pipeline's figure for the same documents — the streaming
/// tentpole's before/after pair.
struct StageBreakdown {
  std::size_t docs = 0;
  std::size_t paths = 0;
  double parse_ns = 0.0;
  double parse_tree_ns = 0.0;
  double intern_ns = 0.0;
  double match_ns = 0.0;
  double merge_ns = 0.0;
};

/// Repeats `body` (one full pass over the corpus) until it has consumed
/// `min_ns` of thread CPU; returns CPU ns per pass.
template <typename F>
double timed_passes(double min_ns, F&& body) {
  std::uint64_t start = thread_cpu_ns();
  std::size_t passes = 0;
  std::uint64_t spent = 0;
  do {
    body();
    ++passes;
    spent = thread_cpu_ns() - start;
  } while (static_cast<double>(spent) < min_ns);
  return static_cast<double>(spent) / static_cast<double>(passes);
}

StageBreakdown measure_stages(const Dtd& dtd, const CoverSet& set, int hops,
                              std::uint64_t seed, double min_seconds) {
  // A fresh PRT mirroring the sweep broker's table, its compiled index
  // matched directly so each stage can be timed without the scheduler
  // around it.
  Prt prt(/*covering=*/true);
  for (std::size_t i = 0; i < set.xpes.size(); ++i) {
    prt.insert(set.xpes[i], IfaceId{1 + static_cast<int>(i) % hops});
  }
  const std::shared_ptr<const PrtIndex> index = prt.index();

  Rng rng(static_cast<std::uint64_t>(seed) + 7);
  StageBreakdown stages;
  stages.docs = 64;
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < stages.docs; ++i) {
    texts.push_back(generate_document(dtd, rng).serialize());
  }

  const double min_ns = min_seconds * 1e9 / 4.0;
  StreamPathExtractor extractor;

  // parse: streaming — bytes to paths (interning happens inline here, so
  // this stage subsumes symbol resolution; intern below prices the
  // per-match re-intern the tree pipeline pays instead).
  double parse_pass = timed_passes(min_ns, [&] {
    stages.paths = 0;
    for (const std::string& text : texts) {
      extractor.extract(text);
      stages.paths += extractor.paths().size();
    }
  });
  stages.parse_ns = parse_pass / static_cast<double>(stages.paths);

  // parse_tree: the DOM reference pipeline over the same bytes.
  double tree_pass = timed_passes(min_ns, [&] {
    for (const std::string& text : texts) {
      std::vector<Path> paths = extract_paths(parse_xml(text));
      (void)paths;
    }
  });
  stages.parse_tree_ns = tree_pass / static_cast<double>(stages.paths);

  // Materialised corpus for the downstream stages.
  std::vector<Path> corpus;
  for (const std::string& text : texts) {
    std::vector<Path> paths = stream_extract_paths(text);
    corpus.insert(corpus.end(), paths.begin(), paths.end());
  }

  // intern: path -> symbol ids (the scheduler's per-pub staging cost).
  std::vector<std::uint32_t> storage;
  double intern_pass = timed_passes(min_ns, [&] {
    for (const Path& p : corpus) {
      PathView view = intern_path(p, storage);
      (void)view;
    }
  });
  stages.intern_ns = intern_pass / static_cast<double>(corpus.size());

  // match: the match kernel over the whole compiled index per interned
  // path (the routine sequential brokers run inline and batch workers run
  // per publication), hop merge excluded.
  std::vector<InternedPath> interned(corpus.begin(), corpus.end());
  std::vector<std::vector<std::uint32_t>> distinct(interned.size());
  for (std::size_t i = 0; i < interned.size(); ++i) {
    PrtIndex::distinct_symbols(interned[i].view(), &distinct[i]);
  }
  PrtMatch cell;
  double match_pass = timed_passes(min_ns, [&] {
    for (std::size_t i = 0; i < interned.size(); ++i) {
      cell.clear();
      index->scan(interned[i].view(), distinct[i], &cell);
    }
  });
  stages.match_ns = match_pass / static_cast<double>(interned.size());

  // merge: canonicalising the per-pub hop list (sort + unique).
  std::vector<std::vector<IfaceId>> raw_hops(interned.size());
  for (std::size_t i = 0; i < interned.size(); ++i) {
    cell.clear();
    index->scan(interned[i].view(), distinct[i], &cell);
    raw_hops[i] = cell.hops;
  }
  std::vector<IfaceId> scratch;
  double merge_pass = timed_passes(min_ns, [&] {
    for (const auto& hops_list : raw_hops) {
      scratch.assign(hops_list.begin(), hops_list.end());
      PrtIndex::canonicalize_hops(&scratch);
    }
  });
  stages.merge_ns = merge_pass / static_cast<double>(interned.size());
  return stages;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("Parallel matching engine thread sweep (1/2/4/8 workers)");
  flags.define("subs", "10000", "subscription count (PRT size)");
  flags.define("pubs", "512", "publication paths per timed batch");
  flags.define("batch", "256", "publications per handle_batch call");
  flags.define("hops", "64", "distinct last-hop interfaces");
  flags.define("seed", "1", "workload seed");
  flags.define("rate", "0.9", "target covering rate of the subscription set");
  flags.define("min-seconds", "1.0", "minimum timed duration per point");
  flags.define("out", "BENCH_parallel.json", "output file");
  flags.define("git-rev", "unknown", "source revision, recorded in the config");
  if (!flags.parse(argc, argv)) return 0;

  const int hops = static_cast<int>(flags.get_int("hops"));
  const std::size_t batch = flags.get_int("batch");
  const double min_seconds = flags.get_double("min-seconds");
  const unsigned cores = std::thread::hardware_concurrency();

  Dtd dtd = corpus_dtd("news");
  CoverSetOptions set_opts;
  set_opts.count = flags.get_int("subs");
  set_opts.target_rate = flags.get_double("rate");
  set_opts.seed = flags.get_int64("seed");
  CoverSet set = build_covering_set(dtd, set_opts);
  std::cout << set.xpes.size() << " subscriptions (covering rate "
            << set.constructed_rate << "), " << cores << " core(s)\n";

  Rng rng(flags.get_int64("seed"));
  PathUniverse universe(dtd);
  const std::size_t pubs = flags.get_int("pubs");
  std::vector<Path> paths;
  for (std::size_t i = 0; i < pubs; ++i) {
    paths.push_back(rng.pick(universe.paths()));
  }
  if (set.xpes.empty() || paths.empty()) {
    std::cerr << "empty workload\n";
    return 1;
  }

  const std::size_t kThreadCounts[] = {1, 2, 4, 8};
  bool verified = true;

  // ---- Determinism check: identical forwards at every thread count ----
  std::vector<std::vector<Broker::Forward>> reference;
  for (std::size_t threads : kThreadCounts) {
    Broker broker = make_broker(threads, set, hops);
    std::vector<std::vector<Broker::Forward>> forwards;
    std::uint64_t doc_id = 1;
    for (const Path& path : paths) {
      PublishMsg msg;
      msg.path = path;
      msg.doc_id = doc_id++;
      forwards.push_back(
          broker.handle(IfaceId{kPublisherIface}, Message{msg}).forwards);
    }
    if (threads == 1) {
      reference = std::move(forwards);
      continue;
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      bool same = forwards[i].size() == reference[i].size();
      for (std::size_t f = 0; same && f < forwards[i].size(); ++f) {
        same = forwards[i][f].interface == reference[i][f].interface;
      }
      if (!same) {
        std::cerr << "MISMATCH: " << threads << " threads, publication " << i
                  << " (" << paths[i].to_string() << ")\n";
        verified = false;
      }
    }
  }

  // ---- Thread sweep ---------------------------------------------------
  std::vector<SweepPoint> sweep;
  MetricsRegistry registry;
  for (std::size_t threads : kThreadCounts) {
    Broker broker = make_broker(threads, set, hops);
    DiscardSink sink;
    std::uint64_t doc_id = 1000000;  // disjoint from the verification ids

    // Pre-built message storage, re-stamped with fresh doc ids each pass
    // (the broker deduplicates (doc, path) repeats).
    std::vector<Message> messages;
    for (const Path& path : paths) {
      PublishMsg msg;
      msg.path = path;
      messages.emplace_back(msg);
    }

    std::uint64_t busy_before = 0, crit_before = 0;
    if (const MatchScheduler* scheduler = broker.scheduler()) {
      for (const auto& w : scheduler->worker_stats()) busy_before += w.busy_ns;
      crit_before = scheduler->critical_path_ns();
    }
    std::size_t reps = 0;
    double elapsed = 0.0;
    std::vector<Broker::Inbound> inbound;
    inbound.reserve(batch);
    const std::uint64_t cpu_start = thread_cpu_ns();
    auto start = Clock::now();
    do {
      for (Message& m : messages) {
        std::get<PublishMsg>(m.payload).doc_id = doc_id++;
      }
      for (std::size_t begin = 0; begin < messages.size(); begin += batch) {
        inbound.clear();
        std::size_t end = std::min(begin + batch, messages.size());
        for (std::size_t i = begin; i < end; ++i) {
          inbound.push_back(
              Broker::Inbound{IfaceId{kPublisherIface}, &messages[i]});
        }
        broker.handle_batch(inbound, sink);
      }
      ++reps;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < min_seconds);
    const double ctl_cpu_ns = static_cast<double>(thread_cpu_ns() - cpu_start);
    const double total_pubs = static_cast<double>(reps * paths.size());

    SweepPoint point;
    point.threads = threads;
    point.pubs_per_sec = total_pubs / elapsed;
    point.ctl_cpu_ns_per_pub = ctl_cpu_ns / total_pubs;
    if (const MatchScheduler* scheduler = broker.scheduler()) {
      point.epochs = scheduler->epochs();
      point.tasks = scheduler->total_tasks();
      point.steals = scheduler->total_steals();
      point.workers = scheduler->worker_stats();
      std::uint64_t busy_after = 0;
      for (const auto& w : point.workers) busy_after += w.busy_ns;
      point.worker_busy_ns_per_pub =
          static_cast<double>(busy_after - busy_before) / total_pubs;
      point.critical_path_ns_per_pub =
          static_cast<double>(scheduler->critical_path_ns() - crit_before) /
          total_pubs;
    }
    std::cout << threads << " worker(s): " << point.pubs_per_sec
              << " pubs/s (wall), " << point.ctl_cpu_ns_per_pub
              << " ns/pub control CPU, " << point.worker_busy_ns_per_pub
              << " ns/pub worker CPU\n";
    MetricLabels labels{{"threads", std::to_string(threads)}};
    registry.gauge("bench.pubs_per_sec", labels).set(point.pubs_per_sec);
    registry.gauge("bench.epochs", labels)
        .set(static_cast<double>(point.epochs));
    for (std::size_t w = 0; w < point.workers.size(); ++w) {
      MetricLabels worker_labels{{"threads", std::to_string(threads)},
                                 {"worker", std::to_string(w)}};
      registry.gauge("match.worker_tasks", worker_labels)
          .set(static_cast<double>(point.workers[w].tasks));
      registry.gauge("match.worker_busy_ms", worker_labels)
          .set(static_cast<double>(point.workers[w].busy_ns) / 1e6);
    }
    sweep.push_back(std::move(point));
  }

  // ---- Speedups: measured wall clock + CPU-time projection ------------
  // Sequential cost per publication, as CPU time so the comparison with
  // the projection is like for like (on an idle machine the two agree).
  const double seq_ns_per_pub = sweep.front().ctl_cpu_ns_per_pub;
  for (SweepPoint& point : sweep) {
    if (point.threads == 1) continue;
    const double projected_ns =
        point.ctl_cpu_ns_per_pub +
        point.worker_busy_ns_per_pub / static_cast<double>(point.threads);
    point.projected_speedup = seq_ns_per_pub / projected_ns;
  }
  const double base = sweep.front().pubs_per_sec;
  double measured_at_4 = 0.0, projected_at_4 = 0.0;
  for (const SweepPoint& point : sweep) {
    if (point.threads == 4) {
      measured_at_4 = point.pubs_per_sec / base;
      projected_at_4 = point.projected_speedup;
    }
  }
  // Wall clock needs a core for each of the 4 workers; otherwise the
  // machine is cores-limited: the headline follows speedup_basis to the
  // CPU-time projection and the JSON says so.
  const bool cores_limited = cores < 4;
  const char* speedup_basis =
      cores_limited ? "critical_path_projection" : "wall_clock";
  const double speedup_at_4 = cores_limited ? projected_at_4 : measured_at_4;
  std::cout << "speedup at 4 workers: " << speedup_at_4 << "x ("
            << (cores_limited ? "critical-path projection; machine has too "
                                "few cores for a wall-clock measurement"
                              : "wall clock")
            << ")\n";

  // ---- Pipeline stage breakdown ---------------------------------------
  StageBreakdown stages = measure_stages(dtd, set, hops,
                                         flags.get_int64("seed"), min_seconds);
  std::cout << "stage ns/pub: parse " << stages.parse_ns << " (tree "
            << stages.parse_tree_ns << "), intern " << stages.intern_ns
            << ", match " << stages.match_ns << ", merge " << stages.merge_ns
            << "\n";
  registry.gauge("bench.stage_ns_per_pub", {{"stage", "parse"}})
      .set(stages.parse_ns);
  registry.gauge("bench.stage_ns_per_pub", {{"stage", "parse_tree"}})
      .set(stages.parse_tree_ns);
  registry.gauge("bench.stage_ns_per_pub", {{"stage", "intern"}})
      .set(stages.intern_ns);
  registry.gauge("bench.stage_ns_per_pub", {{"stage", "match"}})
      .set(stages.match_ns);
  registry.gauge("bench.stage_ns_per_pub", {{"stage", "merge"}})
      .set(stages.merge_ns);

  std::ofstream out(flags.get_string("out"));
  out << "{\n"
      << "  \"bench\": \"parallel_match\",\n"
      << "  \"config\": {\n"
      << "    \"subscriptions\": " << set.xpes.size() << ",\n"
      << "    \"publication_paths\": " << paths.size() << ",\n"
      << "    \"batch\": " << batch << ",\n"
      << "    \"hops\": " << hops << ",\n"
      << "    \"seed\": " << flags.get_int64("seed") << ",\n"
      << "    \"cores\": " << cores << ",\n"
      << "    \"cpu_model\": \"" << cpu_model() << "\",\n"
      << "    \"git_rev\": \"" << flags.get_string("git-rev") << "\"\n"
      << "  },\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& point = sweep[i];
    out << "    {\"threads\": " << point.threads << ", \"pubs_per_sec\": "
        << point.pubs_per_sec << ", \"speedup_measured\": "
        << point.pubs_per_sec / base << ", \"speedup_projected\": "
        << point.projected_speedup << ", \"ctl_cpu_ns_per_pub\": "
        << point.ctl_cpu_ns_per_pub << ", \"worker_busy_ns_per_pub\": "
        << point.worker_busy_ns_per_pub << ", \"critical_path_ns_per_pub\": "
        << point.critical_path_ns_per_pub << ", \"epochs\": " << point.epochs
        << ", \"tasks\": " << point.tasks << ", \"steals\": " << point.steals
        << "}" << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ],\n"
      << "  \"stage_breakdown\": {\n"
      << "    \"docs\": " << stages.docs << ",\n"
      << "    \"paths\": " << stages.paths << ",\n"
      << "    \"parse_ns_per_pub\": " << stages.parse_ns << ",\n"
      << "    \"parse_tree_ns_per_pub\": " << stages.parse_tree_ns << ",\n"
      << "    \"intern_ns_per_pub\": " << stages.intern_ns << ",\n"
      << "    \"match_ns_per_pub\": " << stages.match_ns << ",\n"
      << "    \"merge_ns_per_pub\": " << stages.merge_ns << "\n"
      << "  },\n"
      << "  \"speedup_at_4_workers\": " << speedup_at_4 << ",\n"
      << "  \"speedup_at_4_workers_measured\": " << measured_at_4 << ",\n"
      << "  \"speedup_at_4_workers_projected\": " << projected_at_4 << ",\n"
      << "  \"speedup_basis\": \"" << speedup_basis << "\",\n"
      << "  \"cores_limited\": " << (cores_limited ? "true" : "false")
      << ",\n";
  emit_metrics_snapshot(out, registry, "metrics");
  out << ",\n"
      << "  \"verified_identical\": " << (verified ? "true" : "false") << "\n"
      << "}\n";
  std::cout << (verified ? "results verified identical\n"
                         : "VERIFICATION FAILED\n")
            << "wrote " << flags.get_string("out") << "\n";
  return verified ? 0 : 1;
}

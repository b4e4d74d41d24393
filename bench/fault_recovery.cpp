// Fault-tolerant dissemination: reliability overhead and crash recovery.
//
// Two questions (DESIGN.md §7):
//
//   1. What does the reliable transport cost as links degrade? Sweeps the
//      drop rate over {0, 1%, 5%, 10%, 20%} (plus duplication/reordering)
//      and records retransmissions, ack traffic and end-to-end delivery
//      equality against a fault-free reference run.
//   2. How fast does a crashed broker come back? Compares the two
//      recovery paths — neighbour resync handshake vs snapshot restore —
//      by handshake duration and by time until the network requiesces.
//
// Every run asserts delivery equality: each subscriber's notification set
// must be identical to the fault-free reference, with zero duplicates.
// --soak-seeds N adds a seeded matrix (N seeds x {1% loss, 10% loss,
// crash+resync, crash+snapshot}) and the process exits non-zero if any
// cell fails — the CI fault-matrix job runs exactly this.
//
// Results land in BENCH_fault.json.
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics_snapshot.hpp"
#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "router/snapshot.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

using namespace xroute;

namespace {

enum class Recovery { kNone, kResync, kSnapshot };

const char* to_string(Recovery r) {
  switch (r) {
    case Recovery::kNone: return "none";
    case Recovery::kResync: return "resync";
    case Recovery::kSnapshot: return "snapshot";
  }
  return "?";
}

struct Scenario {
  double drop = 0.0;
  double dup = 0.0;
  double reorder = 0.0;
  Recovery recovery = Recovery::kNone;
  std::uint64_t seed = 1;
  std::size_t documents = 60;
};

struct Outcome {
  std::vector<std::set<std::uint64_t>> delivered;
  std::size_t notifications = 0;
  std::size_t duplicates = 0;
  std::size_t frames_dropped = 0;
  std::size_t retransmits = 0;
  std::size_t retransmit_failures = 0;
  std::size_t acks = 0;
  std::size_t ack_bytes = 0;
  std::size_t broker_bytes = 0;
  double resync_ms = 0.0;    ///< handshake duration (resync runs)
  double recovery_ms = 0.0;  ///< crash -> network requiesced
};

/// One experiment: 7-broker tree, subscribers at the leaves, publisher at
/// the root; half the documents, a crash/recovery at a quiescent point,
/// the other half. `faulted=false` gives the clean reference (no faults,
/// no crash) the notification sets are compared against. When
/// `metrics_json` is given, the run's full metrics-registry dump is
/// captured into it (the simulator dies with this scope).
Outcome run_scenario(const Scenario& s, bool faulted,
                     std::string* metrics_json = nullptr) {
  Simulator sim(Simulator::Options{0.0});
  Topology topology = complete_binary_tree(3);
  BrokerOptions config;
  config.use_advertisements = false;
  for (std::size_t i = 0; i < topology.num_brokers; ++i) sim.add_broker(config);
  for (auto [a, b] : topology.edges) sim.connect(a, b, LinkConfig{});

  const char* xpes[] = {"/a", "/a/b", "//c", "/d//e"};
  std::vector<int> subscribers;
  std::vector<int> leaves = topology.leaf_brokers();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    int client = sim.attach_client(leaves[i]);
    sim.subscribe(client, parse_xpe(xpes[i % 4]));
    subscribers.push_back(client);
  }
  int publisher = sim.attach_client(0);

  if (faulted) {
    FaultProfile profile;
    profile.drop_prob = s.drop;
    profile.dup_prob = s.dup;
    profile.reorder_prob = s.reorder;
    profile.reorder_jitter_ms = 4.0;
    sim.enable_fault_injection(s.seed);
    sim.set_default_link_faults(profile);
  }
  sim.run();

  const char* paths[] = {"/a/b", "/a/b/c", "/d/x/e", "/q", "/a"};
  auto publish_batch = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      sim.publish_paths(publisher, {parse_path(paths[i % 5])}, 200);
    }
    sim.run();
  };

  publish_batch(s.documents / 2);

  Outcome outcome;
  if (faulted && s.recovery != Recovery::kNone) {
    Rng pick(s.seed);
    int victim = static_cast<int>(pick.index(topology.num_brokers));
    double crashed_at = sim.now();
    if (s.recovery == Recovery::kResync) {
      sim.restart_broker(victim, "", /*resync=*/true);
    } else {
      sim.restart_broker(victim, snapshot_to_string(sim.broker(victim)));
    }
    Simulator::QuiesceReport report = sim.run_until_quiescent();
    // Snapshot restore needs no network traffic at all, in which case
    // last_activity still points before the crash: recovery was free.
    outcome.recovery_ms =
        report.last_activity > crashed_at ? report.last_activity - crashed_at
                                          : 0.0;
    if (!sim.stats().resync_durations_ms().empty()) {
      outcome.resync_ms = sim.stats().resync_durations_ms().front();
    }
  }

  publish_batch(s.documents - s.documents / 2);

  for (int client : subscribers) {
    outcome.delivered.push_back(sim.delivered_docs(client));
  }
  outcome.notifications = sim.stats().notifications();
  outcome.duplicates = sim.stats().duplicate_notifications();
  outcome.frames_dropped = sim.stats().frames_dropped();
  outcome.retransmits = sim.stats().retransmits();
  outcome.retransmit_failures = sim.stats().retransmit_failures();
  outcome.acks = sim.stats().acks_sent();
  outcome.ack_bytes = sim.stats().ack_bytes();
  outcome.broker_bytes = sim.stats().total_broker_bytes();
  if (metrics_json) {
    std::ostringstream dump;
    sim.stats().registry().write_json(dump);
    *metrics_json = dump.str();
  }
  return outcome;
}

struct Row {
  Scenario scenario;
  Outcome outcome;
  bool equal = false;
};

Row run_row(const Scenario& s, std::string* metrics_json = nullptr) {
  Row row;
  row.scenario = s;
  Outcome reference = run_scenario(s, /*faulted=*/false);
  row.outcome = run_scenario(s, /*faulted=*/true, metrics_json);
  row.equal = reference.delivered == row.outcome.delivered &&
              row.outcome.duplicates == 0;
  return row;
}

void emit_row(std::ostream& out, const Row& row, bool last) {
  const Scenario& s = row.scenario;
  const Outcome& o = row.outcome;
  out << "    {\"drop\": " << s.drop << ", \"dup\": " << s.dup
      << ", \"reorder\": " << s.reorder << ", \"recovery\": \""
      << to_string(s.recovery) << "\", \"seed\": " << s.seed
      << ", \"notifications\": " << o.notifications
      << ", \"duplicates\": " << o.duplicates
      << ", \"frames_dropped\": " << o.frames_dropped
      << ", \"retransmits\": " << o.retransmits
      << ", \"retransmit_failures\": " << o.retransmit_failures
      << ", \"acks\": " << o.acks << ", \"ack_bytes\": " << o.ack_bytes
      << ", \"broker_bytes\": " << o.broker_bytes
      << ", \"resync_ms\": " << o.resync_ms
      << ", \"recovery_ms\": " << o.recovery_ms
      << ", \"delivery_equal\": " << (row.equal ? "true" : "false") << "}"
      << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("Reliable-transport overhead and crash-recovery latency");
  flags.define("documents", "60", "documents published per run");
  flags.define("seed", "1", "base seed for the sweep");
  flags.define("soak-seeds", "0",
               "extra seeded soak matrix: N seeds x {1% loss, 10% loss, "
               "crash+resync, crash+snapshot}; non-zero exit on any failure");
  flags.define("out", "BENCH_fault.json", "output file");
  if (!flags.parse(argc, argv)) return 0;

  const std::size_t documents = flags.get_int("documents");
  const std::uint64_t seed = flags.get_int64("seed");
  const std::size_t soak_seeds = flags.get_int("soak-seeds");
  bool all_equal = true;

  // ---- Drop-rate sweep (reliability overhead) -------------------------
  std::vector<Row> sweep;
  for (double drop : {0.0, 0.01, 0.05, 0.10, 0.20}) {
    Scenario s;
    s.drop = drop;
    s.dup = 0.02;
    s.reorder = 0.05;
    s.seed = seed;
    s.documents = documents;
    Row row = run_row(s);
    all_equal = all_equal && row.equal;
    std::cout << "drop " << drop << ": retransmits "
              << row.outcome.retransmits << ", acks " << row.outcome.acks
              << ", delivery " << (row.equal ? "EQUAL" : "MISMATCH") << "\n";
    sweep.push_back(row);
  }

  // ---- Recovery comparison (resync vs snapshot) -----------------------
  // The resync run's full metrics snapshot (retransmit/crash counters,
  // resync-duration histogram, per-broker series) is embedded in the
  // output JSON — it is the most instrumented cell of the bench.
  std::vector<Row> recovery;
  std::string metrics_json;
  for (Recovery mode : {Recovery::kResync, Recovery::kSnapshot}) {
    Scenario s;
    s.drop = 0.05;
    s.dup = 0.02;
    s.reorder = 0.05;
    s.recovery = mode;
    s.seed = seed;
    s.documents = documents;
    Row row = run_row(s, mode == Recovery::kResync ? &metrics_json : nullptr);
    all_equal = all_equal && row.equal;
    std::cout << "recovery " << to_string(mode) << ": handshake "
              << row.outcome.resync_ms << " ms, requiesced after "
              << row.outcome.recovery_ms << " ms, delivery "
              << (row.equal ? "EQUAL" : "MISMATCH") << "\n";
    recovery.push_back(row);
  }

  // ---- Seeded soak matrix (CI) ----------------------------------------
  std::vector<Row> soak;
  for (std::size_t i = 0; i < soak_seeds; ++i) {
    for (int cell = 0; cell < 4; ++cell) {
      Scenario s;
      s.seed = seed + 100 + i;
      s.documents = documents;
      switch (cell) {
        case 0: s.drop = 0.01; break;
        case 1: s.drop = 0.10; break;
        case 2: s.drop = 0.05; s.recovery = Recovery::kResync; break;
        case 3: s.drop = 0.05; s.recovery = Recovery::kSnapshot; break;
      }
      Row row = run_row(s);
      all_equal = all_equal && row.equal;
      if (!row.equal) {
        std::cerr << "SOAK MISMATCH: seed " << s.seed << " drop " << s.drop
                  << " recovery " << to_string(s.recovery) << "\n";
      }
      soak.push_back(row);
    }
  }

  std::ofstream out(flags.get_string("out"));
  out << "{\n"
      << "  \"bench\": \"fault_recovery\",\n"
      << "  \"config\": {\"topology\": \"tree7\", \"documents\": " << documents
      << ", \"seed\": " << seed << ", \"soak_seeds\": " << soak_seeds
      << "},\n"
      << "  \"drop_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    emit_row(out, sweep[i], i + 1 == sweep.size());
  }
  out << "  ],\n  \"recovery\": [\n";
  for (std::size_t i = 0; i < recovery.size(); ++i) {
    emit_row(out, recovery[i], i + 1 == recovery.size());
  }
  out << "  ],\n  \"soak\": [\n";
  for (std::size_t i = 0; i < soak.size(); ++i) {
    emit_row(out, soak[i], i + 1 == soak.size());
  }
  out << "  ],\n";
  emit_metrics_snapshot(out, metrics_json, "metrics");
  out << ",\n"
      << "  \"all_delivery_equal\": " << (all_equal ? "true" : "false")
      << "\n}\n";

  std::cout << (all_equal ? "all runs delivery-equal\n"
                          : "DELIVERY MISMATCH\n")
            << "wrote " << flags.get_string("out") << "\n";
  return all_equal ? 0 : 1;
}

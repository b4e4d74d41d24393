// Trace-oracle differential test.
//
// Runs a seeded matrix of topologies × fault profiles with the causal
// tracer on, then uses the trace as an independent witness of what the
// network did:
//
//   * every publication's delivery set, reconstructed purely from deliver
//     spans, must equal the simulator's own delivery records;
//   * span counts must equal the NetworkStats totals (broker messages and
//     bytes, notifications, duplicates, retransmissions);
//   * every span tree must be well-formed: unique ids, exactly one root
//     per trace (the inject span), parents recorded before children in
//     the same trace, and monotone timestamps.
//
// The invariants hold on every cell — clean, lossy, or crashing — because
// the tracer observes the same events the stats counters do; any drift
// between the two is a bug in one of them.
#include <gtest/gtest.h>

#include "obs/trace.hpp"

#if XROUTE_TRACING_ENABLED

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

struct TraceCase {
  std::string name;
  std::string plan;  ///< fault-plan text (net/fault.hpp); empty = clean run
};

std::string case_name(const testing::TestParamInfo<TraceCase>& info) {
  return info.param.name;
}

/// Without this gtest prints a TraceCase as its raw bytes, which include
/// the strings' heap pointers, so the listed test names (and the CTest
/// names discovered from them) would change from one run to the next.
void PrintTo(const TraceCase& c, std::ostream* os) { *os << c.name; }

class TraceOracle : public testing::TestWithParam<TraceCase> {};

/// The faultsim workload (tools/xroutectl) with tracing on: subscribers
/// scattered over the overlay, one publisher, `documents` two-path
/// publications so duplicate-suppression paths are exercised too.
void run_workload(Simulator& sim, const FaultPlan& plan, bool faulted,
                  std::vector<int>* subscribers) {
  Rng rng(plan.seed);
  Topology topology;
  if (plan.topology == "tree") {
    topology = complete_binary_tree(plan.topology_size);
  } else if (plan.topology == "chain") {
    topology = chain(plan.topology_size);
  } else if (plan.topology == "star") {
    topology = star(plan.topology_size);
  } else {
    topology = random_connected(plan.topology_size, 0, rng);
  }

  BrokerOptions config;
  config.use_advertisements = false;
  for (std::size_t i = 0; i < topology.num_brokers; ++i) sim.add_broker(config);
  for (auto [a, b] : topology.edges) sim.connect(a, b, LinkConfig{});
  if (faulted) sim.apply_fault_plan(plan);
  sim.enable_tracing();

  const char* xpes[] = {"/a", "/a/b", "//c", "/d//e", "/a//c"};
  for (std::size_t i = 0; i < plan.subscribers; ++i) {
    int client =
        sim.attach_client(static_cast<int>(rng.index(topology.num_brokers)));
    sim.subscribe(client, parse_xpe(xpes[i % 5]));
    subscribers->push_back(client);
  }
  int publisher =
      sim.attach_client(static_cast<int>(rng.index(topology.num_brokers)));
  sim.run_limited(100000);

  const char* paths[] = {"/a/b", "/a/b/c", "/d/x/e", "/q", "/a"};
  for (std::size_t i = 0; i < plan.documents; ++i) {
    // Two paths per document: the second matching path at a client is a
    // suppressed duplicate, which the deliver spans must flag.
    sim.publish_paths(
        publisher, {parse_path(paths[i % 5]), parse_path(paths[(i + 1) % 5])},
        200);
  }
  ASSERT_TRUE(sim.run_until_quiescent(1000000).quiesced);
}

void verify_span_counts(const Simulator& sim) {
  const NetworkStats& stats = sim.stats();
  std::size_t broker_spans = 0;
  std::uint64_t broker_bytes = 0;
  std::size_t deliveries = 0;
  std::size_t duplicates = 0;
  std::size_t retransmit_spans = 0;
  for (const Span& span : sim.tracer()->spans()) {
    switch (span.kind) {
      case SpanKind::kBroker:
        ++broker_spans;
        broker_bytes += span.bytes;
        break;
      case SpanKind::kDeliver:
        span.duplicate ? ++duplicates : ++deliveries;
        break;
      default:
        break;
    }
    if (span.retransmit) ++retransmit_spans;
  }
  EXPECT_EQ(broker_spans, stats.total_broker_messages());
  EXPECT_EQ(broker_bytes, stats.total_broker_bytes());
  EXPECT_EQ(deliveries, stats.notifications());
  EXPECT_EQ(duplicates, stats.duplicate_notifications());
  EXPECT_EQ(retransmit_spans, stats.retransmits());
}

void verify_delivery_reconstruction(const Simulator& sim,
                                    const std::vector<int>& subscribers) {
  // Rebuild each client's delivery set purely from the trace...
  std::map<int, std::set<std::uint64_t>> from_trace;
  for (const Span& span : sim.tracer()->spans()) {
    if (span.kind != SpanKind::kDeliver || span.duplicate) continue;
    from_trace[span.client].insert(span.doc_id);
  }
  // ...and hold it against the simulator's own records.
  for (int client : subscribers) {
    EXPECT_EQ(from_trace[client], sim.delivered_docs(client))
        << "client " << client << " trace/simulator delivery mismatch";
  }
  // No deliver span may name a client that is not a subscriber (the
  // publisher gets no deliveries in this workload).
  std::set<int> known(subscribers.begin(), subscribers.end());
  for (const auto& [client, docs] : from_trace) {
    EXPECT_TRUE(known.count(client)) << "stray deliver span, client "
                                     << client;
  }
}

void verify_well_formed(const Simulator& sim) {
  const std::vector<Span>& spans = sim.tracer()->spans();
  std::uint64_t traces = sim.tracer()->trace_count();
  // Record order doubles as causal order: map span id -> index.
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    EXPECT_TRUE(index_of.emplace(span.id, i).second)
        << "duplicate span id " << span.id;
    ASSERT_GE(span.trace, 1u);
    ASSERT_LE(span.trace, traces);
    EXPECT_GE(span.end_ms, span.start_ms) << "span " << span.id;
  }
  std::map<std::uint64_t, std::size_t> roots_per_trace;
  for (const Span& span : spans) {
    if (span.parent == 0) {
      ++roots_per_trace[span.trace];
      EXPECT_EQ(span.kind, SpanKind::kInject)
          << "root of trace " << span.trace << " is not an inject span";
      continue;
    }
    auto parent_pos = index_of.find(span.parent);
    ASSERT_NE(parent_pos, index_of.end())
        << "span " << span.id << " has unknown parent " << span.parent;
    const Span& parent = spans[parent_pos->second];
    EXPECT_EQ(parent.trace, span.trace)
        << "span " << span.id << " crosses traces";
    EXPECT_LT(parent_pos->second, index_of[span.id])
        << "span " << span.id << " recorded before its parent";
    EXPECT_GE(span.start_ms, parent.start_ms - 1e-9)
        << "span " << span.id << " starts before its parent";
  }
  // Every trace that has spans has exactly one root.
  std::set<std::uint64_t> seen_traces;
  for (const Span& span : spans) seen_traces.insert(span.trace);
  for (std::uint64_t trace : seen_traces) {
    EXPECT_EQ(roots_per_trace[trace], 1u) << "trace " << trace;
  }
}

TEST_P(TraceOracle, ReconstructsTheRun) {
  FaultPlan plan;
  if (!GetParam().plan.empty()) plan = parse_fault_plan(GetParam().plan);
  Simulator sim(Simulator::Options{0.0});
  std::vector<int> subscribers;
  run_workload(sim, plan, /*faulted=*/!GetParam().plan.empty(), &subscribers);
  ASSERT_NE(sim.tracer(), nullptr);
  ASSERT_FALSE(sim.tracer()->spans().empty());
  verify_span_counts(sim);
  verify_delivery_reconstruction(sim, subscribers);
  verify_well_formed(sim);
}

std::vector<TraceCase> matrix() {
  struct Profile {
    const char* name;
    const char* directives;
  };
  // Fault profiles from benign to hostile; crash cells restart broker 1
  // mid-run (cold + resync handshake, and snapshot restore).
  const Profile profiles[] = {
      {"clean", ""},
      {"drop1", "drop 0.01\n"},
      {"messy", "drop 0.10\ndup 0.05\nreorder 0.10 2.0\n"},
      {"crash_resync", "drop 0.02\ncrash 1 6.0 resync\n"},
      {"crash_snapshot", "dup 0.05\ncrash 1 6.0 snapshot\n"},
  };
  const std::pair<const char*, const char*> topologies[] = {
      {"tree3", "topology tree 3\n"},
      {"chain5", "topology chain 5\n"},
      {"star6", "topology star 6\n"},
  };
  std::vector<TraceCase> cases;
  for (const auto& [topo_name, topo] : topologies) {
    for (const Profile& profile : profiles) {
      for (std::uint64_t seed : {1u, 7u}) {
        TraceCase c;
        c.name = std::string(topo_name) + "_" + profile.name + "_s" +
                 std::to_string(seed);
        c.plan = std::string(topo) + "subscribers 4\ndocuments 12\nseed " +
                 std::to_string(seed) + "\n" + profile.directives;
        cases.push_back(std::move(c));
      }
    }
  }
  // One genuinely clean cell without the reliable transport at all (the
  // direct-delivery code path records link spans too).
  cases.push_back(TraceCase{"tree3_direct", ""});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TraceOracle, testing::ValuesIn(matrix()),
                         case_name);

}  // namespace
}  // namespace xroute

#endif  // XROUTE_TRACING_ENABLED

// xroutectl — command-line front end to the xroute library.
//
// Library commands (in-process):
//
//   xroutectl parse '<xpe>'                  parse + echo an XPE
//   xroutectl covers '<xpe1>' '<xpe2>'       does xpe1 cover xpe2?
//   xroutectl derive <dtd-file> [root]       advertisements from a DTD
//   xroutectl match <xml-file> '<xpe>'...    which XPEs match the document
//   xroutectl paths <xml-file>               root-to-leaf paths of a document
//   xroutectl universe <dtd-file> [depth]    conforming paths of a DTD
//   xroutectl faultsim <plan-file>           run a fault plan, report
//                                            delivery equality + recovery
//   xroutectl trace <plan-file> [out.json]   run a fault plan with the causal
//                                            tracer on: span summary, trace-vs-
//                                            simulator delivery verdict, Chrome
//                                            trace file (--dump <id> prints one
//                                            trace as JSON)
//   xroutectl metrics <plan-file>            run a fault plan and dump the
//                                            metrics registry as JSON
//
// Network commands (real TCP, src/transport):
//
//   xroutectl serve <overlay-file> <id>      run one broker of the overlay
//                                            until SIGINT/SIGTERM; prints its
//                                            metrics JSON on shutdown
//                                            (--edge-port P hosts an edge
//                                            session layer beside the broker)
//   xroutectl connect <host> <port>          handshake with a broker and exit
//   xroutectl sub <host> <port> '<xpe>'...   subscribe, print deliveries
//                                            (--count N: exit after N docs)
//   xroutectl pub <host> <port> <xml>...     publish documents' paths
//   xroutectl swarm <host> <edge-port>       drive a leased client swarm
//                                            against an edge session layer
//
// Overlay file format (one declaration per line, '#' comments):
//
//   broker <id> <host> <port>
//   link <a> <b>
//   option <key> <value>      broker knob (router/broker_options.hpp),
//                             e.g. 'option threads 4', 'option covering off'
//
// Every broker of one overlay is served from the same file; the lower id
// of each link dials the higher, so a link is exactly one TCP connection.
// `serve --threads N` and `--option key=value` override the file's knobs;
// all three spellings run through the same BrokerOptions::parse_option() parser.
//
// Exit code: 0 on success (for `covers`: 0 = covers, 1 = does not; for
// `faultsim`: 0 = delivery equal to the fault-free reference, 1 = not; for
// `trace`: 0 = trace reconstruction matches the simulator, 1 = not; for
// `connect`: 0 = handshake completed, 1 = not). Usage errors — unknown
// command, missing arguments — print the usage text and exit 2.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adv/derive.hpp"
#include "broadcast/client.hpp"
#include "broadcast/scheduler.hpp"
#include "broadcast/sink.hpp"
#include "dtd/parser.hpp"
#include "edge/edge_server.hpp"
#include "edge/swarm.hpp"
#include "dtd/universe.hpp"
#include "match/covering.hpp"
#include "match/pub_match.hpp"
#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/export.hpp"
#include "router/broker_options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/workload.hpp"
#include "transport/broker_node.hpp"
#include "transport/client.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"
#include "xml/paths.hpp"
#include "xml/stream_parser.hpp"
#include "xpath/parser.hpp"

namespace {

using namespace xroute;

const char kUsage[] =
    "usage: xroutectl <command> [args]\n"
    "\n"
    "library commands:\n"
    "  parse '<xpe>'                 parse + echo an XPE\n"
    "  covers '<xpe1>' '<xpe2>'      does xpe1 cover xpe2?\n"
    "  derive <dtd-file> [root]      advertisements from a DTD\n"
    "  match <xml-file> '<xpe>'...   which XPEs match the document\n"
    "  paths <xml-file>              root-to-leaf paths of a document\n"
    "  universe <dtd-file> [depth]   conforming paths of a DTD\n"
    "  faultsim <plan-file>          fault plan -> delivery verdict\n"
    "  trace <plan-file> [out.json]  fault plan under the causal tracer\n"
    "  metrics <plan-file>           fault plan -> metrics JSON\n"
    "\n"
    "broadcast commands (file/loopback channel substrate):\n"
    "  broadcast serve --tape PREFIX [--channels K] [--cycle N] [--docs D]\n"
    "        [--seed S] [--zipf Z] [--xpe EXPR]... [--path P]...\n"
    "                                route a generated workload through a\n"
    "                                broker with a BroadcastSink and write\n"
    "                                each channel's air tape to PREFIX.ch<k>\n"
    "  broadcast tune --tape FILE... --xpe EXPR... [--start-frame N]\n"
    "                                replay tapes as a tuner: doze ratio,\n"
    "                                tuning/access bytes, matcher-oracle\n"
    "                                audit (exit 1 on any miss)\n"
    "\n"
    "network commands:\n"
    "  scenario run <file>... [--out FILE]\n"
    "                                chaos scenarios over live brokers;\n"
    "                                writes BENCH_scenarios.json\n"
    "  serve <overlay-file> <id> [--advertisements] [--threads N]\n"
    "        [--option key=value] [--incarnation N] [--join]\n"
    "        [--graceful-leave] [--edge-port P] [--edge-reactors N]\n"
    "        [--lease-ttl MS]\n"
    "                                run one broker until SIGINT/SIGTERM;\n"
    "                                --edge-port also hosts the edge session\n"
    "                                layer (leased clients, port 0 = pick)\n"
    "  connect <host> <port>         handshake with a broker and exit\n"
    "  sub <host> <port> '<xpe>'... [--count N]\n"
    "                                subscribe and print deliveries\n"
    "  pub <host> <port> <xml-file>... [--first-doc-id N]\n"
    "                                publish documents' paths\n"
    "  swarm <host> <edge-port> [--clients N] [--loops K] [--xpe EXPR]...\n"
    "        [--duration MS] [--heartbeat MS]\n"
    "                                simulate N leased edge clients from K\n"
    "                                event loops; each subscribes to every\n"
    "                                --xpe and reports deliveries on exit\n";

/// Argument problems: main prints the usage text and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int cmd_parse(const std::vector<std::string>& args) {
  if (args.empty()) throw UsageError("parse: missing '<xpe>' argument");
  Xpe xpe = parse_xpe(args[0]);
  std::cout << xpe.to_string() << "\n";
  std::cout << "  steps: " << xpe.size()
            << (xpe.relative() ? ", relative" : ", absolute")
            << (xpe.anchored() ? ", anchored" : ", floating")
            << (xpe.has_descendant() ? ", has //" : "")
            << (xpe.has_wildcard() ? ", has *" : "")
            << (xpe.has_predicates() ? ", has predicates" : "") << "\n";
  return 0;
}

int cmd_covers(const std::vector<std::string>& args) {
  if (args.size() != 2) throw UsageError("covers: needs exactly two XPEs");
  Xpe s1 = parse_xpe(args[0]);
  Xpe s2 = parse_xpe(args[1]);
  bool result = covers(s1, s2);
  std::cout << s1.to_string() << (result ? "  COVERS  " : "  does not cover  ")
            << s2.to_string() << "\n";
  return result ? 0 : 1;
}

int cmd_derive(const std::vector<std::string>& args) {
  if (args.empty()) throw UsageError("derive: missing <dtd-file> argument");
  Dtd dtd = parse_dtd(read_file(args[0]));
  if (args.size() > 1) dtd.set_root(args[1]);
  auto derived = derive_advertisements(dtd);
  for (const Advertisement& a : derived.advertisements) {
    std::cout << a.to_string() << "\n";
  }
  std::cerr << derived.advertisements.size() << " advertisements ("
            << derived.repaired << " from the repair pass"
            << (derived.truncated ? ", TRUNCATED" : "") << ")\n";
  return 0;
}

int cmd_match(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    throw UsageError("match: needs <xml-file> and at least one XPE");
  }
  XmlDocument doc = parse_xml(read_file(args[0]));
  auto paths = extract_paths(doc);
  // Parse the XPEs first: parsing interns their element names, and the
  // path snapshot below uses read-only lookup (unseen names would map to
  // the never-matching sentinel if taken before the XPEs exist).
  std::vector<Xpe> xpes;
  for (std::size_t i = 1; i < args.size(); ++i) xpes.push_back(parse_xpe(args[i]));
  // Intern once; the match loop below then compares symbol ids.
  std::vector<InternedPath> interned(paths.begin(), paths.end());
  for (const Xpe& xpe : xpes) {
    bool hit = false;
    for (const InternedPath& p : interned) {
      if (matches(p, xpe)) {
        hit = true;
        break;
      }
    }
    std::cout << (hit ? "MATCH     " : "no match  ") << xpe.to_string()
              << "\n";
  }
  return 0;
}

int cmd_paths(const std::vector<std::string>& args) {
  if (args.empty()) throw UsageError("paths: missing <xml-file> argument");
  XmlDocument doc = parse_xml(read_file(args[0]));
  for (const Path& p : extract_paths(doc)) std::cout << p.to_string() << "\n";
  return 0;
}

int cmd_universe(const std::vector<std::string>& args) {
  if (args.empty()) throw UsageError("universe: missing <dtd-file> argument");
  Dtd dtd = parse_dtd(read_file(args[0]));
  PathUniverse::Options options;
  if (args.size() > 1) options.max_depth = std::stoul(args[1]);
  PathUniverse universe(dtd, options);
  for (const Path& p : universe.paths()) std::cout << p.to_string() << "\n";
  if (universe.truncated()) std::cerr << "(truncated)\n";
  return 0;
}

/// One faultsim run over the plan's scenario; `faulted` toggles the fault
/// plan itself (off = the clean reference the verdict compares against).
struct FaultSimResult {
  std::vector<std::set<std::uint64_t>> delivered;
  Simulator::QuiesceReport report;
  std::size_t duplicates = 0;
  std::size_t retransmits = 0;
  std::size_t frames_dropped = 0;
  std::size_t flushed = 0;
  std::size_t restarts = 0;
  std::size_t resyncs = 0;
  std::vector<double> resync_ms;
};

/// Builds the plan's scenario on `sim` and runs it to quiescence: the
/// shared workload behind faultsim, trace and metrics (with `traced` the
/// causal tracer is on for the whole run).
struct ScenarioRun {
  std::vector<int> subscribers;
  int publisher = -1;
  Simulator::QuiesceReport report;
};

ScenarioRun run_scenario(Simulator& sim, const FaultPlan& plan, bool faulted,
                         bool traced) {
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
  for (const auto& [key, value] : plan.broker_options) {
    // Re-validated here (the plan parser already checked) so a plan built
    // programmatically fails just as loudly as a file-driven one.
    if (std::string err = config.parse_option(key, value);
        !err.empty()) {
      throw std::runtime_error("fault plan option: " + err);
    }
  }
  for (std::size_t i = 0; i < topology.num_brokers; ++i) sim.add_broker(config);
  for (auto [a, b] : topology.edges) sim.connect(a, b, LinkConfig{});
  if (faulted) sim.apply_fault_plan(plan);
  if (traced) sim.enable_tracing();

  const char* xpes[] = {"/a", "/a/b", "//c", "/d//e", "/a//c"};
  ScenarioRun run;
  for (std::size_t i = 0; i < plan.subscribers; ++i) {
    int client =
        sim.attach_client(static_cast<int>(rng.index(topology.num_brokers)));
    sim.subscribe(client, parse_xpe(xpes[i % 5]));
    run.subscribers.push_back(client);
  }
  run.publisher =
      sim.attach_client(static_cast<int>(rng.index(topology.num_brokers)));
  sim.run_limited(100000);

  const char* paths[] = {"/a/b", "/a/b/c", "/d/x/e", "/q", "/a"};
  for (std::size_t i = 0; i < plan.documents; ++i) {
    sim.publish_paths(run.publisher, {parse_path(paths[i % 5])}, 200);
  }
  // Bounded drain: scheduled crash events fire at their plan times during
  // this run, possibly mid-traffic (in-flight publications then die with
  // the broker — that is the fault model, and the verdict will say so).
  run.report = sim.run_until_quiescent(1000000);
  return run;
}

FaultSimResult run_faultsim(const FaultPlan& plan, bool faulted) {
  Simulator sim(Simulator::Options{0.0});
  ScenarioRun run = run_scenario(sim, plan, faulted, /*traced=*/false);

  FaultSimResult result;
  result.report = run.report;
  for (int client : run.subscribers) {
    result.delivered.push_back(sim.delivered_docs(client));
  }
  const NetworkStats& stats = sim.stats();
  result.duplicates = stats.duplicate_notifications();
  result.retransmits = stats.retransmits();
  result.frames_dropped = stats.frames_dropped();
  result.flushed = stats.events_flushed_on_crash();
  result.restarts = stats.broker_restarts();
  result.resyncs = stats.resyncs_completed();
  result.resync_ms = stats.resync_durations_ms();
  return result;
}

int cmd_faultsim(const std::vector<std::string>& args) {
  if (args.empty()) throw UsageError("faultsim: missing <plan-file> argument");
  std::ifstream in(args[0]);
  if (!in) throw std::runtime_error("cannot open " + args[0]);
  FaultPlan plan = parse_fault_plan(in);

  FaultSimResult reference = run_faultsim(plan, /*faulted=*/false);
  FaultSimResult faulted = run_faultsim(plan, /*faulted=*/true);

  std::cout << "topology " << plan.topology << " " << plan.topology_size
            << ", " << plan.subscribers << " subscribers, " << plan.documents
            << " documents, seed " << plan.seed << "\n";
  std::cout << "faulted run: " << faulted.report.processed << " events, "
            << "quiesced at " << faulted.report.last_activity << " ms"
            << (faulted.report.quiesced ? "" : " (EVENT BUDGET EXHAUSTED)")
            << "\n";
  std::cout << "  frames dropped " << faulted.frames_dropped
            << ", retransmits " << faulted.retransmits << ", flushed on crash "
            << faulted.flushed << "\n";
  std::cout << "  restarts " << faulted.restarts << ", resyncs "
            << faulted.resyncs;
  for (double ms : faulted.resync_ms) std::cout << " (" << ms << " ms)";
  std::cout << "\n";

  bool equal = reference.delivered == faulted.delivered &&
               faulted.duplicates == 0;
  for (std::size_t i = 0; i < reference.delivered.size(); ++i) {
    if (reference.delivered[i] != faulted.delivered[i]) {
      std::cout << "  subscriber " << i << ": reference "
                << reference.delivered[i].size() << " docs, faulted "
                << faulted.delivered[i].size() << " docs\n";
    }
  }
  if (faulted.duplicates > 0) {
    std::cout << "  " << faulted.duplicates << " duplicate notifications\n";
  }
  std::cout << "delivery: " << (equal ? "EQUAL" : "MISMATCH")
            << " (vs fault-free reference)\n";
  return equal ? 0 : 1;
}

int cmd_trace(const std::vector<std::string>& args) {
#if !XROUTE_TRACING_ENABLED
  (void)args;
  std::cerr << "trace: tracing was compiled out (-DXROUTE_TRACING=OFF)\n";
  return 2;
#else
  if (args.empty()) throw UsageError("trace: missing <plan-file> argument");
  std::string chrome_out;
  std::uint64_t dump_trace = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--dump") {
      if (++i >= args.size()) throw UsageError("trace: --dump needs an id");
      dump_trace = std::stoull(args[i]);
    } else {
      chrome_out = args[i];
    }
  }
  std::ifstream in(args[0]);
  if (!in) throw std::runtime_error("cannot open " + args[0]);
  FaultPlan plan = parse_fault_plan(in);

  Simulator sim(Simulator::Options{0.0});
  ScenarioRun run = run_scenario(sim, plan, /*faulted=*/true, /*traced=*/true);
  const Tracer& tracer = *sim.tracer();

  std::size_t kind_counts[10] = {};
  std::size_t retransmits = 0, dropped = 0;
  for (const Span& span : tracer.spans()) {
    ++kind_counts[static_cast<std::size_t>(span.kind)];
    if (span.retransmit) ++retransmits;
    if (span.dropped) ++dropped;
  }
  std::cout << tracer.trace_count() << " traces, " << tracer.spans().size()
            << " spans (quiesced at " << run.report.last_activity << " ms)\n";
  const SpanKind kinds[] = {SpanKind::kInject, SpanKind::kEnqueue,
                            SpanKind::kLink,   SpanKind::kBroker,
                            SpanKind::kDeliver};
  for (SpanKind kind : kinds) {
    std::cout << "  " << to_string(kind) << " "
              << kind_counts[static_cast<std::size_t>(kind)];
  }
  std::cout << "\n  retransmit attempts " << retransmits << ", dropped "
            << dropped << "\n";

  // The trace is only worth exporting if it is a faithful witness:
  // reconstruct every subscriber's delivery set from deliver spans and
  // hold it against the simulator's records.
  std::map<int, std::set<std::uint64_t>> from_trace;
  for (const Span& span : tracer.spans()) {
    if (span.kind == SpanKind::kDeliver && !span.duplicate) {
      from_trace[span.client].insert(span.doc_id);
    }
  }
  bool faithful = true;
  for (int client : run.subscribers) {
    if (from_trace[client] != sim.delivered_docs(client)) {
      faithful = false;
      std::cout << "  subscriber client " << client << ": trace says "
                << from_trace[client].size() << " docs, simulator "
                << sim.delivered_docs(client).size() << "\n";
    }
  }
  std::cout << "trace reconstruction: " << (faithful ? "EQUAL" : "MISMATCH")
            << " (vs simulator delivery records)\n";

  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out);
    if (!out) throw std::runtime_error("cannot write " + chrome_out);
    write_chrome_trace(tracer, out);
    std::cout << "chrome trace written to " << chrome_out
              << " (load in about:tracing or ui.perfetto.dev)\n";
  }
  if (dump_trace != 0) write_trace_json(tracer, dump_trace, std::cout);
  return faithful ? 0 : 1;
#endif
}

int cmd_metrics(const std::vector<std::string>& args) {
  if (args.empty()) throw UsageError("metrics: missing <plan-file> argument");
  std::ifstream in(args[0]);
  if (!in) throw std::runtime_error("cannot open " + args[0]);
  FaultPlan plan = parse_fault_plan(in);

  Simulator sim(Simulator::Options{0.0});
  run_scenario(sim, plan, /*faulted=*/true, /*traced=*/false);
  sim.stats().registry().write_json(std::cout);
  return 0;
}

// -- Network commands -------------------------------------------------------

volatile std::sig_atomic_t g_stop = 0;

// -- broadcast serve / tune --------------------------------------------------
//
// `broadcast serve` runs the full server side in-process: a Broker with
// the given subscription pool, a BroadcastSink mounted on its delivery
// stream (the single-event sink API), and a BroadcastScheduler cutting
// matched publications into per-channel cycles. Each channel's tape is
// written to <prefix>.ch<k>; `broadcast tune` replays a tape as a tuner
// and audits itself against the matcher oracle.

int cmd_broadcast_serve(const std::vector<std::string>& args) {
  std::uint32_t channels = 2;
  std::uint32_t cycle = 16;
  std::size_t docs = 200;
  std::uint64_t seed = 1;
  double zipf = 0.0;
  std::string tape_prefix;
  std::vector<std::string> xpes;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&](const char* flag) -> const std::string& {
      if (++i >= args.size()) {
        throw UsageError(std::string("broadcast serve: ") + flag +
                         " needs a value");
      }
      return args[i];
    };
    if (args[i] == "--channels") {
      channels = static_cast<std::uint32_t>(std::stoul(value("--channels")));
    } else if (args[i] == "--cycle") {
      cycle = static_cast<std::uint32_t>(std::stoul(value("--cycle")));
    } else if (args[i] == "--docs") {
      docs = std::stoul(value("--docs"));
    } else if (args[i] == "--seed") {
      seed = std::stoull(value("--seed"));
    } else if (args[i] == "--zipf") {
      zipf = std::stod(value("--zipf"));
    } else if (args[i] == "--tape") {
      tape_prefix = value("--tape");
    } else if (args[i] == "--xpe") {
      xpes.push_back(value("--xpe"));
    } else if (args[i] == "--path") {
      paths.push_back(value("--path"));
    } else {
      throw UsageError("broadcast serve: unknown flag '" + args[i] + "'");
    }
  }
  if (tape_prefix.empty()) {
    throw UsageError("broadcast serve: --tape PREFIX is required");
  }
  if (channels == 0 || cycle == 0) {
    throw UsageError("broadcast serve: --channels and --cycle must be > 0");
  }
  if (xpes.empty()) xpes.push_back("//*");
  if (paths.empty()) {
    paths = {"/a/b", "/a/b/c", "/d/x/e", "/q", "/a"};
  }

  BrokerOptions config;
  config.use_advertisements = false;
  Broker broker(0, config);
  const IfaceId kSubscriber{1};
  const IfaceId kPublisher{2};
  broker.add_client(kSubscriber);
  broker.add_client(kPublisher);
  broadcast::BroadcastScheduler scheduler(
      broadcast::BroadcastOptions{channels, cycle});
  broadcast::BroadcastSink sink(&scheduler);
  for (const std::string& text : xpes) {
    broker.handle(kSubscriber, Message::subscribe(parse_xpe(text)), sink);
  }

  std::vector<Path> pool;
  for (const std::string& text : paths) pool.push_back(parse_path(text));
  Rng rng(seed);
  scenario::ZipfSampler sampler(pool.size(), zipf);
  for (std::size_t i = 0; i < docs; ++i) {
    PublishMsg pub;
    pub.path = pool[sampler.sample(rng)];
    pub.doc_id = i + 1;
    pub.doc_bytes = 200;
    broker.handle(kPublisher, Message{pub}, sink);
  }
  scheduler.flush();

  std::cout << "{\n  \"channels\": [";
  for (std::uint32_t ch = 0; ch < scheduler.channels(); ++ch) {
    std::string file = tape_prefix + ".ch" + std::to_string(ch);
    if (!scheduler.tape(ch).save(file)) {
      throw std::runtime_error("cannot write " + file);
    }
    const auto& stats = scheduler.stats(ch);
    std::cout << (ch == 0 ? "\n" : ",\n") << "    {\"channel\": " << ch
              << ", \"file\": \"" << file << "\", \"cycles\": "
              << stats.cycles << ", \"publications\": " << stats.publications
              << ", \"index_bytes\": " << stats.index_bytes
              << ", \"data_bytes\": " << stats.data_bytes
              << ", \"utilization\": " << stats.utilization() << "}";
  }
  std::cout << "\n  ]\n}\n";
  return 0;
}

int cmd_broadcast_tune(const std::vector<std::string>& args) {
  std::vector<std::string> tapes;
  std::vector<std::string> xpe_texts;
  std::size_t start_frame = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&](const char* flag) -> const std::string& {
      if (++i >= args.size()) {
        throw UsageError(std::string("broadcast tune: ") + flag +
                         " needs a value");
      }
      return args[i];
    };
    if (args[i] == "--tape") {
      tapes.push_back(value("--tape"));
    } else if (args[i] == "--xpe") {
      xpe_texts.push_back(value("--xpe"));
    } else if (args[i] == "--start-frame") {
      start_frame = std::stoul(value("--start-frame"));
    } else {
      throw UsageError("broadcast tune: unknown flag '" + args[i] + "'");
    }
  }
  if (tapes.empty()) throw UsageError("broadcast tune: --tape FILE required");
  if (xpe_texts.empty()) {
    throw UsageError("broadcast tune: at least one --xpe required");
  }
  std::vector<Xpe> xpes;
  for (const std::string& text : xpe_texts) xpes.push_back(parse_xpe(text));
  broadcast::BroadcastClient tuner(xpes);

  std::vector<broadcast::ChannelTape> loaded;
  for (const std::string& file : tapes) {
    std::optional<broadcast::ChannelTape> tape =
        broadcast::ChannelTape::load(file);
    if (!tape) throw std::runtime_error("cannot read tape " + file);
    loaded.push_back(std::move(*tape));
  }
  for (const broadcast::ChannelTape& tape : loaded) {
    tuner.tune(tape, start_frame);
  }
  broadcast::OracleReport audit;
  for (const broadcast::ChannelTape& tape : loaded) {
    broadcast::OracleReport one = broadcast::oracle_check(tape, tuner);
    audit.expected += one.expected;
    audit.missed += one.missed;
    audit.spurious += one.spurious;
    audit.byte_mismatches += one.byte_mismatches;
  }

  const broadcast::TuneStats& stats = tuner.stats();
  double access_mean = 0.0;
  for (std::uint64_t bytes : stats.access_bytes) {
    access_mean += static_cast<double>(bytes);
  }
  if (!stats.access_bytes.empty()) {
    access_mean /= static_cast<double>(stats.access_bytes.size());
  }
  std::cout << "{\"cycles_tuned\": " << stats.cycles_tuned
            << ", \"delivered\": " << stats.delivered
            << ", \"expected\": " << audit.expected
            << ", \"missed\": " << audit.missed
            << ", \"spurious\": " << audit.spurious
            << ", \"byte_mismatches\": " << audit.byte_mismatches
            << ", \"tuning_bytes\": " << stats.tuning_bytes
            << ", \"listened_bytes\": " << stats.listened_bytes
            << ", \"dozed_bytes\": " << stats.dozed_bytes
            << ", \"doze_ratio\": " << stats.doze_ratio()
            << ", \"access_bytes_mean\": " << access_mean << "}\n";
  return audit.clean() ? 0 : 1;
}

int cmd_broadcast(const std::vector<std::string>& args) {
  if (args.empty() || (args[0] != "serve" && args[0] != "tune")) {
    throw UsageError(
        "broadcast: usage is 'broadcast serve ...' or 'broadcast tune ...'");
  }
  std::vector<std::string> rest(args.begin() + 1, args.end());
  return args[0] == "serve" ? cmd_broadcast_serve(rest)
                            : cmd_broadcast_tune(rest);
}

int cmd_scenario(const std::vector<std::string>& args) {
  if (args.empty() || args[0] != "run") {
    throw UsageError("scenario: usage is 'scenario run <file>... [--out F]'");
  }
  std::vector<std::string> files;
  std::string out_path = "BENCH_scenarios.json";
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (++i >= args.size()) throw UsageError("scenario: --out needs a file");
      out_path = args[i];
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.empty()) throw UsageError("scenario run: needs a scenario file");
  std::vector<scenario::ScenarioReport> reports;
  bool all_ok = true;
  for (const std::string& file : files) {
    scenario::Scenario script = scenario::parse_scenario(read_file(file));
    std::cerr << "scenario " << script.name << " (" << file << ")...\n";
    scenario::ScenarioReport report = scenario::run_scenario(script);
    std::cerr << "  " << (report.ok ? "ok" : "FAILED") << ": "
              << report.docs_published << " docs (" << report.docs_assured
              << " assured, " << report.best_effort_losses
              << " best-effort losses), loss window "
              << report.loss_window_ms << " ms, " << report.duplicates
              << " duplicates\n";
    for (const std::string& failure : report.failures) {
      std::cerr << "    " << failure << "\n";
    }
    all_ok = all_ok && report.ok;
    reports.push_back(std::move(report));
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  out << scenario::report_json(reports);
  std::cerr << "wrote " << out_path << "\n";
  return all_ok ? 0 : 1;
}

void handle_stop_signal(int) { g_stop = 1; }

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

std::uint16_t parse_port(const std::string& text) {
  unsigned long value = 0;
  try {
    value = std::stoul(text);
  } catch (const std::exception&) {
    throw UsageError("bad port '" + text + "'");
  }
  if (value == 0 || value > 65535) throw UsageError("bad port '" + text + "'");
  return static_cast<std::uint16_t>(value);
}

/// The `serve` overlay description: every broker's address plus the links
/// and the shared broker configuration (`option` lines).
struct OverlayFile {
  struct BrokerSpec {
    std::string host;
    std::uint16_t port = 0;
  };
  std::map<int, BrokerSpec> brokers;
  std::vector<std::pair<int, int>> links;
  BrokerOptions config;
};

OverlayFile parse_overlay_file(std::istream& in) {
  OverlayFile overlay;
  // Served overlays have no advertising publisher unless asked: flooded
  // subscriptions by default (`option advertisements on` or the
  // --advertisements flag restore the paper's advertisement-based mode).
  overlay.config.use_advertisements = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;
    auto fail = [&](const std::string& why) -> std::runtime_error {
      return std::runtime_error("overlay file line " + std::to_string(line_no) +
                                ": " + why);
    };
    if (word == "broker") {
      int id = -1;
      std::string host, port;
      if (!(ls >> id >> host >> port)) {
        throw fail("expected 'broker <id> <host> <port>'");
      }
      overlay.brokers[id] = OverlayFile::BrokerSpec{host, parse_port(port)};
    } else if (word == "link") {
      int a = -1, b = -1;
      if (!(ls >> a >> b)) throw fail("expected 'link <a> <b>'");
      if (a == b) throw fail("a link needs two distinct brokers");
      overlay.links.emplace_back(a, b);
    } else if (word == "option") {
      std::string key, value;
      if (!(ls >> key >> value)) throw fail("expected 'option <key> <value>'");
      if (std::string err = overlay.config.parse_option(key, value);
          !err.empty()) {
        throw fail(err);
      }
    } else {
      throw fail("unknown declaration '" + word + "'");
    }
  }
  for (const auto& [a, b] : overlay.links) {
    if (!overlay.brokers.count(a) || !overlay.brokers.count(b)) {
      throw std::runtime_error("overlay file: link " + std::to_string(a) +
                               " " + std::to_string(b) +
                               " references an undeclared broker");
    }
  }
  return overlay;
}

int cmd_serve(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  bool advertisements = false;
  bool join = false;
  bool graceful_leave = false;
  std::uint32_t incarnation = 0;
  bool edge = false;
  edge::EdgeServer::Options edge_opts;
  // (key, value) overrides, applied over the overlay file's `option`
  // lines in command-line order so the last spelling of a knob wins.
  std::vector<std::pair<std::string, std::string>> overrides;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--advertisements") {
      advertisements = true;
    } else if (args[i] == "--join") {
      join = true;
    } else if (args[i] == "--graceful-leave") {
      graceful_leave = true;
    } else if (args[i] == "--incarnation") {
      if (++i >= args.size()) {
        throw UsageError("serve: --incarnation needs a count");
      }
      try {
        incarnation = static_cast<std::uint32_t>(std::stoul(args[i]));
      } catch (const std::exception&) {
        throw UsageError("serve: bad incarnation '" + args[i] + "'");
      }
    } else if (args[i] == "--threads") {
      if (++i >= args.size()) throw UsageError("serve: --threads needs a count");
      overrides.emplace_back("threads", args[i]);
    } else if (args[i] == "--edge-port") {
      if (++i >= args.size()) throw UsageError("serve: --edge-port needs a port");
      edge = true;
      edge_opts.listen_port = parse_port(args[i]);
    } else if (args[i] == "--edge-reactors") {
      if (++i >= args.size()) {
        throw UsageError("serve: --edge-reactors needs a count");
      }
      try {
        edge_opts.reactors = std::stoi(args[i]);
      } catch (const std::exception&) {
        edge_opts.reactors = 0;
      }
      if (edge_opts.reactors < 1) {
        throw UsageError("serve: bad reactor count '" + args[i] + "'");
      }
    } else if (args[i] == "--lease-ttl") {
      if (++i >= args.size()) throw UsageError("serve: --lease-ttl needs ms");
      try {
        edge_opts.lease_ttl_ms = std::stod(args[i]);
      } catch (const std::exception&) {
        edge_opts.lease_ttl_ms = 0;
      }
      if (edge_opts.lease_ttl_ms <= 0) {
        throw UsageError("serve: bad lease ttl '" + args[i] + "'");
      }
    } else if (args[i] == "--option") {
      if (++i >= args.size()) {
        throw UsageError("serve: --option needs key=value");
      }
      std::size_t eq = args[i].find('=');
      if (eq == std::string::npos || eq == 0) {
        throw UsageError("serve: --option needs key=value, got '" + args[i] +
                         "'");
      }
      overrides.emplace_back(args[i].substr(0, eq), args[i].substr(eq + 1));
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 2) {
    throw UsageError("serve: needs <overlay-file> and <broker-id>");
  }
  std::ifstream in(positional[0]);
  if (!in) throw std::runtime_error("cannot open " + positional[0]);
  OverlayFile overlay = parse_overlay_file(in);
  int self = -1;
  try {
    self = std::stoi(positional[1]);
  } catch (const std::exception&) {
    throw UsageError("serve: bad broker id '" + positional[1] + "'");
  }
  auto spec = overlay.brokers.find(self);
  if (spec == overlay.brokers.end()) {
    throw std::runtime_error("broker " + std::to_string(self) +
                             " is not declared in the overlay file");
  }

  transport::TransportBroker::Options opts;
  opts.id = self;
  opts.listen_port = spec->second.port;
  opts.incarnation = incarnation;
  opts.config = overlay.config;
  if (advertisements) opts.config.use_advertisements = true;
  for (const auto& [key, value] : overrides) {
    if (std::string err = opts.config.parse_option(key, value);
        !err.empty()) {
      throw UsageError("serve: " + err);
    }
  }
  // Surface an invalid combination as a usage error (exit 2) here rather
  // than as the broker constructor's invalid_argument.
  if (std::string err = opts.config.validate(); !err.empty()) {
    throw UsageError("serve: " + err);
  }
  transport::TransportBroker broker(std::move(opts));
  broker.start();
  std::cerr << "broker " << self << " listening on port " << broker.port()
            << "\n";
  // The edge session layer rides beside the broker in-process: leased
  // client sessions on their own port, the whole population one broker
  // interface.
  std::unique_ptr<edge::EdgeServer> edge_server;
  if (edge) {
    edge_server = std::make_unique<edge::EdgeServer>(&broker, edge_opts);
    std::cerr << "edge session layer on port " << edge_server->start() << " ("
              << edge_server->reactors() << " reactors, lease ttl "
              << edge_opts.lease_ttl_ms << " ms)\n";
  }

  // The lower endpoint of each link dials (one TCP connection per link);
  // dialing retries with backoff, so the overlay can start in any order.
  // With --join the broker instead enters a live overlay: same dials, but
  // every link (dialed or accepted) is asked for a SyncState so routing
  // state converges before traffic relies on it — the rejoin-after-crash
  // path when paired with a bumped --incarnation.
  std::vector<std::pair<std::string, std::uint16_t>> dials;
  std::size_t degree = 0;
  for (const auto& [a, b] : overlay.links) {
    if (self != a && self != b) continue;
    ++degree;
    if (self != std::min(a, b)) continue;
    const OverlayFile::BrokerSpec& peer = overlay.brokers.at(std::max(a, b));
    dials.emplace_back(peer.host, peer.port);
  }
  if (join) {
    broker.join(std::move(dials), degree);
  } else {
    for (const auto& [host, port] : dials) broker.connect_to(host, port);
  }

  install_stop_handlers();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (edge_server) {
    std::cout << edge_server->metrics_json() << "\n";
    edge_server->stop();  // sessions down before the broker they feed from
  }
  std::cout << broker.metrics_json() << "\n";
  if (graceful_leave) {
    // Planned departure: flush in-flight frames and say goodbye so peers
    // hand our routes back instead of quarantining them for a rejoin.
    if (!broker.leave(5000.0)) {
      std::cerr << "serve: leave flush missed its deadline\n";
      return 1;
    }
    return 0;
  }
  broker.stop();
  return 0;
}

int cmd_connect(const std::vector<std::string>& args) {
  if (args.size() != 2) throw UsageError("connect: needs <host> and <port>");
  transport::TransportClient::Options opts;
  // One dial, no retry: this command answers "is a broker up right now?".
  opts.dial_backoff.max_attempts = 0;
  transport::TransportClient client(std::move(opts));
  client.start(args[0], parse_port(args[1]));
  if (!client.wait_connected(3000)) {
    std::cerr << "connect: no broker answered at " << args[0] << ":" << args[1]
              << "\n";
    return 1;
  }
  std::cout << "connected: broker at " << args[0] << ":" << args[1]
            << " speaks protocol v" << int{wire::kProtocolVersion} << "\n";
  return 0;
}

int cmd_sub(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  std::size_t count = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--count") {
      if (++i >= args.size()) throw UsageError("sub: --count needs a number");
      count = std::stoul(args[i]);
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() < 3) {
    throw UsageError("sub: needs <host>, <port> and at least one XPE");
  }
  transport::TransportClient client{transport::TransportClient::Options{}};
  client.set_message_handler([](const Message& msg) {
    if (msg.type() != MessageType::kPublish) return;
    const auto& pub = std::get<PublishMsg>(msg.payload);
    std::cout << "doc " << pub.doc_id << " path " << pub.path.to_string()
              << "\n"
              << std::flush;
  });
  client.start(positional[0], parse_port(positional[1]));
  if (!client.wait_connected()) {
    std::cerr << "sub: no broker answered at " << positional[0] << ":"
              << positional[1] << "\n";
    return 1;
  }
  for (std::size_t i = 2; i < positional.size(); ++i) {
    client.send(Message::subscribe(parse_xpe(positional[i])));
  }
  install_stop_handlers();
  while (!g_stop && (count == 0 || client.delivered_docs().size() < count)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return 0;
}

int cmd_pub(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  std::uint64_t doc_id = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--first-doc-id") {
      if (++i >= args.size()) {
        throw UsageError("pub: --first-doc-id needs a number");
      }
      doc_id = std::stoull(args[i]);
    } else if (args[i].rfind("--", 0) == 0) {
      throw UsageError("pub: unknown flag '" + args[i] + "'");
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() < 3) {
    throw UsageError("pub: needs <host>, <port> and at least one XML file");
  }
  transport::TransportClient client{transport::TransportClient::Options{}};
  client.start(positional[0], parse_port(positional[1]));
  if (!client.wait_connected()) {
    std::cerr << "pub: no broker answered at " << positional[0] << ":"
              << positional[1] << "\n";
    return 1;
  }
  for (std::size_t i = 2; i < positional.size(); ++i, ++doc_id) {
    std::string xml = read_file(positional[i]);
    // Streaming decomposition: one pass over the bytes, no tree.
    std::vector<Path> paths = stream_extract_paths(xml);
    std::uint32_t path_id = 0;
    for (const Path& path : paths) {
      PublishMsg msg;
      msg.path = path;
      msg.doc_id = doc_id;
      msg.path_id = path_id++;
      msg.doc_bytes = xml.size();
      msg.paths_in_doc = static_cast<std::uint32_t>(paths.size());
      client.send(Message{msg});
    }
    std::cerr << "doc " << doc_id << ": " << paths.size() << " paths, "
              << xml.size() << " bytes\n";
  }
  client.sync();
  // sync() only guarantees frames reached the connection's userspace
  // queue; wait for the kernel to take them before the socket closes, or
  // the tail of a large document is silently dropped.
  if (!client.drain(10000)) {
    std::cerr << "pub: connection dropped or timed out before all frames "
                 "were flushed\n";
    return 1;
  }
  return 0;
}

int cmd_swarm(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  edge::EdgeSwarm::Options opts;
  std::vector<std::string> xpe_texts;
  double duration_ms = 0.0;  // 0 = until SIGINT
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto number = [&](const char* what) -> double {
      if (++i >= args.size()) {
        throw UsageError(std::string("swarm: ") + what + " needs a value");
      }
      try {
        return std::stod(args[i]);
      } catch (const std::exception&) {
        throw UsageError(std::string("swarm: bad ") + what + " '" + args[i] +
                         "'");
      }
    };
    if (args[i] == "--clients") {
      opts.clients = static_cast<std::size_t>(number("--clients"));
      if (opts.clients == 0) throw UsageError("swarm: --clients must be > 0");
    } else if (args[i] == "--loops") {
      opts.loops = static_cast<int>(number("--loops"));
      if (opts.loops < 1) throw UsageError("swarm: --loops must be >= 1");
    } else if (args[i] == "--duration") {
      duration_ms = number("--duration");
    } else if (args[i] == "--heartbeat") {
      opts.heartbeat_interval_ms = number("--heartbeat");
    } else if (args[i] == "--xpe") {
      if (++i >= args.size()) throw UsageError("swarm: --xpe needs an XPE");
      xpe_texts.push_back(args[i]);
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 2) {
    throw UsageError("swarm: needs <host> and <edge-port>");
  }
  opts.host = positional[0];
  opts.port = parse_port(positional[1]);
  if (xpe_texts.empty()) xpe_texts.push_back("//*");
  std::vector<Xpe> interests;
  for (const std::string& text : xpe_texts) interests.push_back(parse_xpe(text));

  edge::EdgeSwarm swarm(opts);
  swarm.set_interests([&interests](std::size_t) { return interests; });
  swarm.start();
  if (!swarm.wait_connected(opts.clients, 30000)) {
    std::cerr << "swarm: only " << swarm.connected() << "/" << opts.clients
              << " clients connected (" << swarm.connect_failures()
              << " failures)\n";
    return 1;
  }
  std::uint64_t wanted_grants =
      static_cast<std::uint64_t>(opts.clients) * interests.size();
  if (!swarm.wait_lease_grants(wanted_grants, 30000)) {
    std::cerr << "swarm: only " << swarm.lease_grants() << "/" << wanted_grants
              << " lease grants arrived\n";
    return 1;
  }
  std::cerr << "swarm: " << swarm.connected() << " clients leased on "
            << opts.host << ":" << opts.port << "\n";
  install_stop_handlers();
  double started = edge::steady_ms();
  while (!g_stop &&
         (duration_ms <= 0 || edge::steady_ms() - started < duration_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "{\"clients\": " << swarm.connected()
            << ", \"lease_grants\": " << swarm.lease_grants()
            << ", \"publications\": " << swarm.publications()
            << ", \"duplicates\": " << swarm.duplicates()
            << ", \"disconnects\": " << swarm.disconnects() << "}\n";
  swarm.stop();
  return swarm.duplicates() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  std::string command = args[0];
  args.erase(args.begin());
  try {
    if (command == "help" || command == "--help" || command == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (command == "parse") return cmd_parse(args);
    if (command == "covers") return cmd_covers(args);
    if (command == "derive") return cmd_derive(args);
    if (command == "match") return cmd_match(args);
    if (command == "paths") return cmd_paths(args);
    if (command == "universe") return cmd_universe(args);
    if (command == "faultsim") return cmd_faultsim(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "metrics") return cmd_metrics(args);
    if (command == "broadcast") return cmd_broadcast(args);
    if (command == "scenario") return cmd_scenario(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "connect") return cmd_connect(args);
    if (command == "sub") return cmd_sub(args);
    if (command == "pub") return cmd_pub(args);
    if (command == "swarm") return cmd_swarm(args);
    std::cerr << "xroutectl: unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const UsageError& e) {
    std::cerr << "xroutectl: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

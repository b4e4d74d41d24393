// overlay_bench — the end-to-end benchmark of xroute's production path.
//
// Rig: one process runs LoopbackOverlay(chain(2)) with default
// BrokerOptions (advertisements, covering and track_covered on, one match
// thread, streaming intake). Publisher client P sits on broker 0 and
// advertises the NEWS DTD's derived advertisement set; subscriber client
// S sits on broker 1 and holds a steady table of generated XPEs. P
// publishes documents the way `xroutectl pub` does: stream-extract the
// paths, one PublishMsg per path with doc_id/path_id, publish_time set to
// the document's due time. Threads: two broker loops, two client loops and
// this main thread, which paces with sleeps and never spins.
//
// A run is several rounds; each sets up a fresh overlay (-> setup_s) and
// goes through three phases:
//   closed  - P publishes with a fixed window of outstanding expected
//             deliveries                          -> pubs_per_s
//   open    - P publishes at a fixed rate, optionally with S churning a
//             disjoint XPE pool at a fixed rate   -> notify_p50/p99_ms
//   control - S churns pool XPEs in bursts, each
//             timed until the overlay is quiet    -> sub_ops_per_s
// Workloads differ in table size, pool and how the run time is shared
// (README.md says why each exists). Every delivery is checked against a
// brute-force oracle (oracle.hpp).
//
// --trace 1 runs the same phases for the counters only the live rig has,
// then rebuilds both brokers in-process from the same control messages
// and replays the same publications through each layer's public API,
// timing every call (spans.hpp). End-to-end figures come only from
// --trace 0 runs.
//
// Usage: overlay_bench --workload notify|match_heavy|churn --seed N
//          --seconds S --trace 0|1 [--git-rev R] [--spans FILE]
// The last stdout line is the result object; exit 0 only when every run
// phase completed. A quiescence timeout exits 3, bad usage 2.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <ctime>
#include <deque>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adv/derive.hpp"
#include "net/topology.hpp"
#include "oracle.hpp"
#include "router/broker.hpp"
#include "router/snapshot.hpp"
#include "spans.hpp"
#include "transport/loopback.hpp"
#include "wire/codec.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xml_gen.hpp"
#include "workload/xpath_gen.hpp"
#include "xml/stream_parser.hpp"

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define PERFBENCH_UNTIMEABLE_BUILD 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_UNTIMEABLE_BUILD 1
#endif
#endif

namespace {

using namespace xroute;
using perfbench::DeliveryOracle;
using perfbench::SpanRecorder;
using perfbench::Verdict;
using transport::LoopbackOverlay;
using transport::TransportBroker;
using transport::TransportClient;
using Clock = std::chrono::steady_clock;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct QuiescenceTimeout : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

Clock::time_point at_ms(double ms) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms)));
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Nearest-rank percentile of an unsorted sample (copied).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("percentile of no samples");
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// -- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t rounds;      ///< fresh overlays (and tables) per untraced run
  std::size_t steady;      ///< S's always-live XPEs
  std::size_t pool;        ///< disjoint churn pool
  double closed_share;     ///< shares of each round per phase
  double open_share;
  double control_share;
  double open_rate;        ///< paths/s in the open loop
  double churn_rate;       ///< pool ops/s beside the open loop (0 = none)
  std::size_t burst_ops;   ///< control ops per timed burst
};

/// Pool XPEs live at once while S churns.
constexpr std::size_t kLive = 64;
/// Closed-loop bound on outstanding expected deliveries.
constexpr std::size_t kWindow = 512;
constexpr std::size_t kDocPool = 400;
constexpr std::size_t kLoadChunk = 250;
constexpr double kQuietTimeoutMs = 60000.0;
constexpr double kWindowTimeoutMs = 10000.0;
/// Closed-loop throughput is the median over windows of this length.
constexpr double kRateWindowMs = 250.0;

const std::vector<Workload>& workloads() {
  // Open-loop rates stay well below saturation, so the open loop measures
  // latency, not a growing backlog: the closed loop reaches about 85k,
  // 30k and 40k paths/s on these tables. Bursts keep broker 1 busy for a
  // few hundred milliseconds, far below the heartbeat detector's
  // suspicion threshold.
  //
  // Each overlay's TCP connections settle into their own delayed-ACK
  // pattern, so one round in a few holds twice the usual share of paths
  // on Nagle-held frames; notify_p50_ms is the best of many rounds.
  // match_heavy's set-up costs seconds per round, too many for enough
  // rounds in a gated run, so BENCHMARK.json does not list it.
  static const std::vector<Workload> all = {
      // name     rounds steady  pool closed open  ctl   rate   churn  burst
      {"notify",       9,  300,  400, 0.4,  0.4,  0.2,  10000.0, 0.0, 1500},
      {"match_heavy",  3, 3000,  400, 0.45, 0.2,  0.35, 10000.0, 0.0, 100},
      {"churn",        5, 2000, 2000, 0.35, 0.35, 0.3,  5000.0, 100.0, 200},
  };
  return all;
}

// -- Inputs -------------------------------------------------------------------

struct Doc {
  std::string xml;
  std::vector<Verdict> verdicts;  ///< per extracted path, in order
  std::size_t required = 0;       ///< paths S's steady table must receive
};

struct Inputs {
  std::vector<Advertisement> advertisements;
  std::vector<Xpe> steady;
  std::vector<Xpe> pool;
  std::vector<Doc> docs;
  std::size_t paths = 0;
};

/// Everything round `round` of a run publishes or subscribes.
///
/// The XPEs, and the order the pool churns in, are table number `round`
/// of the workload, the same for every seed; the seed draws the
/// documents. Which XPEs a table holds, and where its few very general
/// ones fall in subscription or churn order, moves load, control and
/// edge-scan costs by a quarter to a half, more than any regression bound
/// could absorb. A run's figures are taken over all its rounds, so over
/// several tables.
Inputs make_inputs(const Workload& w, const Dtd& dtd,
                   const std::vector<Advertisement>& advertisements,
                   std::size_t round, std::uint64_t seed) {
  Inputs in;
  in.advertisements = advertisements;

  // The paper's Diao-style generator at its default W = DO = 0.15. One
  // distinct set, split, keeps the pool disjoint from the steady table.
  XpathGenOptions gen;
  gen.count = w.steady + w.pool;
  gen.seed = round + 1;
  std::vector<Xpe> xpes = generate_xpaths(dtd, gen);
  if (xpes.size() != gen.count) {
    throw std::runtime_error("generate_xpaths returned too few queries");
  }
  in.steady.assign(xpes.begin(), xpes.begin() + static_cast<long>(w.steady));
  in.pool.assign(xpes.begin() + static_cast<long>(w.steady), xpes.end());
  Rng pool_rng(round + 1);
  std::shuffle(in.pool.begin(), in.pool.end(), pool_rng.engine());
  Rng rng(seed * 0x9E3779B97F4A7C15ull + round);
  if (in.pool.size() < 2 * kLive) {
    throw std::logic_error("churn pool must hold twice the live window");
  }

  // The generated XPEs carry no predicates, so a path's verdict depends on
  // its element names only: classify each distinct name sequence once.
  std::map<std::vector<std::string>, Verdict> verdict_cache;
  StreamPathExtractor extractor;
  for (std::size_t i = 0; i < kDocPool; ++i) {
    Doc doc;
    doc.xml = generate_document(dtd, rng).serialize();
    extractor.extract(doc.xml);
    for (const Path& path : extractor.paths()) {
      auto [it, fresh] = verdict_cache.try_emplace(path.elements);
      if (fresh) it->second = perfbench::classify(path, in.steady, in.pool);
      doc.verdicts.push_back(it->second);
      if (it->second.steady) ++doc.required;
    }
    in.paths += doc.verdicts.size();
    in.docs.push_back(std::move(doc));
  }
  return in;
}

// -- The live rig -------------------------------------------------------------

/// S's per-path arrival log, filled on S's loop thread.
class Arrivals {
 public:
  struct Arrival {
    std::uint64_t doc_id;
    std::uint32_t path_id;
    double latency_ms;
  };

  void record(const PublishMsg& pub) {
    double latency = now_ms() - pub.publish_time;
    std::uint64_t n = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      log_.push_back(Arrival{pub.doc_id, pub.path_id, latency});
      n = ++count_;
    }
    if (n >= wake_at_.load(std::memory_order_acquire)) cv_.notify_one();
  }

  std::uint64_t count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  /// Blocks until `target` arrivals were recorded; false on timeout.
  bool wait_for(std::uint64_t target, double timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_at_.store(target, std::memory_order_release);
    bool ok = cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms),
        [&] { return count_ >= target; });
    wake_at_.store(UINT64_MAX, std::memory_order_release);
    return ok;
  }

  std::vector<Arrival> snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Arrival> log_;
  std::uint64_t count_ = 0;
  std::atomic<std::uint64_t> wake_at_{UINT64_MAX};
};

/// Per-peer series of one of a broker's "transport.*" counters, keyed by
/// (peer label, direction), read from its metrics export. The export runs
/// on the broker's loop thread between two frame handlers, so a reading
/// never sees a frame counted but half processed.
using PeerSeries = std::map<std::pair<std::string, std::string>, std::uint64_t>;

PeerSeries peer_series(TransportBroker& broker, const std::string& name) {
  PeerSeries series;
  std::istringstream json(broker.metrics_json());
  const std::string head = "\"name\": \"" + name + "\"";
  auto label = [](const std::string& line, const std::string& key) {
    const std::string tag = "\"" + key + "\": \"";
    std::size_t at = line.find(tag);
    if (at == std::string::npos) return std::string();
    at += tag.size();
    return line.substr(at, line.find('"', at) - at);
  };
  std::string line;
  while (std::getline(json, line)) {
    std::size_t value = line.find("\"value\": ");
    if (line.find(head) == std::string::npos || value == std::string::npos) {
      continue;
    }
    series[{label(line, "peer"), label(line, "dir")}] +=
        std::stoull(line.substr(value + 9));
  }
  return series;
}

std::uint64_t bytes_out(TransportBroker& broker) {
  std::uint64_t total = 0;
  for (const auto& [key, value] : peer_series(broker, "transport.bytes")) {
    if (key.second == "out") total += value;
  }
  return total;
}

struct Rig {
  static constexpr int kPublisherId = 100;
  static constexpr int kSubscriberId = 101;

  std::unique_ptr<LoopbackOverlay> overlay;
  TransportClient* publisher = nullptr;
  TransportClient* subscriber = nullptr;
  std::shared_ptr<Arrivals> arrivals = std::make_shared<Arrivals>();
  std::uint64_t p_sent = 0;  ///< frames P was asked to send
  std::uint64_t s_sent = 0;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { tear_down(); }

  TransportBroker& b0() { return overlay->broker(0); }
  TransportBroker& b1() { return overlay->broker(1); }

  void publish(Message msg) {
    ++p_sent;
    publisher->send(std::move(msg));
  }
  void subscribe(Message msg) {
    ++s_sent;
    subscriber->send(std::move(msg));
  }

  /// Brokers stop first: a client that disconnects from a running broker
  /// has its whole table withdrawn, which at thousands of XPEs takes
  /// seconds and measures nothing.
  void tear_down() {
    if (!overlay) return;
    b1().stop();
    b0().stop();
    overlay.reset();
    p_sent = s_sent = 0;
    arrivals = std::make_shared<Arrivals>();
  }

  /// True when every frame sent on every link has been received and fully
  /// handled. Broker 0 is read before broker 1; whatever broker 1 sent by
  /// its reading must already have been handled by broker 0 at its own.
  bool quiet() {
    PeerSeries f0 = peer_series(b0(), "transport.frames");
    PeerSeries f1 = peer_series(b1(), "transport.frames");
    const std::string p = "client-" + std::to_string(kPublisherId);
    const std::string s = "client-" + std::to_string(kSubscriberId);
    return f0[{p, "in"}] == p_sent && f1[{s, "in"}] == s_sent &&
           f0[{"broker-1", "in"}] == f1[{"broker-0", "out"}] &&
           f1[{"broker-0", "in"}] == f0[{"broker-1", "out"}] &&
           f0[{p, "out"}] == publisher->frames_in() &&
           f1[{s, "out"}] == subscriber->frames_in();
  }

  /// Blocks until quiet() and returns the time it was first seen. Throws
  /// QuiescenceTimeout when the overlay never settles.
  double wait_quiet() {
    const double start = now_ms();
    for (;;) {
      if (quiet()) return now_ms();
      if (now_ms() - start > kQuietTimeoutMs) {
        throw QuiescenceTimeout("overlay did not go quiet within " +
                                std::to_string(kQuietTimeoutMs / 1000.0) +
                                " s");
      }
      sleep_ms(1.0);
    }
  }

  /// Connections lost, links down and forwards dropped for a dead peer.
  std::uint64_t connection_faults() {
    std::uint64_t faults = 0;
    for (TransportBroker* b : {&b0(), &b1()}) {
      faults += b->heartbeat_downs() + b->peer_down_drops() +
                b->handshake_timeouts();
      if (b->broker_peers() != 1) ++faults;
      if (b->client_peers() != 1) ++faults;
    }
    if (!publisher->connected()) ++faults;
    if (!subscriber->connected()) ++faults;
    return faults;
  }
};

/// Brings up a ready overlay and returns the set-up time in seconds:
/// brokers start, links and clients complete their handshakes, the
/// advertisements and S's steady table load, and the overlay is quiet.
double set_up(Rig& rig, const Inputs& in) {
  const double t0 = now_ms();
  LoopbackOverlay::Options opts;  // default BrokerOptions
  rig.overlay = std::make_unique<LoopbackOverlay>(chain(2), opts);
  if (!rig.overlay->start()) {
    throw std::runtime_error("overlay links never came up");
  }
  rig.publisher = &rig.overlay->attach_client(0, Rig::kPublisherId);
  rig.subscriber = &rig.overlay->attach_client(1, Rig::kSubscriberId);
  if (!rig.publisher->connected() || !rig.subscriber->connected()) {
    throw std::runtime_error("client handshake timed out");
  }
  std::shared_ptr<Arrivals> arrivals = rig.arrivals;
  rig.subscriber->set_message_handler([arrivals](const Message& msg) {
    if (msg.type() == MessageType::kPublish) {
      arrivals->record(std::get<PublishMsg>(msg.payload));
    }
  });
  for (const Advertisement& adv : in.advertisements) {
    rig.publish(Message::advertise(adv, 0));
  }
  rig.wait_quiet();
  // The table loads in chunks, each left to settle: one burst of
  // thousands of subscriptions keeps broker 1's loop busy for longer than
  // the heartbeat detector's down_after_ms, which then closes the link and
  // S's session and withdraws the whole table.
  for (std::size_t i = 0; i < in.steady.size(); ++i) {
    rig.subscribe(Message::subscribe(in.steady[i]));
    if ((i + 1) % kLoadChunk == 0) rig.wait_quiet();
  }
  return (rig.wait_quiet() - t0) / 1000.0;
}

/// S's churn over the pool: subscribe the next pool XPE until `live` of
/// them are live, then alternately unsubscribe the oldest and subscribe
/// the next. The table stays near steady + live entries however long the
/// churn runs, and a pool XPE is never subscribed twice at once.
class ChurnWindow {
 public:
  ChurnWindow(const std::vector<Xpe>& pool, std::size_t live)
      : pool_(pool), live_(live) {}

  Message next() {
    if (held_.size() >= live_) {
      const Xpe* oldest = held_.front();
      held_.pop_front();
      return Message::unsubscribe(*oldest);
    }
    const Xpe& xpe = pool_[next_];
    next_ = (next_ + 1) % pool_.size();
    held_.push_back(&xpe);
    return Message::subscribe(xpe);
  }

  /// Unsubscribes everything still live.
  std::vector<Message> drain() {
    std::vector<Message> out;
    for (const Xpe* xpe : held_) out.push_back(Message::unsubscribe(*xpe));
    held_.clear();
    return out;
  }

 private:
  const std::vector<Xpe>& pool_;
  std::size_t live_;
  std::size_t next_ = 0;
  std::deque<const Xpe*> held_;
};

/// Per-round state shared by the phases.
struct Run {
  const Workload& w;
  const Inputs& in;
  Rig& rig;
  DeliveryOracle oracle;
  StreamPathExtractor extractor;
  std::uint64_t next_doc_id = 1;
  std::size_t next_doc = 0;
  std::uint64_t paths_published = 0;
  std::uint64_t expected_sent = 0;

  Run(const Workload& workload, const Inputs& inputs, Rig& r)
      : w(workload), in(inputs), rig(r) {}

  /// Publishes the next pool document as `xroutectl pub` would; returns
  /// the number of deliveries S's steady table must see.
  std::size_t publish_next(double publish_time, bool pool_live) {
    const Doc& doc = in.docs[next_doc];
    next_doc = (next_doc + 1) % in.docs.size();
    const std::uint64_t doc_id = next_doc_id++;
    extractor.extract(doc.xml);
    std::vector<Path> paths = extractor.take_paths();
    if (paths.size() != doc.verdicts.size()) {
      throw std::logic_error("document extraction is not deterministic");
    }
    const auto count = static_cast<std::uint32_t>(paths.size());
    for (std::uint32_t i = 0; i < count; ++i) {
      PublishMsg msg;
      msg.path = std::move(paths[i]);
      msg.doc_id = doc_id;
      msg.path_id = i;
      msg.doc_bytes = doc.xml.size();
      msg.paths_in_doc = count;
      msg.publish_time = publish_time;
      rig.publish(Message{std::move(msg)});
      oracle.published(doc_id, i, doc.verdicts[i], pool_live);
    }
    paths_published += count;
    expected_sent += doc.required;
    return doc.required;
  }
};

struct ClosedResult {
  std::vector<double> window_rates;  ///< paths/s per kRateWindowMs window
  double cpu_us = 0;  ///< process CPU over the phase
  std::uint64_t paths = 0;
  std::uint64_t frames_out = 0;  ///< broker frames sent
  std::uint64_t bytes_out = 0;   ///< broker bytes sent (trace runs only)
};

ClosedResult closed_loop(Run& run, double seconds, bool count_bytes) {
  Rig& rig = run.rig;
  ClosedResult r;
  const std::uint64_t base = rig.arrivals->count();
  const std::uint64_t expected0 = run.expected_sent;
  const std::uint64_t paths0 = run.paths_published;
  const std::uint64_t frames0 = rig.b0().frames_out() + rig.b1().frames_out();
  const std::uint64_t bytes0 =
      count_bytes ? bytes_out(rig.b0()) + bytes_out(rig.b1()) : 0;
  const double cpu0 = process_cpu_us();
  const double start = now_ms();
  const double stop = start + seconds * 1000.0;
  // Paths published per window; window 0 is warm-up and the last, partial
  // window is dropped. A median over windows shrugs off a stalled moment.
  std::vector<std::uint64_t> window_paths;
  for (double t = start; t < stop; t = now_ms()) {
    const auto window = static_cast<std::size_t>((t - start) / kRateWindowMs);
    if (window_paths.size() <= window) window_paths.resize(window + 1, 0);
    const std::uint64_t before = run.paths_published;
    run.publish_next(t, false);
    window_paths[window] += run.paths_published - before;
    const std::uint64_t sent = run.expected_sent - expected0;
    if (sent >= kWindow &&
        !rig.arrivals->wait_for(base + sent - kWindow / 2,
                                kWindowTimeoutMs)) {
      throw QuiescenceTimeout("closed loop: deliveries stalled");
    }
  }
  if (!rig.arrivals->wait_for(base + run.expected_sent - expected0,
                              kWindowTimeoutMs)) {
    throw QuiescenceTimeout("closed loop: final deliveries never arrived");
  }
  const double cpu = process_cpu_us() - cpu0;
  rig.wait_quiet();
  const auto full = static_cast<std::size_t>(seconds * 1000.0 / kRateWindowMs);
  for (std::size_t i = 1; i < full && i < window_paths.size(); ++i) {
    r.window_rates.push_back(static_cast<double>(window_paths[i]) * 1000.0 /
                             kRateWindowMs);
  }
  if (r.window_rates.empty()) {
    throw std::logic_error("closed loop shorter than two rate windows");
  }
  r.paths = run.paths_published - paths0;
  r.cpu_us = cpu;
  r.frames_out = rig.b0().frames_out() + rig.b1().frames_out() - frames0;
  if (count_bytes) {
    r.bytes_out = bytes_out(rig.b0()) + bytes_out(rig.b1()) - bytes0;
  }
  return r;
}

struct OpenResult {
  std::uint64_t first_doc = 0;
  std::uint64_t end_doc = 0;   ///< one past the last doc id
  std::vector<double> late_ms; ///< how late each document went out
};

/// Publishes at a fixed path rate, timed from each document's due time,
/// with S churning pool XPEs at a fixed op rate beside it when set.
OpenResult open_loop(Run& run, double seconds) {
  const Workload& w = run.w;
  Rig& rig = run.rig;
  OpenResult r;
  r.first_doc = run.next_doc_id;
  const bool churn = w.churn_rate > 0;
  ChurnWindow window(run.in.pool, kLive);
  const double start = now_ms() + 5.0;
  const double stop = start + seconds * 1000.0;
  double doc_due = start;
  double op_due = churn ? start : stop;
  for (;;) {
    const bool doc_next = doc_due <= op_due;
    const double due = doc_next ? doc_due : op_due;
    if (due >= stop) break;
    std::this_thread::sleep_until(at_ms(due));
    if (doc_next) {
      r.late_ms.push_back(now_ms() - due);
      std::size_t paths = run.in.docs[run.next_doc].verdicts.size();
      run.publish_next(due, churn);
      doc_due += static_cast<double>(paths) * 1000.0 / w.open_rate;
    } else {
      r.late_ms.push_back(now_ms() - due);
      rig.subscribe(window.next());
      op_due += 1000.0 / w.churn_rate;
    }
  }
  for (Message& msg : window.drain()) rig.subscribe(std::move(msg));
  r.end_doc = run.next_doc_id;
  rig.wait_quiet();
  return r;
}

struct ControlResult {
  std::vector<double> burst_rates;  ///< ops/s of each burst
  std::uint64_t ops = 0;
  std::uint64_t frames = 0;  ///< broker 1 -> broker 0 control frames
};

/// Control-only bursts of `burst_ops` churn ops from S, each timed until
/// the overlay is quiet.
ControlResult control_bursts(Run& run, double seconds) {
  Rig& rig = run.rig;
  ControlResult r;
  const std::uint64_t ctl0 = rig.b0().frames_in();  // P is idle: all from b1
  ChurnWindow window(run.in.pool, kLive);
  const double stop = now_ms() + seconds * 1000.0;
  while (r.ops == 0 || now_ms() < stop) {
    const double t0 = now_ms();
    for (std::size_t i = 0; i < run.w.burst_ops; ++i) {
      rig.subscribe(window.next());
    }
    const double busy_ms = rig.wait_quiet() - t0;
    r.burst_rates.push_back(static_cast<double>(run.w.burst_ops) * 1000.0 /
                            busy_ms);
    r.ops += run.w.burst_ops;
  }
  r.frames = rig.b0().frames_in() - ctl0;
  for (Message& msg : window.drain()) rig.subscribe(std::move(msg));
  rig.wait_quiet();
  return r;
}

/// One run's live measurements. Every round sets up a fresh overlay with
/// its own table and runs each phase for its share of the round. Rates
/// are medians over every closed-loop window and control burst of all
/// rounds. notify_p50_ms is the lowest of the rounds' p50s: a round's
/// connections keep one delayed-ACK pattern throughout, and on a host
/// whose other tenants keep its cores busy every wake-up along the chain
/// waits, so a contended round's p50 is two to three times a quiet one's
/// while its throughput drops by a fifth. Such noise only ever adds
/// latency; the quietest round is the program's own figure.
/// notify_p99_ms pools the samples of all rounds, since a tail needs
/// every sample it can get. On a shared VM, CPU speed wanders by a tenth
/// from one moment to the next, so many short measurements and a median
/// beat one long average.
struct LiveResult {
  std::vector<double> setup_s;
  std::vector<double> pubs_per_s;
  std::vector<double> sub_ops_per_s;
  std::vector<double> p50_ms;  ///< per round
  std::vector<double> latencies_ms;
  std::vector<double> late_ms;
  std::uint64_t closed_paths = 0;
  double closed_cpu_us = 0;
  std::uint64_t closed_frames_out = 0;
  std::uint64_t closed_bytes_out = 0;
  std::uint64_t control_ops = 0;
  std::uint64_t control_frames = 0;
  DeliveryOracle::Report oracle;
  std::uint64_t faults = 0;
  std::uint64_t backpressure = 0;
  std::string b0_state, b1_state;  ///< routing state right after set-up
};

LiveResult run_live(const Workload& w, const std::vector<Inputs>& inputs,
                    double seconds, bool trace) {
  LiveResult out;
  const std::size_t rounds = inputs.size();
  const double round_s = seconds / static_cast<double>(rounds);
  Rig rig;
  for (std::size_t round = 0; round < rounds; ++round) {
    const Inputs& in = inputs[round];
    rig.tear_down();
    out.setup_s.push_back(set_up(rig, in));
    if (trace) {
      out.b0_state = rig.b0().state_snapshot();
      out.b1_state = rig.b1().state_snapshot();
    }
    Run run(w, in, rig);
    ClosedResult closed = closed_loop(run, round_s * w.closed_share, trace);
    OpenResult open = open_loop(run, round_s * w.open_share);
    ControlResult control = control_bursts(run, round_s * w.control_share);
    rig.wait_quiet();

    out.pubs_per_s.insert(out.pubs_per_s.end(), closed.window_rates.begin(),
                          closed.window_rates.end());
    out.closed_paths += closed.paths;
    out.closed_cpu_us += closed.cpu_us;
    out.closed_frames_out += closed.frames_out;
    out.closed_bytes_out += closed.bytes_out;
    out.late_ms.insert(out.late_ms.end(), open.late_ms.begin(),
                       open.late_ms.end());
    out.sub_ops_per_s.insert(out.sub_ops_per_s.end(),
                             control.burst_rates.begin(),
                             control.burst_rates.end());
    out.control_ops += control.ops;
    out.control_frames += control.frames;
    std::vector<double> latencies;
    for (const Arrivals::Arrival& a : rig.arrivals->snapshot()) {
      run.oracle.arrived(a.doc_id, a.path_id);
      if (a.doc_id >= open.first_doc && a.doc_id < open.end_doc) {
        latencies.push_back(a.latency_ms);
      }
    }
    out.p50_ms.push_back(percentile(latencies, 0.50));
    out.latencies_ms.insert(out.latencies_ms.end(), latencies.begin(),
                            latencies.end());
    std::cerr << "overlay_bench: round " << round + 1 << "/" << rounds
              << ": set-up " << out.setup_s.back() << " s, "
              << percentile(closed.window_rates, 0.5) << " paths/s, p50 "
              << out.p50_ms.back() << " ms, p99 "
              << percentile(latencies, 0.99) << " ms, "
              << percentile(control.burst_rates, 0.5) << " ops/s\n";
    DeliveryOracle::Report report = run.oracle.report();
    out.oracle.expected += report.expected;
    out.oracle.delivered += report.delivered;
    out.oracle.missing += report.missing;
    out.oracle.spurious += report.spurious;
    out.oracle.duplicates += report.duplicates;
    out.faults += rig.connection_faults();
    out.backpressure += rig.b0().backpressure_engagements() +
                        rig.b1().backpressure_engagements();
  }
  return out;
}

// -- The traced replay --------------------------------------------------------

enum SpanName : std::uint32_t {
  kDocSpan,
  kExtract,
  kEncode,
  kDecode,
  kHandleB0,
  kMatchB0,
  kHandleB1,
  kMatchB1,
};

std::vector<std::string> span_names() {
  return {"doc",          "xml.extract",     "wire.encode",
          "wire.decode",  "router.handle.b0", "router.match.b0",
          "router.handle.b1", "router.match.b1"};
}

/// Collects a broker's output the way TransportBroker's EncodingSink does:
/// control messages are encoded, publications copy their arrival frame.
class FrameSink : public ForwardSink {
 public:
  explicit FrameSink(IfaceId link) : link_(link) {}
  void on_event(const DeliveryEvent& event) override {
    if (event.kind == DeliveryEvent::Kind::kSuppressed) {
      ++suppressed;
      return;
    }
    std::vector<std::uint8_t> bytes =
        event.frame.empty()
            ? wire::encode_frame(event.message())
            : std::vector<std::uint8_t>(event.frame.begin(), event.frame.end());
    (event.iface == link_ ? to_link : to_client).push_back(std::move(bytes));
  }
  std::vector<std::vector<std::uint8_t>> to_link;
  std::vector<std::vector<std::uint8_t>> to_client;
  std::uint64_t suppressed = 0;

 private:
  IfaceId link_;
};

/// Broker 0 and broker 1 rebuilt in-process, wired by frame queues. The
/// interface numbering is the live overlay's: the broker link completes
/// its handshake first (interface 0), then the client (interface 1).
struct ReplayPair {
  static constexpr IfaceId kLink{0};
  static constexpr IfaceId kClient{1};
  Broker b[2]{Broker(0, BrokerOptions{}), Broker(1, BrokerOptions{})};

  ReplayPair() {
    for (Broker& broker : b) {
      broker.add_neighbor(kLink);
      broker.add_client(kClient);
    }
  }

  /// A client control message into broker `home`, then every forward it
  /// causes, ping-ponged until none remain. Adds each broker's time in
  /// Broker::handle to busy_ns[broker].
  void control(int home, const Message& msg, double* busy_ns) {
    std::deque<std::pair<int, std::vector<std::uint8_t>>> queue;
    auto run = [&](int at, IfaceId from, const Message& m) {
      FrameSink sink(kLink);
      auto t0 = Clock::now();
      b[at].handle(from, m, sink);
      busy_ns[at] += std::chrono::duration<double, std::nano>(
                         Clock::now() - t0)
                         .count();
      for (auto& frame : sink.to_link) queue.emplace_back(1 - at, std::move(frame));
    };
    run(home, kClient, msg);
    while (!queue.empty()) {
      auto [at, frame] = std::move(queue.front());
      queue.pop_front();
      wire::Decoded decoded = wire::decode_frame(frame);
      if (!decoded.ok()) throw std::runtime_error("replay: bad control frame");
      run(at, kLink, decoded.message);
    }
  }
};

struct ReplayResult {
  double extract_ns_per_doc = 0;
  double encode_ns_per_frame = 0;
  double decode_ns_per_frame = 0;
  double match_ns_b0 = 0, match_ns_b1 = 0;
  double match_tests_b1 = 0;
  double forward_ns_b1 = 0;
  double deliveries_per_pub = 0;
  double suppressed_per_pub = 0;
  double layer_us_per_pub = 0;
  double control_us_b0 = 0, control_us_b1 = 0;
  double covers_tests_per_op = 0;
  double prt_b0 = 0, prt_b1 = 0;
  double trace_overhead_frac = 0;
  std::uint64_t mismatches = 0;  ///< deliveries differing from the oracle
  bool state_matches_live = false;
};

struct PubPassStats {
  double wall_ns = 0;
  std::uint64_t paths = 0, at_b1 = 0;
  std::uint64_t tests_b1 = 0, deliveries = 0, suppressed = 0;
  std::uint64_t mismatches = 0;
};

/// Replays every pool document once: extract, encode each path as P's
/// client does, decode_frame -> Broker::handle_batch at broker 0, the same
/// for every forwarded frame at broker 1, decode at S. Prt::match_hops is
/// called and timed separately beside each handle_batch.
PubPassStats replay_publications(ReplayPair& pair, const Inputs& in,
                                 SpanRecorder& spans, std::uint64_t doc_base) {
  PubPassStats st;
  StreamPathExtractor extractor;
  const auto t_start = Clock::now();
  for (std::size_t d = 0; d < in.docs.size(); ++d) {
    const Doc& doc = in.docs[d];
    const std::uint64_t doc_id = doc_base + d;
    SpanRecorder::Scope root(spans, kDocSpan, SpanRecorder::kNone, doc_id);
    const std::uint32_t parent = root.index();
    {
      SpanRecorder::Scope s(spans, kExtract, parent, doc_id);
      extractor.extract(doc.xml);
    }
    std::vector<Path> paths = extractor.take_paths();
    const auto count = static_cast<std::uint32_t>(paths.size());
    for (std::uint32_t i = 0; i < count; ++i) {
      PublishMsg pub;
      pub.path = std::move(paths[i]);
      pub.doc_id = doc_id;
      pub.path_id = i;
      pub.doc_bytes = doc.xml.size();
      pub.paths_in_doc = count;
      const Message msg{std::move(pub)};
      std::vector<std::uint8_t> frame;
      {
        SpanRecorder::Scope s(spans, kEncode, parent, doc_id);
        frame = wire::encode_frame(msg);
      }
      wire::Decoded at0;
      {
        SpanRecorder::Scope s(spans, kDecode, parent, doc_id);
        at0 = wire::decode_frame(frame);
      }
      FrameSink sink0(ReplayPair::kLink);
      Broker::Inbound in0{ReplayPair::kClient, &at0.message, at0.raw};
      {
        SpanRecorder::Scope s(spans, kHandleB0, parent, doc_id);
        pair.b[0].handle_batch(std::span<const Broker::Inbound>(&in0, 1), sink0);
      }
      const Path& path0 = std::get<PublishMsg>(at0.message.payload).path;
      {
        SpanRecorder::Scope s(spans, kMatchB0, parent, doc_id);
        (void)pair.b[0].prt().match_hops(path0);
      }
      std::uint64_t delivered = 0;
      for (const auto& fwd : sink0.to_link) {
        wire::Decoded at1;
        {
          SpanRecorder::Scope s(spans, kDecode, parent, doc_id);
          at1 = wire::decode_frame(fwd);
        }
        FrameSink sink1(ReplayPair::kLink);
        Broker::Inbound in1{ReplayPair::kLink, &at1.message, at1.raw};
        const std::size_t tests0 = pair.b[1].comparisons();
        Broker::HandleStatus status;
        {
          SpanRecorder::Scope s(spans, kHandleB1, parent, doc_id);
          status = pair.b[1].handle_batch(
              std::span<const Broker::Inbound>(&in1, 1), sink1);
        }
        st.tests_b1 += pair.b[1].comparisons() - tests0;
        const Path& path1 = std::get<PublishMsg>(at1.message.payload).path;
        {
          SpanRecorder::Scope s(spans, kMatchB1, parent, doc_id);
          (void)pair.b[1].prt().match_hops(path1);
        }
        ++st.at_b1;
        st.deliveries += status.deliveries;
        st.suppressed += status.suppressed_false_positives;
        for (const auto& out : sink1.to_client) {
          SpanRecorder::Scope s(spans, kDecode, parent, doc_id);
          wire::Decoded at_s = wire::decode_frame(out);
          if (at_s.ok()) ++delivered;
        }
      }
      if (delivered != (doc.verdicts[i].steady ? 1u : 0u)) ++st.mismatches;
    }
    st.paths += count;
  }
  st.wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t_start).count();
  return st;
}

ReplayResult run_replay(const Inputs& in, const LiveResult& live,
                        SpanRecorder& spans) {
  ReplayResult r;
  ReplayPair pair;
  double load_ns[2] = {0, 0};
  for (const Advertisement& adv : in.advertisements) {
    pair.control(0, Message::advertise(adv, 0), load_ns);
  }
  for (const Xpe& xpe : in.steady) {
    pair.control(1, Message::subscribe(xpe), load_ns);
  }
  r.state_matches_live = snapshot_to_string(pair.b[0]) == live.b0_state &&
                         snapshot_to_string(pair.b[1]) == live.b1_state;
  r.prt_b0 = static_cast<double>(pair.b[0].prt_size());
  r.prt_b1 = static_cast<double>(pair.b[1].prt_size());

  // Control plane: the op sequence the live control phase sent.
  double ctl_ns[2] = {0, 0};
  const std::size_t tests0 = pair.b[0].comparisons() + pair.b[1].comparisons();
  ChurnWindow window(in.pool, kLive);
  const std::uint64_t ops = live.control_ops;
  for (std::uint64_t i = 0; i < ops; ++i) pair.control(1, window.next(), ctl_ns);
  const auto dops = static_cast<double>(ops);
  r.control_us_b0 = ctl_ns[0] / 1000.0 / dops;
  r.control_us_b1 = ctl_ns[1] / 1000.0 / dops;
  r.covers_tests_per_op =
      static_cast<double>(pair.b[0].comparisons() + pair.b[1].comparisons() -
                          tests0) /
      dops;

  // Publications: one warm-up pass, then an untraced and a traced pass of
  // identical work (fresh doc ids: brokers drop repeated ones).
  spans.set_enabled(false);
  replay_publications(pair, in, spans, 1);
  PubPassStats plain = replay_publications(pair, in, spans, 1 + kDocPool);
  spans.set_enabled(true);
  PubPassStats st = replay_publications(pair, in, spans, 1 + 2 * kDocPool);
  r.trace_overhead_frac = st.wall_ns / plain.wall_ns - 1.0;

  const auto paths = static_cast<double>(st.paths);
  auto per = [&](SpanName n) {
    return spans.count(n) == 0
               ? 0.0
               : spans.total_ns(n) / static_cast<double>(spans.count(n));
  };
  r.extract_ns_per_doc = per(kExtract);
  r.encode_ns_per_frame = per(kEncode);
  r.decode_ns_per_frame = per(kDecode);
  r.match_ns_b0 = per(kMatchB0);
  r.match_ns_b1 = per(kMatchB1);
  r.forward_ns_b1 =
      st.at_b1 == 0 ? 0.0
                    : (spans.total_ns(kHandleB1) - spans.total_ns(kMatchB1)) /
                          static_cast<double>(st.at_b1);
  r.match_tests_b1 = st.at_b1 == 0 ? 0.0
                                   : static_cast<double>(st.tests_b1) /
                                         static_cast<double>(st.at_b1);
  r.deliveries_per_pub = static_cast<double>(st.deliveries) / paths;
  r.suppressed_per_pub = static_cast<double>(st.suppressed) / paths;
  // The layers a publication crosses, each counted once (the separate
  // match_hops calls repeat work already inside handle_batch).
  r.layer_us_per_pub =
      (spans.total_ns(kExtract) + spans.total_ns(kEncode) +
       spans.total_ns(kDecode) + spans.total_ns(kHandleB0) +
       spans.total_ns(kHandleB1)) /
      1000.0 / paths;
  r.mismatches = st.mismatches + plain.mismatches;
  return r;
}

// -- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 18;
  bool trace = false;
  std::string git_rev = "unknown";
  std::string spans_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw UsageError("--trace is 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--git-rev") {
        a.git_rev = value;
      } else if (flag == "--spans") {
        a.spans_file = value;
      } else {
        throw UsageError("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      throw UsageError("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 120)) {
    throw UsageError("--seconds must be in (0, 120]");
  }
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : workloads()) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) throw UsageError("unknown workload '" + args.workload + "'");

  const double gen_start = now_ms();
  const Dtd dtd = news_dtd();
  const std::vector<Advertisement> advertisements =
      derive_advertisements(dtd).advertisements;
  std::vector<Inputs> inputs;
  for (std::size_t r = 0; r < (args.trace ? 1 : w->rounds); ++r) {
    inputs.push_back(make_inputs(*w, dtd, advertisements, r, args.seed));
  }
  const Inputs& in = inputs.front();
  const double gen_s = (now_ms() - gen_start) / 1000.0;

  LiveResult live = run_live(*w, inputs, args.seconds, args.trace);
  if (live.oracle.expected == 0) {
    throw std::runtime_error("workload expected no deliveries at all");
  }
  const std::uint64_t failed = live.oracle.errors() + live.faults;
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(live.oracle.expected);
  bool correct = failed == 0;

  std::vector<Metric> metrics;
  std::ostringstream record;
  record << std::setprecision(10) << "{\"record\": {\"workload\": \""
         << w->name << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
         << "\", \"git_rev\": \"" << args.git_rev
         << "\", \"input_gen_s\": " << gen_s
         << ", \"doc_pool_paths\": " << in.paths
         << ", \"advertisements\": " << in.advertisements.size()
         << ", \"notify_samples\": " << live.latencies_ms.size()
         << ", \"closed_paths\": " << live.closed_paths
         << ", \"control_ops\": " << live.control_ops
         << ", \"expected\": " << live.oracle.expected
         << ", \"delivered\": " << live.oracle.delivered
         << ", \"missing\": " << live.oracle.missing
         << ", \"spurious\": " << live.oracle.spurious
         << ", \"duplicates\": " << live.oracle.duplicates
         << ", \"connection_faults\": " << live.faults
         << ", \"error_rate\": " << error_rate << ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < live.setup_s.size(); ++i) {
    record << (i ? ", " : "") << live.setup_s[i];
  }
  record << "]";

  if (live.latencies_ms.size() < 1000) {
    throw std::runtime_error("open loop gathered fewer than 1000 samples");
  }
  if (!args.trace) {
    metrics = {
        {"setup_s", percentile(live.setup_s, 0.5), "s"},
        {"pubs_per_s", percentile(live.pubs_per_s, 0.5), "paths/s"},
        {"notify_p50_ms",
         *std::min_element(live.p50_ms.begin(), live.p50_ms.end()), "ms"},
        {"notify_p99_ms", percentile(live.latencies_ms, 0.99), "ms"},
        {"sub_ops_per_s", percentile(live.sub_ops_per_s, 0.5), "ops/s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    SpanRecorder spans(span_names());
    ReplayResult rp = run_replay(in, live, spans);
    if (!rp.state_matches_live) {
      std::cerr << "overlay_bench: replayed routing state differs from the "
                   "live overlay's\n";
      correct = false;
    }
    if (rp.mismatches != 0) {
      std::cerr << "overlay_bench: " << rp.mismatches
                << " replayed deliveries disagree with the oracle\n";
      correct = false;
    }
    const auto closed_paths = static_cast<double>(live.closed_paths);
    const double cpu_us_per_pub = live.closed_cpu_us / closed_paths;
    metrics = {
        {"xml.extract_ns_per_doc", rp.extract_ns_per_doc, "ns/doc"},
        {"wire.encode_ns_per_frame", rp.encode_ns_per_frame, "ns/frame"},
        {"wire.decode_ns_per_frame", rp.decode_ns_per_frame, "ns/frame"},
        {"router.match_ns_per_pub.b0", rp.match_ns_b0, "ns/pub"},
        {"router.match_ns_per_pub.b1", rp.match_ns_b1, "ns/pub"},
        {"router.match_tests_per_pub.b1", rp.match_tests_b1, "tests/pub"},
        {"router.forward_ns_per_pub.b1", rp.forward_ns_b1, "ns/pub"},
        {"router.deliveries_per_pub", rp.deliveries_per_pub, "count/pub"},
        {"router.suppressed_per_pub", rp.suppressed_per_pub, "count/pub"},
        {"index.control_us_per_op.b0", rp.control_us_b0, "us/op"},
        {"index.control_us_per_op.b1", rp.control_us_b1, "us/op"},
        {"index.covers_tests_per_op", rp.covers_tests_per_op, "tests/op"},
        {"router.ctl_frames_per_op",
         static_cast<double>(live.control_frames) /
             static_cast<double>(live.control_ops),
         "frames/op"},
        {"index.prt_entries.b0", rp.prt_b0, "count"},
        {"index.prt_entries.b1", rp.prt_b1, "count"},
        {"index.upstream_ratio", rp.prt_b1 > 0 ? rp.prt_b0 / rp.prt_b1 : 0.0,
         "ratio"},
        {"transport.frames_per_pub",
         static_cast<double>(live.closed_frames_out) / closed_paths,
         "frames/pub"},
        {"transport.bytes_per_pub",
         static_cast<double>(live.closed_bytes_out) / closed_paths,
         "bytes/pub"},
        {"transport.backpressure_engagements",
         static_cast<double>(live.backpressure), "count"},
        {"cpu_us_per_pub", cpu_us_per_pub, "us/pub"},
        {"unattributed_us_per_pub",
         cpu_us_per_pub - rp.layer_us_per_pub, "us/pub"},
        {"gen_late_ms_p99", percentile(live.late_ms, 0.99), "ms"},
        {"trace_overhead_frac", rp.trace_overhead_frac, "fraction"},
        {"error_rate", error_rate, "fraction"},
        {"notify_samples", static_cast<double>(live.latencies_ms.size()),
         "count"},
    };
    if (!args.spans_file.empty() &&
        !spans.write_csv(args.spans_file, 200000)) {
      std::cerr << "overlay_bench: cannot write " << args.spans_file << "\n";
    }
  }
  record << "}}";
  std::cout << record.str() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << live.oracle.expected
            << ", \"failed\": " << failed
            << ", \"metrics\": " << json_metrics(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The library writes with plain ::write; a peer closing mid-write must
  // surface as an error, not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
#ifdef PERFBENCH_UNTIMEABLE_BUILD
  std::cerr << "overlay_bench: refusing to time a debug or sanitizer build ("
            << PERFBENCH_BUILD_TYPE << ")\n";
  return 2;
#endif
  try {
    return run(parse_args(argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "overlay_bench: " << e.what() << "\n";
    return 2;
  } catch (const QuiescenceTimeout& e) {
    std::cerr << "overlay_bench: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "overlay_bench: " << e.what() << "\n";
    return 1;
  }
}

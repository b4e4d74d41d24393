#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "broadcast/client.hpp"
#include "broadcast/scheduler.hpp"
#include "edge/edge_server.hpp"
#include "match/pub_match.hpp"
#include "net/topology.hpp"
#include "router/broker_options.hpp"
#include "scenario/workload.hpp"
#include "transport/broker_node.hpp"
#include "transport/client.hpp"
#include "util/error.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute::scenario {

namespace {

using transport::TransportBroker;
using transport::TransportClient;

/// Probe documents live on their own id range so delivery accounting can
/// separate them from workload documents.
constexpr std::uint64_t kProbeBase = std::uint64_t{1} << 40;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Topology build_topology(const Scenario& scenario) {
  Rng rng(scenario.seed ^ 0x746f706fULL);  // independent of the workload
  if (scenario.topology == "tree") {
    return complete_binary_tree(scenario.topology_size);
  }
  if (scenario.topology == "chain") return chain(scenario.topology_size);
  if (scenario.topology == "star") {
    if (scenario.topology_size < 2) {
      throw ParseError("scenario: star topology needs at least 2 brokers");
    }
    return star(scenario.topology_size - 1);
  }
  return random_connected(scenario.topology_size,
                          scenario.topology_size / 4, rng);
}

/// One broker slot. The TransportBroker object survives its own stop()
/// (a scripted kill) so its counters can be harvested before a restart
/// replaces it.
struct Node {
  std::unique_ptr<TransportBroker> broker;
  std::uint16_t port = 0;
  std::uint32_t incarnation = 0;
  bool up = false;
  std::vector<int> neighbors;
};

struct Subscriber {
  std::unique_ptr<TransportClient> client;
  int broker = -1;
  /// True when the client dials an EdgeServer instead of the broker
  /// itself; the delivery oracle is identical either way.
  bool via_edge = false;
  std::string xpe_text;
  Xpe xpe;
  /// Scenario time the subscriber's broker left for good (leave without
  /// restart); documents after this are not expected at this subscriber.
  double detached_at_ms = std::numeric_limits<double>::infinity();
};

struct DocRecord {
  std::uint64_t id = 0;
  std::size_t path_index = 0;
  double at_ms = 0.0;
  bool assured = true;
};

struct TimelineItem {
  enum Kind { kDoc, kEvent, kChurnOp };
  double at_ms = 0.0;
  Kind kind = kDoc;
  std::size_t index = 0;  ///< into docs, scenario.events or churn ops
};

/// One control-plane op of a scripted churn stream: churner `churner`
/// (un)subscribes `xpe_index` of the scenario pool. Expanded from kChurn
/// events before the run so the timeline merge stays one sorted pass.
struct ChurnOp {
  std::size_t churner = 0;
  std::size_t xpe_index = 0;
  bool subscribe = true;
};

/// A dedicated client driving live subscribe/unsubscribe against one
/// broker. Deliberately NOT a Subscriber: the delivery oracle must hold
/// for the stable subscribers *while* these mutate routing state, so
/// churners stay out of verify()'s bookkeeping entirely.
struct Churner {
  std::unique_ptr<TransportClient> client;
  int broker = -1;
};

class Runner {
 public:
  explicit Runner(const Scenario& scenario) : scenario_(scenario) {}

  ScenarioReport run();

 private:
  void build_config();
  TransportBroker::Options broker_options(int id, std::uint16_t port,
                                          std::uint32_t incarnation) const;
  void start_overlay();
  void attach_edge_servers();
  void attach_clients();
  void fail(const std::string& what);
  void harvest(const TransportBroker& broker);

  TransportClient::Options client_options(int id) const;
  bool wait_quiescent(double settle_ms, double timeout_ms);
  /// Publishes a probe and blocks until every attached subscriber on an
  /// up broker delivers it. Returns the round-trip in ms, -1 on timeout.
  double probe_convergence(double timeout_ms);
  bool subscriber_live(const Subscriber& sub) const;
  void resubscribe(Subscriber& sub);

  void open_window();
  void close_window();

  void run_event(const ScenarioEvent& event);
  void do_kill(const ScenarioEvent& event);
  void do_restart(const ScenarioEvent& event);
  void do_leave(const ScenarioEvent& event);
  void do_join(const ScenarioEvent& event);

  void publish_doc(const ScheduledDoc& doc);
  void attach_churners();
  void run_churn_op(const ChurnOp& op);
  void verify();
  void run_broadcast_pass(const BroadcastSpec& spec);

  const Scenario& scenario_;
  ScenarioReport report_;
  BrokerOptions config_;
  Topology topology_;
  std::map<int, Node> nodes_;
  /// Edge session layers, one per broker named by a `clients` directive.
  std::map<int, std::unique_ptr<edge::EdgeServer>> edge_hosts_;
  std::vector<Subscriber> subscribers_;
  std::vector<Churner> churners_;
  std::vector<ChurnOp> churn_ops_;
  std::vector<double> churn_op_times_;
  std::unique_ptr<TransportClient> publisher_;
  int publisher_broker_ = 0;
  std::vector<Path> paths_;
  std::vector<ScheduledDoc> schedule_;
  std::vector<DocRecord> docs_;
  std::uint64_t next_doc_id_ = 1;
  std::uint64_t next_probe_id_ = kProbeBase;
  Clock::time_point t0_;

  /// Disruption window bookkeeping: while any disruption is unresolved,
  /// published documents are best-effort. Disruptions overlap (a second
  /// broker can die before the first recovers), so this is a depth count
  /// — the window closes only when the LAST open disruption resolves.
  /// `window_since_` is scenario time the depth left zero.
  int window_depth_ = 0;
  double window_since_ = 0.0;
};

void Runner::fail(const std::string& what) {
  report_.ok = false;
  report_.failures.push_back(what);
}

void Runner::harvest(const TransportBroker& broker) {
  report_.resync_bytes += broker.resync_bytes_in();
  report_.peer_down_drops += broker.peer_down_drops();
  report_.spooled_frames += broker.spooled_frames();
  report_.heartbeat_downs += broker.heartbeat_downs();
  report_.suspect_events += broker.suspect_events();
  report_.handshake_timeouts += broker.handshake_timeouts();
}

void Runner::build_config() {
  // Advertisements off by default: the oracle is then pure XPE-vs-path
  // matching, independent of advertisement propagation timing. Scripts
  // can still switch them on; delivery assertions stay valid because the
  // runner waits for quiescence before t=0.
  config_.use_advertisements = false;
  for (const auto& [key, value] : scenario_.options) {
    if (std::string err = config_.parse_option(key, value);
        !err.empty()) {
      throw ParseError("scenario option " + key + ": " + err);
    }
  }
  if (std::string err = config_.validate(); !err.empty()) {
    throw ParseError("scenario broker config: " + err);
  }
}

TransportBroker::Options Runner::broker_options(
    int id, std::uint16_t port, std::uint32_t incarnation) const {
  TransportBroker::Options opts;
  opts.id = id;
  opts.config = config_;
  opts.listen_port = port;
  opts.incarnation = incarnation;
  opts.handshake_timeout_ms = 2000.0;
  opts.heartbeat.enabled = true;
  opts.heartbeat.interval_ms = scenario_.heartbeat_interval_ms;
  opts.heartbeat.suspect_after_ms = scenario_.suspect_after_ms;
  opts.heartbeat.down_after_ms = scenario_.down_after_ms;
  // Scenario lifetimes are milliseconds; redial fast so a restarted
  // broker's lower-id neighbours come back within the measured window.
  opts.dial_backoff = BackoffPolicy{25.0, 2.0, 200.0, -1};
  return opts;
}

TransportClient::Options Runner::client_options(int id) const {
  TransportClient::Options opts;
  opts.id = id;
  // Clients must beacon at least as fast as the brokers' detector looks,
  // or an idle subscriber reads as a dead peer.
  opts.heartbeat.interval_ms = scenario_.heartbeat_interval_ms;
  opts.heartbeat.suspect_after_ms = scenario_.suspect_after_ms;
  opts.heartbeat.down_after_ms = scenario_.down_after_ms;
  opts.dial_backoff = BackoffPolicy{25.0, 2.0, 200.0, -1};
  return opts;
}

void Runner::start_overlay() {
  topology_ = build_topology(scenario_);
  for (std::size_t i = 0; i < topology_.num_brokers; ++i) {
    nodes_[static_cast<int>(i)] = Node{};
  }
  for (auto [a, b] : topology_.edges) {
    nodes_[a].neighbors.push_back(b);
    nodes_[b].neighbors.push_back(a);
  }
  for (auto& [id, node] : nodes_) {
    node.broker =
        std::make_unique<TransportBroker>(broker_options(id, 0, 0));
    node.broker->start();
    node.port = node.broker->port();
    node.up = true;
  }
  // One connection per overlay link: the lower id dials the higher.
  for (auto [a, b] : topology_.edges) {
    auto [low, high] = std::minmax(a, b);
    nodes_[low].broker->connect_to("127.0.0.1", nodes_[high].port);
  }
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(15000);
  for (auto& [id, node] : nodes_) {
    while (node.broker->broker_peers() < node.neighbors.size()) {
      if (Clock::now() > deadline) {
        throw ParseError("scenario: overlay handshakes timed out");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

void Runner::attach_edge_servers() {
  if (scenario_.edge_swarms.empty()) return;
  // An edge host cannot be disrupted mid-run: its leased clients would
  // need transparent re-attachment, which the session layer deliberately
  // does not promise (leases lapse, clients re-acquire). Scripts that
  // want both must point the chaos at a different broker.
  std::set<int> disrupted;
  for (const ScenarioEvent& event : scenario_.events) {
    if (event.kind == EventKind::kKill || event.kind == EventKind::kLeave ||
        event.kind == EventKind::kRestart) {
      disrupted.insert(event.broker);
    }
  }
  for (const EdgeSwarmSpec& spec : scenario_.edge_swarms) {
    auto it = nodes_.find(spec.broker);
    if (it == nodes_.end()) {
      throw ParseError("scenario: clients directive targets unknown broker " +
                       std::to_string(spec.broker));
    }
    if (disrupted.count(spec.broker)) {
      throw ParseError(
          "scenario: broker " + std::to_string(spec.broker) +
          " hosts an edge swarm and cannot be killed/restarted/left");
    }
    if (edge_hosts_.count(spec.broker)) continue;  // one edge per broker
    edge::EdgeServer::Options opts;
    // A lapsed lease means a silently lost subscription — exactly what the
    // oracle would flag as a miss — so the default TTL sits far above the
    // client beacon period the scenario runs.
    opts.lease_ttl_ms = spec.lease_ttl_ms > 0
                            ? spec.lease_ttl_ms
                            : scenario_.heartbeat_interval_ms * 20.0;
    opts.sweep_interval_ms = std::min(100.0, opts.lease_ttl_ms / 4.0);
    // Beacon as fast as the brokers do, or the TransportClients' failure
    // detector declares the edge dead between publications.
    opts.heartbeat_interval_ms = scenario_.heartbeat_interval_ms;
    auto server = std::make_unique<edge::EdgeServer>(
        it->second.broker.get(), opts);
    server->start();
    edge_hosts_[spec.broker] = std::move(server);
  }
}

bool Runner::subscriber_live(const Subscriber& sub) const {
  if (!std::isinf(sub.detached_at_ms)) return false;
  auto it = nodes_.find(sub.broker);
  return it != nodes_.end() && it->second.up;
}

void Runner::resubscribe(Subscriber& sub) {
  sub.client->send(Message::subscribe(parse_xpe(sub.xpe_text)));
  sub.client->send(Message::subscribe(parse_xpe("/probe")));
  sub.client->sync();
}

void Runner::attach_clients() {
  Rng rng(scenario_.seed ^ 0x73756273ULL);
  std::vector<int> initial_ids;
  for (const auto& [id, node] : nodes_) initial_ids.push_back(id);
  for (std::size_t i = 0; i < scenario_.subscribers; ++i) {
    Subscriber sub;
    sub.broker = initial_ids[i % initial_ids.size()];
    sub.xpe_text = scenario_.xpes[rng.index(scenario_.xpes.size())];
    sub.xpe = parse_xpe(sub.xpe_text);
    sub.client = std::make_unique<TransportClient>(
        client_options(100 + static_cast<int>(i)));
    sub.client->start("127.0.0.1", nodes_[sub.broker].port);
    if (!sub.client->wait_connected(10000)) {
      throw ParseError("scenario: subscriber handshake timed out");
    }
    resubscribe(sub);
    subscribers_.push_back(std::move(sub));
  }
  // Edge swarms: each `clients` directive adds leased sessions through
  // the broker's EdgeServer. They fold into the same subscribers_ vector,
  // so quiescence, probes and the delivery oracle treat them identically
  // to direct subscribers — the run then proves edge delivery matches
  // broker delivery for free.
  int edge_id = 1000;
  for (const EdgeSwarmSpec& spec : scenario_.edge_swarms) {
    std::uint16_t edge_port = edge_hosts_.at(spec.broker)->port();
    for (std::size_t i = 0; i < spec.count; ++i) {
      Subscriber sub;
      sub.broker = spec.broker;
      sub.via_edge = true;
      sub.xpe_text = scenario_.xpes[rng.index(scenario_.xpes.size())];
      sub.xpe = parse_xpe(sub.xpe_text);
      sub.client = std::make_unique<TransportClient>(client_options(edge_id++));
      sub.client->start("127.0.0.1", edge_port);
      if (!sub.client->wait_connected(10000)) {
        throw ParseError("scenario: edge client handshake timed out");
      }
      resubscribe(sub);
      subscribers_.push_back(std::move(sub));
    }
  }
  // The publisher rides a broker no membership event targets, so the
  // publication stream itself survives the chaos.
  std::set<int> disrupted;
  for (const ScenarioEvent& event : scenario_.events) {
    if (event.kind == EventKind::kKill || event.kind == EventKind::kLeave ||
        event.kind == EventKind::kRestart) {
      disrupted.insert(event.broker);
    }
  }
  publisher_broker_ = initial_ids.front();
  for (int id : initial_ids) {
    if (!disrupted.count(id)) {
      publisher_broker_ = id;
      break;
    }
  }
  publisher_ = std::make_unique<TransportClient>(client_options(99));
  publisher_->start("127.0.0.1", nodes_[publisher_broker_].port);
  if (!publisher_->wait_connected(10000)) {
    throw ParseError("scenario: publisher handshake timed out");
  }
}

void Runner::attach_churners() {
  Rng rng(scenario_.seed ^ 0x6368726eULL);
  for (const ScenarioEvent& event : scenario_.events) {
    if (event.kind != EventKind::kChurn) continue;
    auto it = nodes_.find(event.broker);
    if (it == nodes_.end()) {
      throw ParseError("scenario: churn targets unknown broker " +
                       std::to_string(event.broker));
    }
    Churner churner;
    churner.broker = event.broker;
    churner.client = std::make_unique<TransportClient>(
        client_options(200 + static_cast<int>(churners_.size())));
    churner.client->start("127.0.0.1", it->second.port);
    if (!churner.client->wait_connected(10000)) {
      throw ParseError("scenario: churner handshake timed out");
    }
    // Expand the stream into discrete ops now: a deterministic
    // subscribe/unsubscribe alternation over the scenario's XPE pool, so
    // every subscription the churner adds is withdrawn one op later and
    // the run ends with no residue beyond at most one live entry.
    const std::size_t churner_index = churners_.size();
    double step = 1000.0 / event.docs_per_sec;
    std::size_t op_number = 0;
    for (double t = event.at_ms; t < event.until_ms; t += step) {
      ChurnOp op;
      op.churner = churner_index;
      op.xpe_index = (op_number / 2 + rng.index(scenario_.xpes.size())) %
                     scenario_.xpes.size();
      op.subscribe = op_number % 2 == 0;
      // Unsubscribe must target what the previous op subscribed.
      if (!op.subscribe && !churn_ops_.empty()) {
        op.xpe_index = churn_ops_.back().xpe_index;
      }
      churn_ops_.push_back(op);
      churn_op_times_.push_back(t);
      ++op_number;
    }
    churners_.push_back(std::move(churner));
  }
}

void Runner::run_churn_op(const ChurnOp& op) {
  Churner& churner = churners_[op.churner];
  auto it = nodes_.find(churner.broker);
  if (it == nodes_.end() || !it->second.up) return;  // broker died mid-churn
  const Xpe xpe = parse_xpe(scenario_.xpes[op.xpe_index]);
  churner.client->send(op.subscribe ? Message::subscribe(xpe)
                                    : Message::unsubscribe(xpe));
}

bool Runner::wait_quiescent(double settle_ms, double timeout_ms) {
  auto total_frames = [&] {
    std::uint64_t frames = 0;
    for (const auto& [id, node] : nodes_) {
      if (!node.up) continue;
      frames += node.broker->frames_in();
    }
    for (const Subscriber& sub : subscribers_) {
      frames += sub.client->frames_in();
    }
    for (const Churner& churner : churners_) {
      frames += churner.client->frames_in();
    }
    if (publisher_) frames += publisher_->frames_in();
    return frames;
  };
  Clock::time_point deadline =
      Clock::now() +
      std::chrono::milliseconds(static_cast<long>(timeout_ms));
  std::uint64_t last = total_frames();
  Clock::time_point stable_since = Clock::now();
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::uint64_t frames = total_frames();
    if (frames != last) {
      last = frames;
      stable_since = Clock::now();
      continue;
    }
    if (std::chrono::duration<double, std::milli>(Clock::now() -
                                                  stable_since)
            .count() >= settle_ms) {
      return true;
    }
  }
  return false;
}

double Runner::probe_convergence(double timeout_ms) {
  std::vector<Subscriber*> targets;
  for (Subscriber& sub : subscribers_) {
    if (subscriber_live(sub)) targets.push_back(&sub);
  }
  if (targets.empty()) return 0.0;
  std::uint64_t probe_id = next_probe_id_++;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::milliseconds(static_cast<long>(timeout_ms));
  PublishMsg probe;
  probe.path = parse_path("/probe");
  probe.doc_id = probe_id;
  probe.doc_bytes = 16;
  // Re-publish on a short period: a probe sent while a link is still
  // resynchronising can fall into the disruption it is measuring, and
  // probes are idempotent at the subscriber (dedup by doc id — a repeat
  // counts as a duplicate, so each retry uses a fresh id).
  while (Clock::now() < deadline) {
    publisher_->send(Message{probe});
    Clock::time_point retry =
        Clock::now() + std::chrono::milliseconds(200);
    while (Clock::now() < retry) {
      bool all = std::all_of(
          targets.begin(), targets.end(), [&](Subscriber* sub) {
            return sub->client->delivered_docs().count(probe.doc_id) != 0;
          });
      if (all) return ms_since(start);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe.doc_id = next_probe_id_++;
  }
  return -1.0;
}

void Runner::open_window() {
  double now = ms_since(t0_);
  if (window_depth_++ == 0) window_since_ = now;
  // Documents already in flight when the disruption hit may die with it:
  // retroactively downgrade everything published within the detection
  // horizon (the failure detector's down deadline plus slack). Runs on
  // every open, not just the first — each new disruption has its own
  // in-flight tail.
  double margin = scenario_.down_after_ms + 200.0;
  for (DocRecord& doc : docs_) {
    if (doc.assured && doc.at_ms >= now - margin) {
      doc.assured = false;
    }
  }
}

void Runner::close_window() {
  if (window_depth_ == 0) return;
  if (--window_depth_ == 0) {
    report_.loss_window_ms += ms_since(t0_) - window_since_;
  }
}

void Runner::publish_doc(const ScheduledDoc& doc) {
  DocRecord record;
  record.id = next_doc_id_++;
  record.path_index = doc.path_index;
  record.at_ms = ms_since(t0_);
  record.assured = window_depth_ == 0;
  PublishMsg pub;
  pub.path = paths_[doc.path_index];
  pub.doc_id = record.id;
  pub.doc_bytes = 200;
  publisher_->send(Message{pub});
  docs_.push_back(record);
}

void Runner::do_kill(const ScenarioEvent& event) {
  auto it = nodes_.find(event.broker);
  if (it == nodes_.end() || !it->second.up) {
    throw ParseError("scenario: kill of unknown or down broker " +
                     std::to_string(event.broker));
  }
  open_window();
  // stop() without leave(): no goodbye on the wire, so peers must detect
  // the death through the failure detector — the scripted equivalent of
  // SIGKILL mid-stream.
  it->second.broker->stop();
  it->second.up = false;
  MembershipRecord record;
  record.at_ms = ms_since(t0_);
  record.kind = "kill";
  record.broker = event.broker;
  record.convergence_ms = 0.0;
  report_.membership.push_back(record);
}

void Runner::do_restart(const ScenarioEvent& event) {
  auto it = nodes_.find(event.broker);
  if (it == nodes_.end() || it->second.up || !it->second.broker) {
    throw ParseError("scenario: restart of unknown or running broker " +
                     std::to_string(event.broker));
  }
  Node& node = it->second;
  Clock::time_point start = Clock::now();
  double when = ms_since(t0_);
  harvest(*node.broker);
  node.broker.reset();
  node.incarnation += 1;
  // Same port (so surviving lower-id neighbours redial straight back in),
  // bumped incarnation (so peers accept the rejoin over any zombie state).
  node.broker = std::make_unique<TransportBroker>(
      broker_options(event.broker, node.port, node.incarnation));
  node.broker->start();
  node.up = true;
  std::vector<std::pair<std::string, std::uint16_t>> dials;
  std::size_t live_neighbors = 0;
  for (int neighbor : node.neighbors) {
    auto nit = nodes_.find(neighbor);
    if (nit == nodes_.end() || !nit->second.up) continue;
    ++live_neighbors;
    if (neighbor > event.broker) {
      dials.emplace_back("127.0.0.1", nit->second.port);
    }
  }
  node.broker->join(std::move(dials), live_neighbors);
  Clock::time_point deadline = Clock::now() + std::chrono::seconds(15);
  while (node.broker->resyncs_completed() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (node.broker->resyncs_completed() == 0) {
    fail("restart " + std::to_string(event.broker) +
         ": resync never completed");
  }
  // Edge clients reconnect on their own (the dialer retries), but their
  // subscriptions died with the old incarnation's interfaces: re-issue.
  for (Subscriber& sub : subscribers_) {
    if (sub.broker != event.broker || !std::isinf(sub.detached_at_ms)) {
      continue;
    }
    while (!sub.client->connected() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!sub.client->connected()) {
      fail("restart " + std::to_string(event.broker) +
           ": subscriber never reconnected");
      continue;
    }
    resubscribe(sub);
  }
  MembershipRecord record;
  record.at_ms = when;
  record.kind = "restart";
  record.broker = event.broker;
  record.resync_bytes = node.broker->resync_bytes_in();
  if (probe_convergence(15000) < 0) {
    fail("restart " + std::to_string(event.broker) +
         ": overlay never reconverged");
    record.convergence_ms = -1.0;
  } else {
    record.convergence_ms = ms_since(start);
    close_window();
  }
  report_.membership.push_back(record);
}

void Runner::do_leave(const ScenarioEvent& event) {
  auto it = nodes_.find(event.broker);
  if (it == nodes_.end() || !it->second.up) {
    throw ParseError("scenario: leave of unknown or down broker " +
                     std::to_string(event.broker));
  }
  open_window();
  Clock::time_point start = Clock::now();
  double when = ms_since(t0_);
  // Subscribers on the leaver go with it: their routes are handed back,
  // and from here on no document is expected at them.
  for (Subscriber& sub : subscribers_) {
    if (sub.broker == event.broker && std::isinf(sub.detached_at_ms)) {
      sub.detached_at_ms = when;
      sub.client->stop();
    }
  }
  bool clean = it->second.broker->leave(5000.0);
  it->second.up = false;
  MembershipRecord record;
  record.at_ms = when;
  record.kind = "leave";
  record.broker = event.broker;
  record.convergence_ms = probe_convergence(15000);
  if (record.convergence_ms < 0) {
    fail("leave " + std::to_string(event.broker) +
         ": overlay never reconverged");
  } else {
    record.convergence_ms = ms_since(start);
    close_window();
  }
  if (!clean) {
    fail("leave " + std::to_string(event.broker) +
         ": send queues missed the flush deadline");
  }
  report_.membership.push_back(record);
}

void Runner::do_join(const ScenarioEvent& event) {
  if (nodes_.count(event.broker)) {
    throw ParseError("scenario: join broker id " +
                     std::to_string(event.broker) + " already exists");
  }
  std::vector<std::pair<std::string, std::uint16_t>> dials;
  for (int neighbor : event.neighbors) {
    auto nit = nodes_.find(neighbor);
    if (nit == nodes_.end() || !nit->second.up) {
      throw ParseError("scenario: join targets unknown or down broker " +
                       std::to_string(neighbor));
    }
    dials.emplace_back("127.0.0.1", nit->second.port);
  }
  Clock::time_point start = Clock::now();
  Node node;
  node.neighbors = event.neighbors;
  node.broker = std::make_unique<TransportBroker>(
      broker_options(event.broker, 0, 0));
  node.broker->start();
  node.port = node.broker->port();
  node.up = true;
  node.broker->join(std::move(dials));
  for (int neighbor : event.neighbors) {
    nodes_[neighbor].neighbors.push_back(event.broker);
  }
  TransportBroker& broker = *node.broker;
  nodes_[event.broker] = std::move(node);
  Clock::time_point deadline = Clock::now() + std::chrono::seconds(15);
  while (broker.resyncs_completed() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  MembershipRecord record;
  record.at_ms = ms_since(t0_);
  record.kind = "join";
  record.broker = event.broker;
  if (broker.resyncs_completed() == 0) {
    fail("join " + std::to_string(event.broker) +
         ": resync never completed");
    record.convergence_ms = -1.0;
  } else {
    record.resync_bytes = broker.resync_bytes_in();
    // A join disrupts nothing — existing routes are untouched — so the
    // probe is a sanity check, not a loss-window close.
    record.convergence_ms = probe_convergence(15000);
    if (record.convergence_ms >= 0) record.convergence_ms = ms_since(start);
  }
  report_.membership.push_back(record);
}

void Runner::run_event(const ScenarioEvent& event) {
  switch (event.kind) {
    case EventKind::kKill: do_kill(event); break;
    case EventKind::kRestart: do_restart(event); break;
    case EventKind::kLeave: do_leave(event); break;
    case EventKind::kJoin: do_join(event); break;
    case EventKind::kPublishBurst:
    case EventKind::kRate:
    case EventKind::kDiurnal:
    case EventKind::kChurn:
      break;  // expanded into the schedule / churn-op stream up front
  }
}

void Runner::verify() {
  // Membership events left open-ended (kill with no restart) keep the
  // window open to the end of the run.
  while (window_depth_ > 0) close_window();
  report_.docs_published = docs_.size();
  for (const DocRecord& doc : docs_) {
    if (doc.assured) {
      ++report_.docs_assured;
    } else {
      ++report_.docs_best_effort;
    }
  }
  for (std::size_t s = 0; s < subscribers_.size(); ++s) {
    const Subscriber& sub = subscribers_[s];
    std::set<std::uint64_t> delivered = sub.client->delivered_docs();
    report_.duplicates += sub.client->duplicate_publications();
    std::set<std::uint64_t> matching;
    // A subscriber detached by a planned leave stops being owed anything
    // published after (or just before) its departure.
    double horizon = std::isinf(sub.detached_at_ms)
                         ? std::numeric_limits<double>::infinity()
                         : sub.detached_at_ms -
                               (scenario_.down_after_ms + 200.0);
    for (const DocRecord& doc : docs_) {
      if (!matches(paths_[doc.path_index], sub.xpe)) continue;
      matching.insert(doc.id);
      if (doc.assured && doc.at_ms < horizon &&
          !delivered.count(doc.id)) {
        fail("subscriber " + std::to_string(s) + " (" + sub.xpe_text +
             ") missed assured doc " + std::to_string(doc.id));
      } else if (!doc.assured && !delivered.count(doc.id) &&
                 doc.at_ms < horizon) {
        ++report_.best_effort_losses;
      }
    }
    for (std::uint64_t id : delivered) {
      if (id >= kProbeBase) continue;  // probes match everyone
      if (!matching.count(id)) {
        fail("subscriber " + std::to_string(s) + " (" + sub.xpe_text +
             ") received non-matching doc " + std::to_string(id));
      }
    }
  }
  if (report_.duplicates != 0) {
    fail("duplicate deliveries: " + std::to_string(report_.duplicates));
  }
}

// Broadcast pass (`broadcast` directive): replays the run's published
// documents through a BroadcastScheduler and audits `spec.tuners` clients
// tuning the channel tapes against the same matcher the delivery oracle
// uses. Runs after verify() on the run's own workload, so the air carries
// exactly the documents the overlay routed.
void Runner::run_broadcast_pass(const BroadcastSpec& spec) {
  broadcast::BroadcastScheduler scheduler(
      broadcast::BroadcastOptions{spec.channels, spec.cycle_length});
  for (const DocRecord& doc : docs_) {
    PublishMsg pub;
    pub.path = paths_[doc.path_index];
    pub.doc_id = doc.id;
    pub.doc_bytes = 200;
    scheduler.enqueue(pub);
  }
  scheduler.flush();

  report_.broadcast_ran = true;
  report_.broadcast_channels = spec.channels;
  report_.broadcast_tuners += spec.tuners;
  std::uint64_t index_bytes = 0, data_bytes = 0;
  for (std::uint32_t ch = 0; ch < scheduler.channels(); ++ch) {
    report_.broadcast_cycles += scheduler.stats(ch).cycles;
    index_bytes += scheduler.stats(ch).index_bytes;
    data_bytes += scheduler.stats(ch).data_bytes;
  }
  report_.broadcast_utilization =
      index_bytes + data_bytes == 0
          ? 0.0
          : static_cast<double>(data_bytes) /
                static_cast<double>(index_bytes + data_bytes);

  Rng rng(scenario_.seed ^ 0xb40adca57ull);
  double doze_sum = 0.0, tuning_sum = 0.0;
  double access_sum = 0.0;
  std::uint64_t access_samples = 0;
  for (std::size_t t = 0; t < spec.tuners; ++t) {
    std::string xpe_text = scenario_.xpes[rng.index(scenario_.xpes.size())];
    broadcast::BroadcastClient tuner({parse_xpe(xpe_text)});
    for (std::uint32_t ch : tuner.channels_needed(spec.channels)) {
      tuner.tune(scheduler.tape(ch));
    }
    for (std::uint32_t ch : tuner.channels_needed(spec.channels)) {
      broadcast::OracleReport audit =
          broadcast::oracle_check(scheduler.tape(ch), tuner);
      report_.broadcast_missed += audit.missed;
      report_.broadcast_spurious += audit.spurious;
      report_.broadcast_byte_mismatches += audit.byte_mismatches;
    }
    report_.broadcast_deliveries += tuner.stats().delivered;
    doze_sum += tuner.stats().doze_ratio();
    tuning_sum += static_cast<double>(tuner.stats().tuning_bytes);
    for (std::uint64_t bytes : tuner.stats().access_bytes) {
      access_sum += static_cast<double>(bytes);
      ++access_samples;
    }
  }
  if (spec.tuners > 0) {
    report_.broadcast_doze_ratio =
        doze_sum / static_cast<double>(spec.tuners);
    report_.broadcast_tuning_bytes =
        tuning_sum / static_cast<double>(spec.tuners);
  }
  if (access_samples > 0) {
    report_.broadcast_access_bytes =
        access_sum / static_cast<double>(access_samples);
  }
  if (report_.broadcast_missed != 0) {
    fail("broadcast: " + std::to_string(report_.broadcast_missed) +
         " index-guided doze misses");
  }
  if (report_.broadcast_spurious != 0) {
    fail("broadcast: " + std::to_string(report_.broadcast_spurious) +
         " spurious tuner deliveries");
  }
  if (report_.broadcast_byte_mismatches != 0) {
    fail("broadcast: " + std::to_string(report_.broadcast_byte_mismatches) +
         " deliveries differ byte-wise from the air");
  }
}

ScenarioReport Runner::run() {
  report_.name = scenario_.name;
  build_config();
  for (const std::string& text : scenario_.paths) {
    paths_.push_back(parse_path(text));
  }
  schedule_ = build_schedule(scenario_);
  start_overlay();
  attach_edge_servers();
  attach_clients();
  attach_churners();
  if (!wait_quiescent(scenario_.settle_ms, scenario_.warmup_timeout_ms)) {
    fail("warmup: overlay never went quiescent");
  }
  if (probe_convergence(10000) < 0) {
    fail("warmup: initial probe never delivered everywhere");
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      scenario_.warmup_ms));

  // Merge workload and membership into one timeline; same-instant ties
  // publish before they disrupt (the margin reclassifies those anyway).
  std::vector<TimelineItem> timeline;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    timeline.push_back(
        TimelineItem{schedule_[i].at_ms, TimelineItem::kDoc, i});
  }
  for (std::size_t i = 0; i < scenario_.events.size(); ++i) {
    const ScenarioEvent& event = scenario_.events[i];
    if (event.kind == EventKind::kKill || event.kind == EventKind::kRestart ||
        event.kind == EventKind::kLeave || event.kind == EventKind::kJoin) {
      timeline.push_back(TimelineItem{event.at_ms, TimelineItem::kEvent, i});
    }
  }
  for (std::size_t i = 0; i < churn_ops_.size(); ++i) {
    timeline.push_back(
        TimelineItem{churn_op_times_[i], TimelineItem::kChurnOp, i});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimelineItem& a, const TimelineItem& b) {
                     return a.at_ms < b.at_ms;
                   });

  t0_ = Clock::now();
  for (const TimelineItem& item : timeline) {
    double now = ms_since(t0_);
    if (item.at_ms > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(item.at_ms - now));
    }
    switch (item.kind) {
      case TimelineItem::kEvent:
        run_event(scenario_.events[item.index]);
        break;
      case TimelineItem::kChurnOp:
        run_churn_op(churn_ops_[item.index]);
        break;
      case TimelineItem::kDoc:
        publish_doc(schedule_[item.index]);
        break;
    }
  }
  publisher_->sync();
  if (!wait_quiescent(scenario_.settle_ms, scenario_.drain_timeout_ms)) {
    fail("drain: overlay never went quiescent after the last event");
  }
  verify();
  for (const BroadcastSpec& spec : scenario_.broadcasts) {
    run_broadcast_pass(spec);
  }
  report_.duration_ms = ms_since(t0_);

  for (Subscriber& sub : subscribers_) sub.client->stop();
  for (Churner& churner : churners_) churner.client->stop();
  publisher_->stop();
  // Edge layers go down before their host brokers (the reverse of
  // startup); late broker deliveries after this are counted drops.
  for (auto& [id, server] : edge_hosts_) server->stop();
  edge_hosts_.clear();
  for (auto& [id, node] : nodes_) {
    if (!node.broker) continue;
    if (node.up) node.broker->stop();
    harvest(*node.broker);
    node.broker.reset();
  }
  return report_;
}

void append_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
}

std::string number(double value) {
  std::ostringstream out;
  out << (std::isfinite(value) ? value : -1.0);
  return out.str();
}

}  // namespace

ScenarioReport run_scenario(const Scenario& scenario) {
  Runner runner(scenario);
  return runner.run();
}

std::string report_json(const std::vector<ScenarioReport>& reports) {
  std::string out = "{\n  \"scenarios\": [";
  bool first_report = true;
  for (const ScenarioReport& report : reports) {
    out += first_report ? "\n" : ",\n";
    first_report = false;
    out += "    {\"name\": \"";
    append_escaped(out, report.name);
    out += "\", \"ok\": ";
    out += report.ok ? "true" : "false";
    out += ", \"duration_ms\": " + number(report.duration_ms);
    out += ", \"docs_published\": " + std::to_string(report.docs_published);
    out += ", \"docs_assured\": " + std::to_string(report.docs_assured);
    out +=
        ", \"docs_best_effort\": " + std::to_string(report.docs_best_effort);
    out += ", \"best_effort_losses\": " +
           std::to_string(report.best_effort_losses);
    out += ", \"duplicates\": " + std::to_string(report.duplicates);
    out += ", \"loss_window_ms\": " + number(report.loss_window_ms);
    out += ", \"resync_bytes\": " + std::to_string(report.resync_bytes);
    out +=
        ", \"peer_down_drops\": " + std::to_string(report.peer_down_drops);
    out += ", \"spooled_frames\": " + std::to_string(report.spooled_frames);
    out += ", \"heartbeat_downs\": " + std::to_string(report.heartbeat_downs);
    out += ", \"suspect_events\": " + std::to_string(report.suspect_events);
    out += ", \"handshake_timeouts\": " +
           std::to_string(report.handshake_timeouts);
    if (report.broadcast_ran) {
      out += ",\n     \"broadcast\": {\"channels\": " +
             std::to_string(report.broadcast_channels) +
             ", \"cycles\": " + std::to_string(report.broadcast_cycles) +
             ", \"tuners\": " + std::to_string(report.broadcast_tuners) +
             ", \"deliveries\": " +
             std::to_string(report.broadcast_deliveries) +
             ", \"missed\": " + std::to_string(report.broadcast_missed) +
             ", \"spurious\": " + std::to_string(report.broadcast_spurious) +
             ", \"byte_mismatches\": " +
             std::to_string(report.broadcast_byte_mismatches) +
             ", \"doze_ratio\": " + number(report.broadcast_doze_ratio) +
             ", \"utilization\": " + number(report.broadcast_utilization) +
             ", \"tuning_bytes\": " + number(report.broadcast_tuning_bytes) +
             ", \"access_bytes\": " + number(report.broadcast_access_bytes) +
             "}";
    }
    out += ",\n     \"membership\": [";
    bool first_member = true;
    for (const MembershipRecord& record : report.membership) {
      out += first_member ? "" : ", ";
      first_member = false;
      out += "{\"at_ms\": " + number(record.at_ms) + ", \"kind\": \"" +
             record.kind + "\", \"broker\": " +
             std::to_string(record.broker) +
             ", \"convergence_ms\": " + number(record.convergence_ms) +
             ", \"resync_bytes\": " + std::to_string(record.resync_bytes) +
             "}";
    }
    out += "],\n     \"failures\": [";
    bool first_failure = true;
    for (const std::string& failure : report.failures) {
      out += first_failure ? "\"" : ", \"";
      first_failure = false;
      append_escaped(out, failure);
      out += "\"";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace xroute::scenario

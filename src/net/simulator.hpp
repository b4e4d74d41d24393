// Discrete-event overlay simulator.
//
// Stands in for the paper's 20-node cluster and PlanetLab deployments
// (DESIGN.md §2): brokers run the *real* routing code; the simulator
// provides transport with per-link latency + bandwidth and folds each
// broker's measured wall-clock processing time into simulated time, so
// notification-delay curves keep their shape (linear in hops, slope set by
// routing-table size).
//
// Interface-id scheme: every link end and every client gets a globally
// unique endpoint id; a broker addresses its neighbours and local clients
// by the endpoint on its own side.
//
// Fault tolerance (DESIGN.md §7): with fault injection enabled the
// simulator models a PlanetLab-grade network — per-link FaultProfiles
// (drops, duplication, reordering jitter, down windows) drawn from a
// seeded Rng, scripted broker crash/restarts — and layers a reliable
// transport (net/reliable_link.h) under broker links so the broker's
// exactly-once handle() contract survives. With fault injection off the
// transport path is byte-for-byte the original perfect network: no frames,
// no acks, no overhead.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/event_queue.hpp"
#include "net/fault.hpp"
#include "net/reliable_link.hpp"
#include "net/stats.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "router/broker.hpp"
#include "util/rng.hpp"
#include "xml/document.hpp"

namespace xroute {

class Simulator {
 public:
  struct Options {
    /// Scale factor applied to measured broker processing time before it
    /// enters simulated time (1.0 = wall clock as-is; 0 disables the
    /// processing component for deterministic runs).
    double processing_scale = 1.0;
  };

  Simulator();
  explicit Simulator(Options options);

  // -- Construction --------------------------------------------------------
  int add_broker(const BrokerOptions& config);
  void connect(int broker_a, int broker_b, const LinkConfig& link);
  /// Builds all brokers and links of `topology` at once.
  void build(const Topology& topology, const BrokerOptions& config,
             LatencyProfile profile, Rng& rng);
  /// Attaches a client to `broker`; returns the client id.
  int attach_client(int broker, const LinkConfig& link = LinkConfig{});

  /// Simulates a crash-restart of a broker: the instance is replaced by a
  /// fresh one with the same configuration and interfaces, events still in
  /// flight toward the dead instance are flushed, and the transport state
  /// of its links is reset. With an empty `snapshot` all routing state is
  /// lost (cold restart); otherwise state is rebuilt via router/snapshot.h.
  /// With `resync` (and no snapshot) the restarted broker runs the
  /// recovery handshake: it requests each neighbour's link state, and once
  /// the last SyncState arrives, locally attached clients replay their
  /// control state — routing re-converges without a network-wide
  /// re-subscription storm.
  void restart_broker(int broker, const std::string& snapshot = "",
                      bool resync = false);

  // -- Fault injection -----------------------------------------------------
  /// Turns on fault injection and the reliable transport on broker-broker
  /// links. All fault draws come from a dedicated Rng seeded here, so runs
  /// stay deterministic. Must be called before installing fault profiles.
  void enable_fault_injection(std::uint64_t seed,
                              const ReliabilityOptions& options = {});
  bool fault_injection_enabled() const { return fault_rng_ != nullptr; }
  /// Installs `profile` on every existing broker-broker link (both
  /// directions). Client links always stay clean.
  void set_default_link_faults(const FaultProfile& profile);
  /// Installs `profile` on the link between two brokers (both directions).
  void set_link_faults(int broker_a, int broker_b,
                       const FaultProfile& profile);
  /// Applies a whole scripted scenario: enables fault injection with
  /// `plan.seed`, installs the default and per-link profiles, and schedules
  /// the crash events (snapshot-mode crashes capture the snapshot at crash
  /// time, modelling durable broker state).
  void apply_fault_plan(const FaultPlan& plan);

  // -- Client actions (enqueued at the current simulated time) -------------
  void subscribe(int client, const Xpe& xpe);
  void unsubscribe(int client, const Xpe& xpe);
  void advertise(int client, const Advertisement& adv);
  void unadvertise(int client, const Advertisement& adv);
  /// Decomposes the document into paths and publishes each (paper §3.1).
  /// Returns the document id assigned.
  std::uint64_t publish(int client, const XmlDocument& doc);
  std::uint64_t publish_paths(int client, const std::vector<Path>& paths,
                              std::size_t doc_bytes);

  // -- Execution ------------------------------------------------------------
  /// Drains the event queue; returns the number of events processed.
  std::size_t run();
  /// Like run(), but stops after `max_events` (0 = unlimited). Returns the
  /// number processed; a return value equal to `max_events` with a
  /// non-empty queue indicates the network has not quiesced (useful for
  /// livelock detection in tests and tools).
  std::size_t run_limited(std::size_t max_events);
  bool idle() const { return queue_.empty(); }

  /// Quiescence detector: drains the queue (bounded by `max_events`,
  /// 0 = unlimited) and reports when the network went quiet. Under fault
  /// injection the queue can outlive the last meaningful event (pending
  /// retransmission timers fire as no-ops once acked), so convergence is
  /// measured by `last_activity` — the time of the last message actually
  /// delivered to a broker or client — not by the final queue time.
  struct QuiesceReport {
    std::size_t processed = 0;
    bool quiesced = false;    ///< queue fully drained within the budget
    double completed_at = 0;  ///< simulated time when the run stopped
    double last_activity = 0; ///< time of the last delivery (convergence)
  };
  QuiesceReport run_until_quiescent(std::size_t max_events = 0);

  /// Optional message trace: invoked for every message a broker receives.
  using TraceFn =
      std::function<void(int broker, int endpoint, const Message& msg)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }
  double now() const { return now_; }

  // -- Causal tracing (obs/trace.hpp) ---------------------------------------
  /// Turns on the causal tracer: every message injected from here on gets
  /// a trace id, and transport/broker/delivery spans accumulate in
  /// tracer(). No effect on message or byte counts (TraceContext is
  /// out-of-band). Throws std::logic_error when tracing was compiled out
  /// (-DXROUTE_TRACING=OFF).
  void enable_tracing();
  bool tracing_enabled() const { return tracer_ != nullptr; }
  Tracer* tracer() { return tracer_.get(); }
  const Tracer* tracer() const { return tracer_.get(); }

  // -- Inspection -----------------------------------------------------------
  Broker& broker(int id) { return *brokers_[id]; }
  const Broker& broker(int id) const { return *brokers_[id]; }
  std::size_t broker_count() const { return brokers_.size(); }
  NetworkStats& stats() { return stats_; }
  const NetworkStats& stats() const { return stats_; }
  /// Documents delivered to `client` (distinct doc ids).
  std::size_t notifications_of(int client) const;
  /// Distinct document ids delivered to `client` (delivery-equality checks).
  std::set<std::uint64_t> delivered_docs(int client) const;
  /// Per-document notification delays observed by `client`.
  const std::vector<double>& delays_of(int client) const;

 private:
  struct Endpoint {
    bool is_client = false;
    int broker = -1;      ///< owning broker (for broker-side endpoints)
    int client = -1;      ///< owning client (for client endpoints)
    int peer = -1;        ///< endpoint on the other side of the link
    LinkConfig link;
  };
  struct Client {
    int broker = -1;
    int endpoint = -1;         ///< the client's own endpoint id
    int broker_endpoint = -1;  ///< the broker-side endpoint id
    std::map<std::uint64_t, double> first_arrival;  ///< doc id -> time
    std::vector<double> delays;                      ///< first-arrival delays
    /// Active control state, replayed after an edge broker resyncs (a real
    /// client re-issues its interests when its broker reconnects).
    std::vector<Xpe> subscriptions;
    std::vector<Advertisement> advertisements;
  };

  int new_endpoint();
  void send_from_client(int client, Message msg);
  /// Delivers `msg` into `broker` via its endpoint `at`; processes it and
  /// schedules the resulting forwards.
  void deliver_to_broker(int broker, int at_endpoint, Message msg);
  void deliver_to_client(int client, Message msg);
  void transmit(int from_endpoint, Message msg, double departure_time);
  /// Perfect-network delivery (fault injection off, and client links).
  void transmit_direct(int from_endpoint, Message msg, double departure_time);
  /// Reliable-transport path: one attempt (initial or retransmission) of a
  /// staged frame, with fault draws, plus its retransmission timer.
  void send_frame(int from_endpoint, std::uint64_t seq, int attempt,
                  double departure_time, bool retransmission = false);
  /// Tracing hooks (no-ops when the tracer is off or compiled out).
  /// Assigns `msg` a fresh trace rooted in an inject span.
  void trace_inject(Message* msg, int client, int broker = -1);
  /// Records a zero-width dropped-link span for a message flushed by a
  /// crash (stale incarnation or reset channel epoch).
  void trace_flush(const Message& msg, double time);
  void receive_frame(int from_endpoint, std::uint64_t seq,
                     std::uint64_t epoch, std::uint64_t target_incarnation,
                     Message msg);
  void send_ack(int from_endpoint, std::uint64_t cumulative);
  double link_rto(int from_endpoint, int attempt) const;
  const FaultProfile& faults_of(int endpoint) const;
  /// Schedules retransmission nudges at each down-window end of `profile`
  /// so pending frames go out the moment the link is back.
  void schedule_link_up_nudges(int endpoint, const FaultProfile& profile);
  /// Crash-recovery completion: records convergence and replays the
  /// control state of the broker's attached clients.
  void finish_resync(int broker);

  Options options_;
  EventQueue queue_;
  double now_ = 0.0;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<BrokerOptions> broker_configs_;
  std::vector<Endpoint> endpoints_;
  std::vector<Client> clients_;
  NetworkStats stats_;
  std::uint64_t next_doc_id_ = 1;
  TraceFn trace_;
  std::unique_ptr<Tracer> tracer_;

  // Fault-injection state (inert until enable_fault_injection).
  std::unique_ptr<Rng> fault_rng_;
  ReliabilityOptions reliability_;
  std::vector<FaultProfile> endpoint_faults_;   ///< outbound, per endpoint
  std::vector<ReliableChannel> channels_;       ///< per endpoint
  std::vector<std::uint64_t> incarnations_;     ///< per broker
  std::vector<double> resync_started_;          ///< per broker, <0 = none
  double last_activity_ = 0.0;
};

}  // namespace xroute

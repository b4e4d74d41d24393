// TransportBroker — one router/Broker hosted behind real sockets.
//
// The broker core stays the pure message transformer it is in the
// simulator; this adapter gives it a network face: every accepted or
// dialed connection that completes the Hello handshake becomes one broker
// interface (the same dense interface-id scheme the simulator uses), an
// arriving frame decodes to a Message and runs through Broker::handle()
// pushing forwards straight into a ForwardSink that encodes them back onto
// the connection owning each interface.
//
// Backpressure: when any egress connection's send queue crosses its high
// watermark the node stops reading from *all* connections (ingress is the
// only thing that generates egress), resuming when every queue is back
// under the low watermark. TCP flow control then pushes back on the
// upstream sender.
//
// Threading: one event-loop thread owns the connections, the
// MetricsRegistry and the Broker, at every match_threads. A broker without
// a worker pool handles each frame as it arrives. A broker with one holds
// the frames one read surfaces and hands them to Broker::handle_batch as
// one run when the read ends, so a run of publications is one scheduler
// epoch and every frame still borrows its bytes from the connection's
// decoder (zero-copy). The pool's workers are the only other threads; they
// read nothing but the PRT index the epoch pins. Cross-thread observation
// goes through atomics (frame/byte totals, peer counts) or posted tasks
// (metrics_json, state_snapshot).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "router/broker.hpp"
#include "transport/transport.hpp"

namespace xroute::transport {

class TransportBroker {
 public:
  struct Options {
    int id = 0;
    BrokerOptions config;
    /// 0 = ephemeral (port() reports the bound one).
    std::uint16_t listen_port = 0;
    Connection::Options connection;
    BackoffPolicy dial_backoff{50.0, 2.0, 2000.0, -1};
    /// Use the poll(2) backend instead of the platform default.
    bool force_poll = false;
    /// Restart count announced in our Hello: a rejoin after crash must
    /// carry a higher incarnation than the life that died, or peers
    /// reject the connection as a zombie.
    std::uint32_t incarnation = 0;
    /// Transport-level handshake deadline and failure detector knobs
    /// (passed through to Transport::Options).
    double handshake_timeout_ms = 5000.0;
    HeartbeatOptions heartbeat;
    /// Bytes of publications buffered per quarantined broker interface
    /// while waiting for the peer to rejoin; overflow counts as
    /// peer_down_drops.
    std::size_t spool_limit_bytes = 1u << 20;
  };

  explicit TransportBroker(Options options);
  ~TransportBroker();

  /// Binds the listener and starts the loop thread.
  void start();
  /// Dials a neighbouring broker (callable from any thread, before or
  /// after the peer is up — dialing retries with backoff).
  void connect_to(const std::string& host, std::uint16_t port);
  /// Live join: dials each neighbour and pulls routing state through the
  /// SyncRequest/SyncState resync handshake — the broker expects one
  /// SyncState per peer and reports convergence via resyncs_completed()
  /// once the last one lands. Also the rejoin path after a crash (pair
  /// with a bumped Options::incarnation). `expected_peers` is the number
  /// of broker handshakes to resync from when it exceeds the dial list —
  /// a restarted broker dials only the neighbours it originally dialed
  /// and counts the survivors that redial in (0 = neighbors.size()).
  /// Callable any time after start().
  void join(std::vector<std::pair<std::string, std::uint16_t>> neighbors,
            std::size_t expected_peers = 0);
  /// Planned leave: announces kGoodbye on every connection (peers hand our
  /// routes back instead of quarantining them), flushes send queues, then
  /// stops. Returns false if the flush missed the deadline (the node still
  /// stops).
  bool leave(double timeout_ms = 5000.0);
  /// Stops the loop thread and closes every connection. A stop() without
  /// leave() is a crash as far as peers are concerned: they detect it and
  /// quarantine our routes.
  void stop();

  int id() const { return options_.id; }
  std::uint16_t port() const { return port_; }

  // -- Edge attachment -----------------------------------------------------
  /// A forward the broker routed to the edge interface: the message plus
  /// its wire bytes, encoded exactly once and shared by reference with
  /// every recipient. Fires on the broker's loop thread.
  using EdgeDeliveryHandler = std::function<void(const Message&, SharedFrame)>;

  /// Registers the hosted edge server as one client interface of the
  /// Broker: all client subscriptions funnel through it, and everything
  /// the broker forwards to it lands in `handler` as a serialize-once
  /// SharedFrame instead of on a socket. One edge per broker; callable
  /// once, from any thread (blocks until the interface exists).
  IfaceId attach_edge(EdgeDeliveryHandler handler);

  /// Injects a message into the broker as if it arrived on the edge
  /// interface (lease-refcounted subscribe/unsubscribe, client publishes).
  /// Callable from any thread; posted to the loop thread, so it is ordered
  /// with network traffic. No-op before attach_edge.
  void edge_send(Message msg);

  // -- Cross-thread observables --------------------------------------------
  std::uint64_t frames_in() const {
    return frames_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_out() const {
    return frames_out_.load(std::memory_order_relaxed);
  }
  std::size_t broker_peers() const {
    return broker_peers_.load(std::memory_order_relaxed);
  }
  std::size_t client_peers() const {
    return client_peers_.load(std::memory_order_relaxed);
  }
  std::uint64_t backpressure_engagements() const {
    return backpressure_events_.load(std::memory_order_relaxed);
  }
  /// Forwards that targeted a quarantined or vanished interface and were
  /// dropped (spool full or no spool) — the observable form of what used
  /// to be silent loss.
  std::uint64_t peer_down_drops() const {
    return peer_down_drops_.load(std::memory_order_relaxed);
  }
  /// Publications buffered for a quarantined peer awaiting rejoin.
  std::uint64_t spooled_frames() const {
    return spooled_frames_.load(std::memory_order_relaxed);
  }
  /// Resync handshakes brought to completion (join() or crash rejoin).
  std::uint64_t resyncs_completed() const {
    return resyncs_completed_.load(std::memory_order_relaxed);
  }
  /// Milliseconds from the last join() to its resync completion (0 until
  /// the first completion).
  double last_join_convergence_ms() const {
    return last_join_convergence_ms_.load(std::memory_order_relaxed);
  }
  /// SyncState payload bytes received (the cost of convergence).
  std::uint64_t resync_bytes_in() const {
    return resync_bytes_in_.load(std::memory_order_relaxed);
  }
  /// Peers whose failure detector reached kSuspect at least once.
  std::uint64_t suspect_events() const {
    return suspect_events_.load(std::memory_order_relaxed);
  }
  std::uint64_t handshake_timeouts() const {
    return transport_->handshake_timeouts();
  }
  std::uint64_t heartbeat_downs() const {
    return transport_->heartbeat_downs();
  }

  /// Serialised routing state (router/snapshot format), taken on the loop
  /// thread so it is a consistent cut. Blocks the caller; used by
  /// convergence checks.
  std::string state_snapshot();

  /// Snapshot of the node's MetricsRegistry (per-connection byte/frame
  /// series, plus the parallel engine's epoch/worker series when the pool
  /// is active) as JSON. Runs on the loop thread; blocks the caller.
  std::string metrics_json();

 private:
  struct Peer {
    int interface_id = -1;
    wire::Hello hello;
    /// Peer announced a planned leave: its routes were handed back at
    /// goodbye time, so the eventual disconnect must not quarantine them.
    bool parting = false;
    /// This peer's send queue is above the high watermark. Mirrors the
    /// Connection's own flag so a dying connection (which never emits a
    /// final backpressure(false)) still releases the global ingress pause.
    bool backpressured = false;
    /// Registry series resolved once at handshake (loop thread).
    Counter* frames_in = nullptr;
    Counter* frames_out = nullptr;
    Counter* bytes_in = nullptr;
    Counter* bytes_out = nullptr;
  };

  /// A frame held for the run a pool broker hands to handle_batch when
  /// the read that surfaced it ends. `frame` borrows from the connection's
  /// decoder, which nothing feeds again before then.
  struct PendingFrame {
    IfaceId from;
    Message msg;
    std::span<const std::uint8_t> frame;
  };

  /// ForwardSink that puts each outgoing message on its interface.
  class EncodingSink;

  void on_peer(Connection* connection, const wire::Hello& hello);
  void on_frame(Connection* connection, wire::Decoded&& decoded);
  /// Intercepts forwards aimed at the edge interface: encodes-or-copies
  /// the frame ONCE into a SharedFrame and hands it to the edge handler.
  /// Returns false for non-edge interfaces.
  bool deliver_edge(IfaceId iface, const Message& msg,
                    std::span<const std::uint8_t> frame);
  void on_disconnect(Connection* connection, const std::string& reason);
  void on_goodbye(Connection* connection);
  void on_backpressure(Connection* connection, bool engaged);
  void apply_read_pause();
  /// Loop thread only: puts an already-encoded frame on the interface's
  /// connection; spools it when the interface is quarantined, else counts
  /// the drop.
  void send_encoded(IfaceId interface_id, std::vector<std::uint8_t> frame);
  /// Hands the held run to the Broker. Called when a read ends and before
  /// every membership change, so the Broker sees frames and membership in
  /// arrival order.
  void flush();
  /// Runs `batch` through the Broker, then any handback requested while it
  /// ran.
  void handle(std::span<const Broker::Inbound> batch);
  /// Withdraws the interface's routes (goodbye, or a client's death). A
  /// request made while the Broker is busy — a send inside handle() that
  /// fails closes its socket at once — waits for that call to return.
  void hand_back(IfaceId iface);
  void apply_handbacks();
  void note_handle_status(const Broker::HandleStatus& status);

  Options options_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<Transport> transport_;
  Broker broker_;
  MetricsRegistry registry_;
  std::map<Connection*, Peer> peers_;
  std::map<int, Connection*> interfaces_;
  int next_interface_ = 0;
  std::size_t backpressured_connections_ = 0;
  std::thread thread_;
  /// Written by start()/stop() on the caller's thread, read by the loop
  /// thread's disconnect handling.
  std::atomic<bool> running_{false};
  std::uint16_t port_ = 0;

  // -- Membership state (loop thread only) ---------------------------------
  /// A downed broker peer's interface with its bounded publication spool:
  /// routes through it stay in the tables betting on rejoin; what would
  /// have been sent is buffered here (up to spool_limit_bytes) and
  /// replayed onto the successor connection.
  struct Quarantine {
    wire::Hello hello;
    std::deque<std::vector<std::uint8_t>> spool;
    std::size_t spool_bytes = 0;
  };
  std::map<int, Quarantine> quarantined_;  ///< interface id -> quarantine
  /// Stable broker id -> interface binding. A reconnecting broker is
  /// rebound to the interface it had, so the Broker's routing state (and
  /// the link-state export the resync handshake serves from it) stays
  /// valid across the peer's crashes. The binding is released only by a
  /// goodbye. Clients keep the historical fresh-interface-per-connection
  /// behaviour.
  std::map<std::uint32_t, int> broker_ifaces_;
  /// Highest incarnation seen per broker id (zombie rejection).
  std::map<std::uint32_t, std::uint32_t> peer_incarnations_;
  /// Broker handshakes that still owe a SyncRequest for an in-flight
  /// join(); decremented as dials complete.
  std::size_t join_syncs_pending_ = 0;
  /// Monotonic start of the in-flight join (0 = none); consumed by
  /// note_handle_status.
  double join_started_ms_ = 0.0;

  // -- Intake (loop thread only) -------------------------------------------
  /// Frames of the read in progress (pool brokers only).
  std::vector<PendingFrame> pending_;
  /// The run flush() is handling, moved out of pending_ first.
  std::vector<PendingFrame> run_;
  std::vector<Broker::Inbound> inbound_;
  /// Interfaces whose routes await handback once the Broker is free.
  std::vector<IfaceId> handbacks_;
  bool in_broker_ = false;

  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> backpressure_events_{0};
  std::atomic<std::size_t> broker_peers_{0};
  std::atomic<std::size_t> client_peers_{0};
  std::atomic<std::uint64_t> peer_down_drops_{0};
  std::atomic<std::uint64_t> spooled_frames_{0};
  std::atomic<std::uint64_t> resyncs_completed_{0};
  std::atomic<std::uint64_t> resync_bytes_in_{0};
  std::atomic<std::uint64_t> suspect_events_{0};
  std::atomic<double> last_join_convergence_ms_{0.0};

  // -- Edge attachment -----------------------------------------------------
  /// Interface id of the attached edge server (-1 = none).
  int edge_iface_ = -1;
  EdgeDeliveryHandler edge_handler_;
};

}  // namespace xroute::transport

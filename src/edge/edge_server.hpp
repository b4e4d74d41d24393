// EdgeServer — the client-facing session layer of one broker (DESIGN.md
// "Edge session layer").
//
// The routing core treats the entire client population as ONE interface:
// EdgeServer::start() registers itself with the host TransportBroker via
// attach_edge(), and from then on every client subscription the edge
// decides to honour upstream flows through edge_send() and every matched
// publication comes back through the delivery handler as a single
// refcounted frame. Client connections never touch the broker's peer
// machinery at all.
//
// Reactor sharding: N EventLoop threads; the acceptor lives on reactor 0
// and hands each accepted fd to reactor (fd % N). A session's whole life
// — handshake, frames, leases, teardown — happens on its reactor thread;
// reactors share nothing but the edge-wide interest refcounts (one small
// mutex-guarded map) and the monotonic counters.
//
// Leases: a subscribe acquires (or renews) a lease in the reactor's
// LeaseManager and is acknowledged with a kLeaseGrant carrying the TTL.
// Heartbeats and re-subscribes renew; the reactor's sweep timer expires
// what lapsed and reaps sessions that hold no leases and have been silent
// past the idle timeout. The broker-side subscription is reference
// counted across reactors: only the edge-wide FIRST interest in an Xpe
// sends a subscribe upstream, and only the LAST lapsed lease sends the
// unsubscribe — 10k clients on `//stock` cost the routing core one PRT
// entry.
//
// Serialize-once: the broker encodes a matched publication once (or
// forwards its inbound wire bytes); the edge fans the resulting
// SharedFrame out via Connection::send_shared, so recipient count scales
// the byte-queueing work only, never the encode.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "edge/interest_index.hpp"
#include "edge/lease_manager.hpp"
#include "transport/broker_node.hpp"

namespace xroute::edge {

class EdgeServer {
 public:
  struct Options {
    /// 0 = ephemeral (start() returns the bound port).
    std::uint16_t listen_port = 0;
    int reactors = 2;
    double lease_ttl_ms = 10000.0;
    /// Expiry/reap cadence per reactor.
    double sweep_interval_ms = 100.0;
    /// Silent sessions holding no leases are closed after this long
    /// (0 = 4 * lease_ttl_ms).
    double idle_timeout_ms = 0.0;
    /// Beacon period to every session (shared frame; 0 = no beacons).
    /// Must beat the clients' failure detector.
    double heartbeat_interval_ms = 1000.0;
    transport::Connection::Options connection;
    bool force_poll = false;
  };

  /// The broker must outlive this EdgeServer's start()..stop() window.
  EdgeServer(transport::TransportBroker* broker, Options options);
  ~EdgeServer();

  /// Attaches to the broker, binds the listener, starts the reactor
  /// threads. Returns the bound port.
  std::uint16_t start();
  /// Closes every session and stops the reactors. Deliveries arriving
  /// from the broker afterwards are dropped (counted), so stop order
  /// relative to the broker is free.
  void stop();

  std::uint16_t port() const { return port_; }
  int reactors() const { return static_cast<int>(reactors_.size()); }

  // -- Cross-thread observables --------------------------------------------
  std::size_t sessions_live() const {
    return sessions_live_.load(std::memory_order_relaxed);
  }
  std::size_t reactor_sessions(int reactor) const;
  std::uint64_t leases_granted() const {
    return leases_granted_.load(std::memory_order_relaxed);
  }
  std::uint64_t leases_expired() const {
    return leases_expired_.load(std::memory_order_relaxed);
  }
  std::uint64_t idle_reaped() const {
    return idle_reaped_.load(std::memory_order_relaxed);
  }
  /// Publications delivered by the broker = frames materialised. One per
  /// matched publication regardless of recipient count: encodes() /
  /// matched pubs is the "encodes per fanout" the bench asserts == 1.
  std::uint64_t encodes() const {
    return encodes_.load(std::memory_order_relaxed);
  }
  /// Frames queued to sessions (the fan-out volume).
  std::uint64_t fanout_frames() const {
    return fanout_frames_.load(std::memory_order_relaxed);
  }
  /// Frames dropped instead of queued to a backpressured session.
  std::uint64_t slow_session_drops() const {
    return slow_drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t upstream_subscribes() const {
    return upstream_subscribes_.load(std::memory_order_relaxed);
  }
  std::uint64_t upstream_unsubscribes() const {
    return upstream_unsubscribes_.load(std::memory_order_relaxed);
  }
  /// Distinct Xpes with at least one live lease edge-wide.
  std::size_t distinct_interests() const;
  /// Bytes queued through the zero-copy shared path, across all sessions
  /// (transport.send_shared_bytes).
  std::uint64_t send_shared_bytes() const {
    return shared_bytes_.load(std::memory_order_relaxed);
  }

  /// Edge metrics snapshot as JSON (edge.sessions_live,
  /// edge.leases_expired, per-reactor session gauges, ...). Safe from any
  /// thread; built from the monotonic counters.
  std::string metrics_json();

 private:
  struct Session {
    std::unique_ptr<transport::Connection> connection;
    bool hello_seen = false;
    double last_activity_ms = 0.0;
  };

  /// One reactor: an event loop thread plus everything it owns.
  struct Reactor {
    int index = 0;
    std::unique_ptr<transport::EventLoop> loop;
    std::thread thread;
    std::unique_ptr<LeaseManager> leases;
    InterestIndex interests;
    std::unordered_map<int, Session> sessions;  ///< fd -> session
    std::atomic<std::size_t> live{0};
    std::uint64_t beacon_seq = 0;
    std::vector<int> resolve_scratch;
  };

  void accept_ready();
  /// Reactor thread: adopts an accepted fd as a session.
  void adopt(Reactor& reactor, int fd);
  void on_session_frame(Reactor& reactor, int fd, wire::Decoded&& decoded);
  void on_session_close(Reactor& reactor, int fd);
  /// Reactor thread: drops one lapsed/released lease's interest, sending
  /// the upstream unsubscribe when it was the edge-wide last.
  void drop_interest(Reactor& reactor, int fd, std::uint32_t xpe_uid);
  void sweep(Reactor& reactor);
  void beacon(Reactor& reactor);
  /// Broker's delivery callback; always runs on the broker's loop thread.
  void on_delivery(const Message& msg, transport::SharedFrame frame);
  /// Edge-wide refcount: first interest subscribes upstream.
  void interest_up(const Xpe& xpe);
  /// Edge-wide refcount: last interest unsubscribes upstream.
  void interest_down(std::uint32_t uid);

  transport::TransportBroker* broker_;
  Options options_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;

  /// Gates broker deliveries during/after stop(): deliveries take the
  /// shared side, stop() takes the exclusive side once to wait out
  /// in-flight callbacks before tearing the reactors down.
  std::shared_mutex delivery_gate_;
  std::atomic<bool> running_{false};

  /// Edge-wide interest refcounts (reactor count per Xpe uid), with the
  /// Xpe kept for the eventual upstream unsubscribe.
  mutable std::mutex interest_mutex_;
  struct GlobalInterest {
    Xpe xpe;
    int refs = 0;
  };
  std::unordered_map<std::uint32_t, GlobalInterest> interest_refs_;

  std::atomic<std::size_t> sessions_live_{0};
  std::atomic<std::uint64_t> leases_granted_{0};
  std::atomic<std::uint64_t> leases_expired_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> encodes_{0};
  std::atomic<std::uint64_t> fanout_frames_{0};
  std::atomic<std::uint64_t> slow_drops_{0};
  std::atomic<std::uint64_t> upstream_subscribes_{0};
  std::atomic<std::uint64_t> upstream_unsubscribes_{0};
  std::atomic<std::uint64_t> dropped_deliveries_{0};
  std::atomic<std::uint64_t> shared_bytes_{0};
};

}  // namespace xroute::edge

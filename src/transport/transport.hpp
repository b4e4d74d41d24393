// Peer management over TCP: listening, dialing with retry/backoff, and
// the Hello handshake that turns an anonymous socket into an identified
// peer (wire::Hello — broker or client, with its id).
//
// Handshake: both sides send their Hello as the first frame immediately
// after the socket connects; a connection becomes a *peer* when the remote
// Hello arrives. Any other frame first, or a protocol-version mismatch, is
// a handshake failure and the connection closes — as is a socket that
// connects but stays silent past handshake_timeout_ms. Dialing retries
// with the shared exponential backoff policy (net/backoff.hpp) until the
// handshake completes or the policy is exhausted, so processes of one
// overlay can start in any order.
//
// Liveness: established connections exchange kHeartbeat beacons every
// heartbeat.interval_ms; PeerHealth (heartbeat.hpp) scores the silence and
// a peer that reaches kDown is closed, which feeds the normal disconnect +
// re-dial path. A peer that announces kGoodbye is leaving on purpose: its
// address is not re-dialed and the goodbye handler fires instead of
// suspicion.
//
// All callbacks fire on the loop thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "net/backoff.hpp"
#include "transport/connection.hpp"
#include "transport/event_loop.hpp"
#include "transport/heartbeat.hpp"

namespace xroute::transport {

class Transport {
 public:
  struct Options {
    /// Identity announced in our Hello.
    wire::Hello self;
    Connection::Options connection;
    /// Dial retry schedule (default: 50 ms doubling, capped at 2 s,
    /// retrying forever — a daemon waits for its overlay to come up).
    BackoffPolicy dial_backoff{50.0, 2.0, 2000.0, -1};
    /// A connected socket that has not produced its Hello after this many
    /// milliseconds is reaped (0 disables). Without it a silent connector
    /// holds a connection slot forever.
    double handshake_timeout_ms = 5000.0;
    /// Per-peer liveness beacons + suspicion thresholds (heartbeat.hpp).
    HeartbeatOptions heartbeat;
  };

  /// A connection completed its handshake. `hello` is the peer's identity.
  using PeerHandler =
      std::function<void(Connection*, const wire::Hello& hello)>;
  /// A message frame arrived from an established peer.
  using FrameHandler = std::function<void(Connection*, wire::Decoded&&)>;
  /// A connection's read has surfaced all its frames (Connection's
  /// ReadDoneHandler): the frames' raw bytes are valid until it returns.
  using ReadDoneHandler = std::function<void(Connection*)>;
  /// An established peer's connection died.
  using DisconnectHandler =
      std::function<void(Connection*, const std::string& reason)>;
  /// A dial gave up (backoff exhausted).
  using DialFailedHandler =
      std::function<void(const std::string& host, std::uint16_t port)>;
  /// An established peer announced a planned leave (kGoodbye). The
  /// transport has already stopped re-dialing its address; the connection
  /// closes when the peer hangs up.
  using GoodbyeHandler = std::function<void(Connection*)>;
  /// A peer's failure-detector state changed (kAlive <-> kSuspect).
  /// Transition to kDown is reported through DisconnectHandler instead:
  /// the transport closes the connection with reason "heartbeat: peer
  /// down".
  using PeerStateHandler = std::function<void(Connection*, PeerState)>;
  /// An established peer granted (or renewed) a subscription lease
  /// (kLeaseGrant). Only edge servers send these; a transport without a
  /// lease handler ignores the frame.
  using LeaseHandler = std::function<void(Connection*, double ttl_ms)>;

  Transport(EventLoop* loop, Options options);
  ~Transport();

  void set_peer_handler(PeerHandler handler) { on_peer_ = std::move(handler); }
  void set_frame_handler(FrameHandler handler) {
    on_frame_ = std::move(handler);
  }
  void set_read_done_handler(ReadDoneHandler handler) {
    on_read_done_ = std::move(handler);
  }
  void set_disconnect_handler(DisconnectHandler handler) {
    on_disconnect_ = std::move(handler);
  }
  void set_dial_failed_handler(DialFailedHandler handler) {
    on_dial_failed_ = std::move(handler);
  }
  void set_goodbye_handler(GoodbyeHandler handler) {
    on_goodbye_ = std::move(handler);
  }
  void set_peer_state_handler(PeerStateHandler handler) {
    on_peer_state_ = std::move(handler);
  }
  void set_lease_handler(LeaseHandler handler) {
    on_lease_ = std::move(handler);
  }

  /// Binds and listens on `port` (0 = ephemeral); returns the bound port.
  /// Throws std::runtime_error when the socket cannot be bound.
  std::uint16_t listen(std::uint16_t port);

  /// Starts dialing host:port (numeric IPv4 or "localhost"); retries with
  /// the backoff policy until the connection establishes.
  void dial(const std::string& host, std::uint16_t port);

  /// Closes every connection and the listener.
  void shutdown();

  std::size_t peer_count() const { return peers_; }
  std::uint16_t listen_port() const { return listen_port_; }
  EventLoop* loop() { return loop_; }
  const Options& options() const { return options_; }

  /// Connections reaped because their Hello never arrived. Readable from
  /// any thread.
  std::uint64_t handshake_timeouts() const {
    return handshake_timeouts_.load(std::memory_order_relaxed);
  }
  /// Peers closed by the failure detector (silence past down_after_ms).
  std::uint64_t heartbeat_downs() const {
    return heartbeat_downs_.load(std::memory_order_relaxed);
  }

 private:
  struct Dial {
    std::string host;
    std::uint16_t port = 0;
    int attempt = 0;
  };

  void accept_ready();
  void adopt_socket(int fd, bool dialed, std::shared_ptr<Dial> dial);
  void start_connect(std::shared_ptr<Dial> dial);
  void connect_outcome(int fd, std::shared_ptr<Dial> dial, bool success);
  void retry_dial(std::shared_ptr<Dial> dial);
  /// (Re)arms the beacon timer if heartbeats are on and it is not running.
  void ensure_ticker();
  /// One beacon period: send a heartbeat on every established connection,
  /// evaluate each peer's health, close the ones past down_after_ms.
  void heartbeat_tick();

  EventLoop* loop_;
  Options options_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  /// All live connections; value tracks handshake completion.
  struct Entry {
    std::unique_ptr<Connection> connection;
    bool established = false;
    /// Re-dial coordinates for connections we initiated (empty for
    /// accepted ones).
    std::shared_ptr<Dial> dial;
    /// Pending handshake-deadline timer (0 once established or disabled).
    std::uint64_t handshake_timer = 0;
    /// Failure detector, armed at handshake completion.
    std::optional<PeerHealth> health;
    std::uint64_t heartbeat_seq = 0;
    PeerState last_state = PeerState::kAlive;
    /// Peer sent kGoodbye: its close is planned, not a failure.
    bool parting = false;
  };
  std::map<Connection*, Entry> connections_;
  std::size_t peers_ = 0;
  /// Set by shutdown(): suppresses re-dials from late close/timer events.
  bool shutting_down_ = false;
  bool ticker_armed_ = false;
  std::uint64_t ticker_id_ = 0;
  std::atomic<std::uint64_t> handshake_timeouts_{0};
  std::atomic<std::uint64_t> heartbeat_downs_{0};
  PeerHandler on_peer_;
  FrameHandler on_frame_;
  ReadDoneHandler on_read_done_;
  DisconnectHandler on_disconnect_;
  DialFailedHandler on_dial_failed_;
  GoodbyeHandler on_goodbye_;
  PeerStateHandler on_peer_state_;
  LeaseHandler on_lease_;
};

}  // namespace xroute::transport

#include "transport/transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace xroute::transport {

namespace {

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* name = (host.empty() || host == "localhost") ? "127.0.0.1"
                                                           : host.c_str();
  if (inet_pton(AF_INET, name, &addr.sin_addr) != 1) {
    throw std::runtime_error("transport: bad IPv4 address '" + host + "'");
  }
  return addr;
}

}  // namespace

Transport::Transport(EventLoop* loop, Options options)
    : loop_(loop), options_(std::move(options)) {}

Transport::~Transport() { shutdown(); }

std::uint16_t Transport::listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("transport: socket() failed");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_address("127.0.0.1", port);
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("transport: cannot listen on port " +
                             std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  set_nonblocking(fd);
  listen_fd_ = fd;
  listen_port_ = ntohs(addr.sin_port);
  loop_->add_fd(fd, kReadable, [this](std::uint32_t) { accept_ready(); });
  return listen_port_;
}

void Transport::accept_ready() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the listener stays up
    }
    set_nonblocking(fd);
    adopt_socket(fd, /*dialed=*/false, nullptr);
  }
}

void Transport::dial(const std::string& host, std::uint16_t port) {
  auto dial = std::make_shared<Dial>();
  dial->host = host;
  dial->port = port;
  start_connect(std::move(dial));
}

void Transport::start_connect(std::shared_ptr<Dial> dial) {
  if (shutting_down_) return;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    retry_dial(std::move(dial));
    return;
  }
  set_nonblocking(fd);
  sockaddr_in addr = make_address(dial->host, dial->port);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    connect_outcome(fd, std::move(dial), true);
    return;
  }
  if (errno != EINPROGRESS) {
    ::close(fd);
    retry_dial(std::move(dial));
    return;
  }
  // Async connect in flight: resolution arrives as writability.
  loop_->add_fd(fd, kWritable, [this, fd, dial](std::uint32_t events) {
    loop_->remove_fd(fd);
    int error = 0;
    socklen_t len = sizeof(error);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len);
    bool success = (events & kError) == 0 && error == 0;
    connect_outcome(fd, dial, success);
  });
}

void Transport::connect_outcome(int fd, std::shared_ptr<Dial> dial,
                                bool success) {
  if (!success) {
    ::close(fd);
    retry_dial(std::move(dial));
    return;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  adopt_socket(fd, /*dialed=*/true, std::move(dial));
}

void Transport::retry_dial(std::shared_ptr<Dial> dial) {
  if (shutting_down_) return;
  const BackoffPolicy& policy = options_.dial_backoff;
  if (policy.exhausted(dial->attempt)) {
    if (on_dial_failed_) on_dial_failed_(dial->host, dial->port);
    return;
  }
  double delay = policy.delay_ms(dial->attempt++);
  loop_->schedule(delay, [this, dial] { start_connect(dial); });
}

void Transport::adopt_socket(int fd, bool dialed, std::shared_ptr<Dial> dial) {
  auto connection =
      std::make_unique<Connection>(loop_, fd, options_.connection);
  Connection* raw = connection.get();
  Entry& entry = connections_[raw];
  entry.connection = std::move(connection);
  entry.established = false;
  entry.dial = dialed ? std::move(dial) : nullptr;

  raw->set_frame_handler([this, raw](wire::Decoded&& decoded) {
    auto it = connections_.find(raw);
    if (it == connections_.end()) return;
    Entry& state = it->second;
    if (!state.established) {
      // First frame must be the peer's Hello at a version we can speak.
      if (decoded.kind != wire::FrameKind::kHello) {
        raw->close("handshake: first frame was not hello");
        return;
      }
      if (decoded.hello.max_version < 1) {
        raw->close("handshake: no common protocol version");
        return;
      }
      state.established = true;
      ++peers_;
      if (state.handshake_timer != 0) {
        loop_->cancel_timer(state.handshake_timer);
        state.handshake_timer = 0;
      }
      state.health.emplace(options_.heartbeat, loop_->now_ms());
      ensure_ticker();
      // Handshake done: a future drop re-dials on a fresh schedule.
      if (state.dial) state.dial->attempt = 0;
      if (on_peer_) on_peer_(raw, decoded.hello);
      return;
    }
    // Any frame is proof of life — real traffic doubles as a heartbeat.
    if (state.health) {
      state.health->note_activity(loop_->now_ms());
      if (state.last_state != PeerState::kAlive) {
        state.last_state = PeerState::kAlive;
        if (on_peer_state_) on_peer_state_(raw, PeerState::kAlive);
      }
    }
    if (decoded.kind == wire::FrameKind::kHeartbeat) {
      return;  // liveness only; never surfaced
    }
    if (decoded.kind == wire::FrameKind::kGoodbye) {
      // Planned departure: stop chasing this address when it hangs up.
      state.parting = true;
      state.dial = nullptr;
      if (on_goodbye_) on_goodbye_(raw);
      return;
    }
    if (decoded.kind == wire::FrameKind::kLeaseGrant) {
      // Edge lease acknowledgement; meaningless without a handler.
      if (on_lease_) on_lease_(raw, decoded.lease_ttl_ms);
      return;
    }
    if (!decoded.is_message()) {
      raw->close("unexpected session frame after handshake");
      return;
    }
    if (on_frame_) on_frame_(raw, std::move(decoded));
  });
  raw->set_read_done_handler([this, raw] {
    if (on_read_done_) on_read_done_(raw);
  });

  raw->set_close_handler([this, raw](const std::string& reason) {
    auto it = connections_.find(raw);
    if (it == connections_.end()) return;
    bool established = it->second.established;
    if (established) --peers_;
    if (it->second.handshake_timer != 0) {
      loop_->cancel_timer(it->second.handshake_timer);
    }
    std::shared_ptr<Dial> redial = std::move(it->second.dial);
    // Keep the Connection alive until this handler returns.
    std::unique_ptr<Connection> doomed = std::move(it->second.connection);
    connections_.erase(it);
    if (established && on_disconnect_) on_disconnect_(raw, reason);
    // A dropped dialed link (failed handshake or a later disconnect)
    // resumes its retry schedule — processes of one overlay can restart
    // in any order and the survivors re-knit the topology.
    if (redial) retry_dial(std::move(redial));
  });

  // Reap a connector that never says Hello: without a deadline a silent
  // socket would hold a slot (and, for dialed links, stall the redial
  // schedule) forever.
  if (options_.handshake_timeout_ms > 0) {
    entry.handshake_timer = loop_->schedule(
        options_.handshake_timeout_ms, [this, raw] {
          auto it = connections_.find(raw);
          if (it == connections_.end() || it->second.established) return;
          it->second.handshake_timer = 0;  // firing now; nothing to cancel
          handshake_timeouts_.fetch_add(1, std::memory_order_relaxed);
          raw->close("handshake: timeout");
        });
  }

  raw->start();
  raw->send(wire::encode_hello(options_.self));
}

void Transport::ensure_ticker() {
  if (!options_.heartbeat.enabled || ticker_armed_ || shutting_down_) return;
  ticker_armed_ = true;
  ticker_id_ =
      loop_->schedule(options_.heartbeat.interval_ms, [this] { heartbeat_tick(); });
}

void Transport::heartbeat_tick() {
  ticker_armed_ = false;
  if (shutting_down_) return;
  double now = loop_->now_ms();
  // A beacon whose send fails closes its connection at once, and the close
  // handlers may close others: walk a copy of the keys, look each one up
  // again, and touch nothing a failed send destroyed.
  std::vector<Connection*> established;
  for (auto& [connection, entry] : connections_) {
    if (entry.established && entry.health) established.push_back(connection);
  }
  std::vector<Connection*> downed;
  for (Connection* connection : established) {
    auto it = connections_.find(connection);
    if (it == connections_.end()) continue;
    Entry& entry = it->second;
    if (!connection->send(wire::encode_heartbeat(entry.heartbeat_seq++))) {
      continue;
    }
    if (!connection->read_enabled()) {
      // Reads are paused (ingress flow control): the silence is ours, not
      // the peer's — its heartbeats are sitting unread in the socket
      // buffer. Count the pause as proof of life so backpressure never
      // masquerades as peer death.
      entry.health->note_activity(now);
      continue;
    }
    PeerState state = entry.health->state(now);
    if (state == PeerState::kDown) {
      downed.push_back(connection);
      continue;
    }
    if (state != entry.last_state) {
      entry.last_state = state;
      if (on_peer_state_) on_peer_state_(connection, state);
    }
  }
  // Closing mutates connections_ through the close handlers; do it outside
  // the iteration. The close feeds the ordinary disconnect + re-dial path.
  for (Connection* connection : downed) {
    if (connections_.count(connection) == 0) continue;
    heartbeat_downs_.fetch_add(1, std::memory_order_relaxed);
    connection->close("heartbeat: peer down");
  }
  if (!connections_.empty()) ensure_ticker();
}

void Transport::shutdown() {
  shutting_down_ = true;
  if (ticker_armed_) {
    loop_->cancel_timer(ticker_id_);
    ticker_armed_ = false;
  }
  if (listen_fd_ >= 0) {
    loop_->remove_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Closing mutates connections_ via the close handlers; detach first.
  std::map<Connection*, Entry> doomed;
  doomed.swap(connections_);
  peers_ = 0;
  doomed.clear();  // ~Connection closes the fds without firing handlers
}

}  // namespace xroute::transport

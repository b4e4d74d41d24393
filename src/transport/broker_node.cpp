#include "transport/broker_node.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <utility>

#include "router/match_scheduler.hpp"
#include "router/snapshot.hpp"

namespace xroute::transport {

class TransportBroker::EncodingSink : public ForwardSink {
 public:
  explicit EncodingSink(TransportBroker* node) : node_(node) {}
  // Forwards and local deliveries are the same act on a socket: put bytes
  // on the interface's connection (or, for the edge interface, hand the
  // serialize-once SharedFrame to the edge server). Publications that
  // arrived with their wire frame are forwarded by copying the bytes —
  // the encode (the expensive half: walking the Path and growing a
  // payload) is skipped entirely; frameless events fall back to encoding.
  // Suppressions send nothing by definition.
  void on_event(const DeliveryEvent& event) override {
    if (event.kind == DeliveryEvent::Kind::kSuppressed) return;
    if (node_->deliver_edge(event.iface, event.message(), event.frame)) return;
    if (event.frame.empty()) {
      node_->send_encoded(event.iface, wire::encode_frame(event.message()));
    } else {
      node_->send_encoded(event.iface,
                          std::vector<std::uint8_t>(event.frame.begin(),
                                                    event.frame.end()));
    }
  }

 private:
  TransportBroker* node_;
};

TransportBroker::TransportBroker(Options options)
    : options_(std::move(options)),
      loop_(std::make_unique<EventLoop>(options_.force_poll)),
      broker_(options_.id, options_.config) {
  Transport::Options topts;
  topts.self.kind = wire::Hello::PeerKind::kBroker;
  topts.self.peer_id = static_cast<std::uint32_t>(options_.id);
  topts.self.incarnation = options_.incarnation;
  topts.connection = options_.connection;
  topts.dial_backoff = options_.dial_backoff;
  topts.handshake_timeout_ms = options_.handshake_timeout_ms;
  topts.heartbeat = options_.heartbeat;
  transport_ = std::make_unique<Transport>(loop_.get(), std::move(topts));
  transport_->set_peer_handler(
      [this](Connection* c, const wire::Hello& h) { on_peer(c, h); });
  transport_->set_frame_handler(
      [this](Connection* c, wire::Decoded&& d) { on_frame(c, std::move(d)); });
  transport_->set_disconnect_handler(
      [this](Connection* c, const std::string& r) { on_disconnect(c, r); });
  transport_->set_goodbye_handler([this](Connection* c) { on_goodbye(c); });
  transport_->set_read_done_handler([this](Connection*) { flush(); });
  transport_->set_peer_state_handler([this](Connection* c, PeerState state) {
    (void)c;
    if (state == PeerState::kSuspect) {
      suspect_events_.fetch_add(1, std::memory_order_relaxed);
      registry_.counter("transport.peer_suspect").inc();
    }
  });
}

TransportBroker::~TransportBroker() { stop(); }

void TransportBroker::start() {
  if (running_) return;
  port_ = transport_->listen(options_.listen_port);
  running_ = true;
  thread_ = std::thread([this] { loop_->run(); });
}

void TransportBroker::connect_to(const std::string& host, std::uint16_t port) {
  loop_->post([this, host, port] { transport_->dial(host, port); });
}

void TransportBroker::stop() {
  if (!running_) return;
  running_ = false;
  loop_->post([this] { transport_->shutdown(); });
  loop_->stop();
  thread_.join();
}

void TransportBroker::on_peer(Connection* connection, const wire::Hello& hello) {
  const bool is_broker = hello.kind == wire::Hello::PeerKind::kBroker;
  if (is_broker) {
    // Zombie fence: a Hello carrying a lower incarnation than the highest
    // one seen for this broker id is a surviving socket of a previous
    // life — reject it before it gets an interface.
    auto known = peer_incarnations_.find(hello.peer_id);
    if (known != peer_incarnations_.end() &&
        hello.incarnation < known->second) {
      registry_.counter("transport.stale_incarnations").inc();
      connection->close("membership: stale incarnation");
      return;
    }
    peer_incarnations_[hello.peer_id] = hello.incarnation;
  }
  Peer peer;
  bool rebound = false;
  if (is_broker) {
    auto bound = broker_ifaces_.find(hello.peer_id);
    if (bound != broker_ifaces_.end()) {
      // Known broker returning (restart, or a redial racing our dial):
      // rebind its old interface so the Broker's routing state — and the
      // link-state export the resync handshake serves from it — stays
      // valid.
      peer.interface_id = bound->second;
      rebound = true;
      auto existing = interfaces_.find(peer.interface_id);
      if (existing != interfaces_.end() && existing->second != connection) {
        // Dueling sockets for one peer: newest wins, the older one closes
        // without being treated as a failure.
        auto old_peer = peers_.find(existing->second);
        if (old_peer != peers_.end()) old_peer->second.parting = true;
        existing->second->close("membership: superseded by reconnect");
      }
    } else {
      peer.interface_id = next_interface_++;
      broker_ifaces_[hello.peer_id] = peer.interface_id;
    }
  } else {
    peer.interface_id = next_interface_++;
  }
  peer.hello = hello;
  std::string peer_label =
      (hello.kind == wire::Hello::PeerKind::kBroker ? "broker-" : "client-") +
      std::to_string(hello.peer_id);
  peer.frames_in = &registry_.counter("transport.frames",
                                      {{"peer", peer_label}, {"dir", "in"}});
  peer.frames_out = &registry_.counter("transport.frames",
                                       {{"peer", peer_label}, {"dir", "out"}});
  peer.bytes_in = &registry_.counter("transport.bytes",
                                     {{"peer", peer_label}, {"dir", "in"}});
  peer.bytes_out = &registry_.counter("transport.bytes",
                                      {{"peer", peer_label}, {"dir", "out"}});
  interfaces_[peer.interface_id] = connection;
  if (is_broker) {
    broker_peers_.fetch_add(1, std::memory_order_relaxed);
  } else {
    client_peers_.fetch_add(1, std::memory_order_relaxed);
  }
  // A rebound interface is one the Broker already knows, with its routing
  // state still live; anything else is declared now.
  if (!rebound) {
    flush();
    if (is_broker) {
      broker_.add_neighbor(IfaceId{peer.interface_id});
    } else {
      broker_.add_client(IfaceId{peer.interface_id});
    }
  }
  peers_.emplace(connection, peer);
  connection->set_backpressure_handler(
      [this, connection](bool engaged) { on_backpressure(connection, engaged); });
  // Honour an ingress pause already in force: a peer whose handshake
  // completes mid-pause must not start reading until the pause lifts.
  connection->set_read_enabled(backpressured_connections_ == 0);

  if (is_broker) {
    auto quarantine = quarantined_.find(peer.interface_id);
    if (quarantine != quarantined_.end()) {
      // Rejoin of a quarantined peer: the routes held through its
      // interface go live again, and the publications spooled while it
      // was away ride the new connection first, in order.
      for (auto& frame : quarantine->second.spool) {
        send_encoded(IfaceId{peer.interface_id}, std::move(frame));
      }
      quarantined_.erase(quarantine);
    }
    if (join_syncs_pending_ > 0) {
      // This handshake completes one of an in-flight join()'s expected
      // links: pull the neighbour's state through the resync handshake.
      --join_syncs_pending_;
      send_encoded(IfaceId{peer.interface_id},
                   wire::encode_frame(Message::sync_request()));
    }
  }
}

void TransportBroker::on_goodbye(Connection* connection) {
  auto it = peers_.find(connection);
  if (it == peers_.end() || it->second.parting) return;
  it->second.parting = true;
  registry_.counter("transport.goodbyes").inc();
  if (it->second.hello.kind == wire::Hello::PeerKind::kBroker) {
    // The binding is released with the routes: if this broker ever comes
    // back it enters as a brand-new member, incarnation counter included.
    broker_ifaces_.erase(it->second.hello.peer_id);
    peer_incarnations_.erase(it->second.hello.peer_id);
  }
  // Planned departure: hand the interface's routes back now, while every
  // other link is healthy — the eventual disconnect is then just a socket
  // closing, not a failure.
  hand_back(IfaceId{it->second.interface_id});
}

void TransportBroker::on_disconnect(Connection* connection,
                                    const std::string& reason) {
  (void)reason;
  auto it = peers_.find(connection);
  if (it == peers_.end()) return;
  flush();
  if (it->second.hello.kind == wire::Hello::PeerKind::kBroker) {
    broker_peers_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    client_peers_.fetch_sub(1, std::memory_order_relaxed);
  }
  registry_.counter("transport.disconnects").inc();
  // A superseded connection's interface already points at its successor;
  // only retire the mapping when this connection still owns it.
  auto iface_it = interfaces_.find(it->second.interface_id);
  bool owned = iface_it != interfaces_.end() && iface_it->second == connection;
  if (owned) interfaces_.erase(iface_it);
  // An unplanned broker loss quarantines the interface: the Broker keeps
  // its routing state (betting on rejoin — crash resync is the
  // SyncRequest/SyncState handshake, driven by the restarted side), and
  // publications routed its way are spooled up to the configured bound
  // instead of vanishing. A peer that said goodbye already handed its
  // routes back, so its close is just a socket going away.
  if (owned && it->second.hello.kind == wire::Hello::PeerKind::kBroker &&
      !it->second.parting && running_) {
    Quarantine quarantine;
    quarantine.hello = it->second.hello;
    quarantined_.emplace(it->second.interface_id, std::move(quarantine));
    registry_.counter("transport.quarantines").inc();
  } else if (owned &&
             it->second.hello.kind == wire::Hello::PeerKind::kClient &&
             running_) {
    // A client's interface dies with its connection: on reconnect it gets
    // a fresh interface and re-subscribes, so the old one's subscriptions
    // are withdrawn — otherwise they would route publications at a dead
    // interface forever.
    hand_back(IfaceId{it->second.interface_id});
  }
  // A dying connection never emits backpressure(false); release its share
  // of the ingress pause here or the whole node stays paused forever.
  bool was_backpressured = it->second.backpressured;
  peers_.erase(it);
  if (was_backpressured && backpressured_connections_ > 0) {
    --backpressured_connections_;
    apply_read_pause();
  }
}

void TransportBroker::on_frame(Connection* connection, wire::Decoded&& decoded) {
  auto it = peers_.find(connection);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  frames_in_.fetch_add(1, std::memory_order_relaxed);
  peer.frames_in->inc();
  peer.bytes_in->inc(decoded.consumed);
  if (decoded.kind == wire::FrameKind::kSyncState) {
    // Convergence cost accounting: how many bytes a join/rejoin pulled.
    resync_bytes_in_.fetch_add(decoded.consumed, std::memory_order_relaxed);
  }

  // The decoded frame's raw bytes ride along for publications so the
  // broker's forward stage can resend them verbatim (no per-hop encode).
  // They borrow from the connection's decoder, which is fed again only by
  // its next read.
  const IfaceId from{peer.interface_id};
  const std::span<const std::uint8_t> frame =
      decoded.message.type() == MessageType::kPublish
          ? decoded.raw
          : std::span<const std::uint8_t>{};
  if (broker_.scheduler()) {
    // A pool matches a run of publications as one epoch: hold the frame
    // until the read ends.
    pending_.push_back(PendingFrame{from, std::move(decoded.message), frame});
    return;
  }
  const Broker::Inbound one{from, &decoded.message, frame};
  handle(std::span<const Broker::Inbound>(&one, 1));
}

void TransportBroker::flush() {
  if (pending_.empty()) return;
  // Take the run out first: handling it can close another connection
  // (a failed send closes at once), and the membership change that follows
  // must find nothing left to flush.
  run_.swap(pending_);
  inbound_.clear();
  for (const PendingFrame& held : run_) {
    inbound_.push_back(Broker::Inbound{held.from, &held.msg, held.frame});
  }
  handle(inbound_);
  run_.clear();
}

void TransportBroker::handle(std::span<const Broker::Inbound> batch) {
  EncodingSink sink(this);
  in_broker_ = true;
  note_handle_status(broker_.handle_batch(batch, sink));
  in_broker_ = false;
  apply_handbacks();
}

void TransportBroker::hand_back(IfaceId iface) {
  flush();
  handbacks_.push_back(iface);
  if (!in_broker_) apply_handbacks();
}

void TransportBroker::apply_handbacks() {
  EncodingSink sink(this);
  in_broker_ = true;
  // Indexed: a handback's own sends can fail and request another.
  for (std::size_t i = 0; i < handbacks_.size(); ++i) {
    broker_.drop_interface(handbacks_[i], sink);
  }
  handbacks_.clear();
  in_broker_ = false;
}

void TransportBroker::note_handle_status(const Broker::HandleStatus& status) {
  if (!status.resync_completed) return;
  resyncs_completed_.fetch_add(1, std::memory_order_relaxed);
  if (join_started_ms_ > 0) {
    last_join_convergence_ms_.store(loop_->now_ms() - join_started_ms_,
                                    std::memory_order_relaxed);
    join_started_ms_ = 0.0;
  }
}

void TransportBroker::join(
    std::vector<std::pair<std::string, std::uint16_t>> neighbors,
    std::size_t expected_peers) {
  std::size_t expected = std::max(expected_peers, neighbors.size());
  if (expected == 0) return;
  loop_->post([this, neighbors = std::move(neighbors), expected] {
    // Arm the resync count before any handshake can complete: the
    // handle() call processing the last SyncState reports convergence.
    join_started_ms_ = loop_->now_ms();
    join_syncs_pending_ += expected;
    flush();
    broker_.begin_resync(expected);
    for (const auto& [host, port] : neighbors) {
      transport_->dial(host, port);
    }
  });
}

bool TransportBroker::leave(double timeout_ms) {
  if (!running_) return true;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  {
    std::promise<void> announced;
    loop_->post([this, &announced] {
      // A failed send closes its connection at once, and the handback that
      // follows can close others: send from a copy of the keys.
      std::vector<Connection*> connections;
      for (const auto& [connection, peer] : peers_) {
        connections.push_back(connection);
      }
      for (Connection* connection : connections) {
        if (peers_.count(connection)) connection->send(wire::encode_goodbye());
      }
      announced.set_value();
    });
    announced.get_future().wait();
  }
  // Flush the send queues: in-flight publications (and the goodbyes) must
  // beat the FIN.
  bool clean = true;
  for (;;) {
    std::promise<std::size_t> pending;
    loop_->post([this, &pending] {
      std::size_t total = 0;
      for (auto& [connection, peer] : peers_) {
        (void)peer;
        total += connection->pending_bytes();
      }
      pending.set_value(total);
    });
    if (pending.get_future().get() == 0) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      clean = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop();
  return clean;
}

std::string TransportBroker::state_snapshot() {
  std::promise<std::string> snapshot;
  std::future<std::string> future = snapshot.get_future();
  loop_->post([this, &snapshot] {
    flush();
    snapshot.set_value(snapshot_to_string(broker_));
  });
  return future.get();
}

void TransportBroker::send_encoded(IfaceId interface_id,
                                   std::vector<std::uint8_t> frame) {
  auto it = interfaces_.find(interface_id.value());
  if (it == interfaces_.end()) {
    auto quarantine = quarantined_.find(interface_id.value());
    if (quarantine != quarantined_.end() &&
        quarantine->second.spool_bytes + frame.size() <=
            options_.spool_limit_bytes) {
      // The peer is down but not written off: hold the publication for
      // replay on its successor connection.
      quarantine->second.spool_bytes += frame.size();
      quarantine->second.spool.push_back(std::move(frame));
      spooled_frames_.fetch_add(1, std::memory_order_relaxed);
      registry_.counter("transport.spooled_frames").inc();
      return;
    }
    // Interface gone for good, or its spool is full: the loss is real,
    // make it observable instead of silent.
    peer_down_drops_.fetch_add(1, std::memory_order_relaxed);
    registry_.counter("transport.peer_down_drops").inc();
    return;
  }
  auto peer_it = peers_.find(it->second);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  if (peer_it != peers_.end()) {
    peer_it->second.frames_out->inc();
    peer_it->second.bytes_out->inc(frame.size());
  }
  it->second->send(std::move(frame));
}

IfaceId TransportBroker::attach_edge(EdgeDeliveryHandler handler) {
  std::promise<int> attached;
  std::future<int> future = attached.get_future();
  loop_->post([this, handler = std::move(handler), &attached]() mutable {
    int id = next_interface_++;
    edge_handler_ = std::move(handler);
    edge_iface_ = id;
    flush();
    broker_.add_client(IfaceId{id});
    attached.set_value(id);
  });
  return IfaceId{future.get()};
}

void TransportBroker::edge_send(Message msg) {
  loop_->post([this, msg = std::move(msg)] {
    if (edge_iface_ < 0) return;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    const Broker::Inbound one{IfaceId{edge_iface_}, &msg, {}};
    handle(std::span<const Broker::Inbound>(&one, 1));
  });
}

bool TransportBroker::deliver_edge(IfaceId iface, const Message& msg,
                                   std::span<const std::uint8_t> frame) {
  if (iface.value() != edge_iface_) return false;
  // The serialize-once point: whatever the broker wants this interface to
  // see becomes ONE immutable refcounted frame, shared by every client
  // session the edge fans it out to.
  SharedFrame shared =
      frame.empty()
          ? std::make_shared<const std::vector<std::uint8_t>>(
                wire::encode_frame(msg))
          : std::make_shared<const std::vector<std::uint8_t>>(frame.begin(),
                                                              frame.end());
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  if (edge_handler_) edge_handler_(msg, std::move(shared));
  return true;
}

void TransportBroker::on_backpressure(Connection* connection, bool engaged) {
  auto it = peers_.find(connection);
  if (it == peers_.end() || it->second.backpressured == engaged) return;
  it->second.backpressured = engaged;
  if (engaged) {
    ++backpressured_connections_;
    backpressure_events_.fetch_add(1, std::memory_order_relaxed);
    registry_.counter("transport.backpressure_events").inc();
  } else if (backpressured_connections_ > 0) {
    --backpressured_connections_;
  }
  apply_read_pause();
}

void TransportBroker::apply_read_pause() {
  // Ingress is the only source of egress: pause every reader while any
  // sink is saturated, resume when the last one drains.
  bool paused = backpressured_connections_ > 0;
  for (auto& [connection, peer] : peers_) {
    connection->set_read_enabled(!paused);
  }
}

std::string TransportBroker::metrics_json() {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  loop_->post([this, &promise] {
    if (const MatchScheduler* scheduler = broker_.scheduler()) {
      registry_.gauge("match.epochs")
          .set(static_cast<double>(scheduler->epochs()));
      std::vector<MatchScheduler::WorkerStats> workers =
          scheduler->worker_stats();
      for (std::size_t i = 0; i < workers.size(); ++i) {
        MetricLabels labels{{"worker", std::to_string(i)}};
        registry_.gauge("match.worker_tasks", labels)
            .set(static_cast<double>(workers[i].tasks));
        registry_.gauge("match.worker_busy_ms", labels)
            .set(static_cast<double>(workers[i].busy_ns) / 1e6);
      }
    }
    std::ostringstream os;
    registry_.write_json(os);
    promise.set_value(os.str());
  });
  return future.get();
}

}  // namespace xroute::transport

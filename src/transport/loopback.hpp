// LoopbackOverlay — an in-process overlay of real TransportBroker
// processes-in-threads over loopback TCP, for tests and benchmarks.
//
// Builds one TransportBroker per topology node on an ephemeral port,
// dials every edge (lower id dials higher, so each link is one
// connection), and attaches TransportClients to edge brokers. The overlay
// has no global clock, so tests synchronise on *quiescence*: a phase is
// done when total frame counts stop changing — the loopback analogue of
// the simulator's run-until-empty between phases.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "transport/broker_node.hpp"
#include "transport/client.hpp"

namespace xroute::transport {

class LoopbackOverlay {
 public:
  struct Options {
    BrokerOptions config;
    Connection::Options connection;
    bool force_poll = false;
  };

  LoopbackOverlay(const Topology& topology, Options options);
  ~LoopbackOverlay();

  /// Starts every broker, dials every edge, and blocks until all overlay
  /// links have completed their handshakes. Returns false on timeout.
  bool start(int timeout_ms = 10000);
  void stop();

  /// Creates a client, connects it to `broker_id`'s edge broker, and
  /// blocks until its handshake completes.
  TransportClient& attach_client(int broker_id, int client_id);

  TransportBroker& broker(int id) { return *brokers_.at(static_cast<std::size_t>(id)); }
  TransportClient& client(int id) { return *clients_.at(id); }
  std::size_t broker_count() const { return brokers_.size(); }

  /// Blocks until no frame arrives anywhere in the overlay for `settle_ms`
  /// (brokers and clients), bounded by `timeout_ms`. Returns false on
  /// timeout — the overlay never went quiet.
  bool wait_quiescent(int settle_ms = 150, int timeout_ms = 20000);

 private:
  std::uint64_t total_frames() const;

  Topology topology_;
  Options options_;
  std::vector<std::unique_ptr<TransportBroker>> brokers_;
  std::map<int, std::unique_ptr<TransportClient>> clients_;
  bool started_ = false;
};

}  // namespace xroute::transport

#include "transport/loopback.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace xroute::transport {

namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

LoopbackOverlay::LoopbackOverlay(const Topology& topology, Options options)
    : topology_(topology), options_(std::move(options)) {}

LoopbackOverlay::~LoopbackOverlay() { stop(); }

bool LoopbackOverlay::start(int timeout_ms) {
  if (started_) return true;
  started_ = true;

  brokers_.reserve(topology_.num_brokers);
  for (std::size_t i = 0; i < topology_.num_brokers; ++i) {
    TransportBroker::Options opts;
    opts.id = static_cast<int>(i);
    opts.config = options_.config;
    opts.connection = options_.connection;
    opts.force_poll = options_.force_poll;
    brokers_.push_back(std::make_unique<TransportBroker>(std::move(opts)));
    brokers_.back()->start();
  }

  // One connection per link: the lower id dials the higher.
  std::vector<std::size_t> degree(topology_.num_brokers, 0);
  for (const auto& [a, b] : topology_.edges) {
    int low = std::min(a, b);
    int high = std::max(a, b);
    ++degree[static_cast<std::size_t>(a)];
    ++degree[static_cast<std::size_t>(b)];
    brokers_[static_cast<std::size_t>(low)]->connect_to(
        "127.0.0.1", brokers_[static_cast<std::size_t>(high)]->port());
  }

  // Wait until every broker sees all its overlay links.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool all_up = true;
    for (std::size_t i = 0; i < brokers_.size(); ++i) {
      if (brokers_[i]->broker_peers() < degree[i]) {
        all_up = false;
        break;
      }
    }
    if (all_up) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    sleep_ms(5);
  }
}

void LoopbackOverlay::stop() {
  // Clients first: a client's connection dying mid-broker-teardown is
  // routine, but tearing clients down against live brokers keeps close
  // reasons boring.
  clients_.clear();
  brokers_.clear();
  started_ = false;
}

TransportClient& LoopbackOverlay::attach_client(int broker_id, int client_id) {
  TransportClient::Options opts;
  opts.id = client_id;
  opts.connection = options_.connection;
  opts.force_poll = options_.force_poll;
  auto client = std::make_unique<TransportClient>(std::move(opts));
  client->start("127.0.0.1",
                brokers_.at(static_cast<std::size_t>(broker_id))->port());
  client->wait_connected();
  auto [it, inserted] = clients_.emplace(client_id, std::move(client));
  return *it->second;
}

std::uint64_t LoopbackOverlay::total_frames() const {
  std::uint64_t total = 0;
  for (const auto& broker : brokers_) total += broker->frames_in();
  for (const auto& [id, client] : clients_) total += client->frames_in();
  return total;
}

bool LoopbackOverlay::wait_quiescent(int settle_ms, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  std::uint64_t last = total_frames();
  auto stable_since = std::chrono::steady_clock::now();
  for (;;) {
    sleep_ms(10);
    std::uint64_t now = total_frames();
    auto t = std::chrono::steady_clock::now();
    if (now != last) {
      last = now;
      stable_since = t;
    } else if (t - stable_since >= std::chrono::milliseconds(settle_ms)) {
      return true;
    }
    if (t >= deadline) return false;
  }
}

}  // namespace xroute::transport

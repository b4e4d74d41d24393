// Edge session layer integration tests (DESIGN.md "Edge session layer"):
// lease lifecycle over real sockets — renewal racing expiry, the
// last-lease upstream withdrawal, idle reap vs heartbeat keepalive,
// re-acquiring a lapsed lease — plus the differential acceptance test:
// a client attached through the edge must see exactly the delivery set
// the broker-side matching oracle owes it, with zero duplicates.
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dtd/parser.hpp"
#include "dtd/universe.hpp"
#include "edge/edge_server.hpp"
#include "match/pub_match.hpp"
#include "router/broker.hpp"
#include "transport/broker_node.hpp"
#include "transport/client.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

using transport::TransportBroker;
using transport::TransportClient;

bool wait_until(const std::function<bool()>& done, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// One broker with an edge session layer beside it.
struct EdgeRig {
  explicit EdgeRig(edge::EdgeServer::Options edge_opts = {}) {
    TransportBroker::Options opts;
    opts.id = 0;
    opts.config.use_advertisements = false;
    broker = std::make_unique<TransportBroker>(opts);
    broker->start();
    // Beacon fast so clients running tight failure detectors stay happy
    // during second-scale tests.
    if (edge_opts.heartbeat_interval_ms == 1000.0) {
      edge_opts.heartbeat_interval_ms = 100.0;
    }
    server = std::make_unique<edge::EdgeServer>(broker.get(), edge_opts);
    port = server->start();
  }

  ~EdgeRig() {
    server->stop();
    broker->stop();
  }

  /// A client dialed at the edge port. `beating` controls whether it
  /// sends keepalive heartbeats (the lease-renewal signal).
  std::unique_ptr<TransportClient> edge_client(int id, bool beating,
                                               double interval_ms = 50.0) {
    TransportClient::Options opts;
    opts.id = id;
    opts.heartbeat.enabled = beating;
    opts.heartbeat.interval_ms = interval_ms;
    opts.dial_backoff.max_attempts = 0;  // reaped/closed stays closed
    auto client = std::make_unique<TransportClient>(std::move(opts));
    client->start("127.0.0.1", port);
    return client;
  }

  /// A publisher attached to the broker directly (not through the edge).
  std::unique_ptr<TransportClient> broker_client(int id) {
    TransportClient::Options opts;
    opts.id = id;
    auto client = std::make_unique<TransportClient>(std::move(opts));
    client->start("127.0.0.1", broker->port());
    return client;
  }

  std::unique_ptr<TransportBroker> broker;
  std::unique_ptr<edge::EdgeServer> server;
  std::uint16_t port = 0;
};

Message publication(std::uint64_t doc_id, const std::string& path) {
  PublishMsg pub;
  pub.path = parse_path(path);
  pub.doc_id = doc_id;
  pub.doc_bytes = 64;
  return Message{pub};
}

TEST(EdgeLeases, HeartbeatRenewalOutracesExpiry) {
  edge::EdgeServer::Options opts;
  opts.lease_ttl_ms = 250.0;
  opts.sweep_interval_ms = 25.0;
  EdgeRig rig(opts);
  auto client = rig.edge_client(1, /*beating=*/true);
  ASSERT_TRUE(client->wait_connected(5000));
  client->send(Message::subscribe(parse_xpe("/a")));
  ASSERT_TRUE(wait_until([&] { return client->lease_grants() >= 1; }, 5000));
  EXPECT_DOUBLE_EQ(client->last_lease_ttl_ms(), 250.0);

  // Four TTLs of heartbeats: the lease must never lapse.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  EXPECT_EQ(rig.server->leases_expired(), 0u);
  EXPECT_EQ(rig.server->upstream_unsubscribes(), 0u);

  // ... and the subscription still routes.
  auto publisher = rig.broker_client(99);
  ASSERT_TRUE(publisher->wait_connected(5000));
  publisher->send(publication(7, "/a"));
  EXPECT_TRUE(wait_until(
      [&] { return client->delivered_docs().count(7) != 0; }, 5000));
  publisher->stop();
  client->stop();
}

TEST(EdgeLeases, LastLapsedLeaseWithdrawsTheUpstreamSubscription) {
  edge::EdgeServer::Options opts;
  opts.lease_ttl_ms = 150.0;
  opts.sweep_interval_ms = 25.0;
  opts.idle_timeout_ms = 60000.0;  // isolate lease expiry from idle reap
  EdgeRig rig(opts);
  // Two silent clients, same interest: one upstream subscribe total.
  auto first = rig.edge_client(1, /*beating=*/false);
  auto second = rig.edge_client(2, /*beating=*/false);
  ASSERT_TRUE(first->wait_connected(5000));
  ASSERT_TRUE(second->wait_connected(5000));
  first->send(Message::subscribe(parse_xpe("/a")));
  second->send(Message::subscribe(parse_xpe("/a")));
  ASSERT_TRUE(wait_until([&] { return rig.server->leases_granted() >= 2; },
                         5000));
  EXPECT_EQ(rig.server->upstream_subscribes(), 1u);
  EXPECT_EQ(rig.server->distinct_interests(), 1u);

  // Nobody beats: both leases lapse, and ONLY the last drop sends the
  // single upstream unsubscribe.
  ASSERT_TRUE(wait_until([&] { return rig.server->leases_expired() >= 2; },
                         5000));
  ASSERT_TRUE(wait_until(
      [&] { return rig.server->upstream_unsubscribes() >= 1; }, 5000));
  EXPECT_EQ(rig.server->upstream_unsubscribes(), 1u);
  EXPECT_EQ(rig.server->distinct_interests(), 0u);

  // The broker no longer routes the xpe to the edge at all.
  auto publisher = rig.broker_client(99);
  ASSERT_TRUE(publisher->wait_connected(5000));
  publisher->send(publication(11, "/a"));
  publisher->sync();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(first->delivered_docs().empty());
  EXPECT_TRUE(second->delivered_docs().empty());
  publisher->stop();
  first->stop();
  second->stop();
}

TEST(EdgeLeases, ReacquiringALapsedLeaseSubscribesExactlyOnceMore) {
  edge::EdgeServer::Options opts;
  opts.lease_ttl_ms = 150.0;
  opts.sweep_interval_ms = 25.0;
  opts.idle_timeout_ms = 60000.0;
  EdgeRig rig(opts);
  auto client = rig.edge_client(1, /*beating=*/false);
  ASSERT_TRUE(client->wait_connected(5000));
  client->send(Message::subscribe(parse_xpe("/a")));
  ASSERT_TRUE(wait_until([&] { return client->lease_grants() >= 1; }, 5000));
  ASSERT_TRUE(wait_until([&] { return rig.server->leases_expired() >= 1; },
                         5000));
  ASSERT_TRUE(wait_until(
      [&] { return rig.server->upstream_unsubscribes() >= 1; }, 5000));

  // Re-subscribe after the lapse: a NEW lease, one more grant, one more
  // upstream subscribe — exactly once each, no double counting.
  client->send(Message::subscribe(parse_xpe("/a")));
  ASSERT_TRUE(wait_until([&] { return client->lease_grants() >= 2; }, 5000));
  EXPECT_EQ(client->lease_grants(), 2u);
  EXPECT_EQ(rig.server->leases_granted(), 2u);
  EXPECT_EQ(rig.server->upstream_subscribes(), 2u);
  EXPECT_EQ(rig.server->upstream_unsubscribes(), 1u);

  // The re-acquired lease routes again.
  auto publisher = rig.broker_client(99);
  ASSERT_TRUE(publisher->wait_connected(5000));
  publisher->send(publication(21, "/a"));
  EXPECT_TRUE(wait_until(
      [&] { return client->delivered_docs().count(21) != 0; }, 5000));
  EXPECT_EQ(client->duplicate_publications(), 0u);
  publisher->stop();
  client->stop();
}

TEST(EdgeSessions, IdleReapTakesTheSilentAndSparesTheBeating) {
  edge::EdgeServer::Options opts;
  opts.lease_ttl_ms = 10000.0;
  opts.sweep_interval_ms = 25.0;
  opts.idle_timeout_ms = 200.0;
  EdgeRig rig(opts);
  // Neither session holds a lease; only the heartbeat separates them.
  auto beating = rig.edge_client(1, /*beating=*/true);
  auto silent = rig.edge_client(2, /*beating=*/false);
  ASSERT_TRUE(beating->wait_connected(5000));
  ASSERT_TRUE(silent->wait_connected(5000));
  ASSERT_TRUE(wait_until([&] { return rig.server->sessions_live() == 2; },
                         5000));

  ASSERT_TRUE(wait_until([&] { return rig.server->idle_reaped() >= 1; },
                         5000));
  ASSERT_TRUE(wait_until([&] { return !silent->connected(); }, 5000));
  // Several idle windows later the beating session is still there.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_TRUE(beating->connected());
  EXPECT_EQ(rig.server->idle_reaped(), 1u);
  EXPECT_EQ(rig.server->sessions_live(), 1u);
  beating->stop();
  silent->stop();
}

TEST(EdgeSessions, ClientPublishesRideTheEdgeIntoTheBroker) {
  EdgeRig rig;
  auto subscriber = rig.broker_client(1);
  ASSERT_TRUE(subscriber->wait_connected(5000));
  subscriber->send(Message::subscribe(parse_xpe("/a")));
  subscriber->sync();
  auto edge_pub = rig.edge_client(2, /*beating=*/true);
  ASSERT_TRUE(edge_pub->wait_connected(5000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  edge_pub->send(publication(31, "/a"));
  EXPECT_TRUE(wait_until(
      [&] { return subscriber->delivered_docs().count(31) != 0; }, 5000));
  edge_pub->stop();
  subscriber->stop();
}

TEST(EdgeSessions, MetricsExposeSessionLeaseAndSharedByteGauges) {
  EdgeRig rig;
  auto client = rig.edge_client(1, /*beating=*/true);
  ASSERT_TRUE(client->wait_connected(5000));
  client->send(Message::subscribe(parse_xpe("/a")));
  ASSERT_TRUE(wait_until([&] { return client->lease_grants() >= 1; }, 5000));
  std::string json = rig.server->metrics_json();
  EXPECT_NE(json.find("edge.sessions_live"), std::string::npos);
  EXPECT_NE(json.find("edge.leases_expired"), std::string::npos);
  EXPECT_NE(json.find("edge.reactor_sessions"), std::string::npos);
  EXPECT_NE(json.find("transport.send_shared_bytes"), std::string::npos);
  EXPECT_EQ(rig.server->sessions_live(), 1u);
  std::size_t across_reactors = 0;
  for (int r = 0; r < rig.server->reactors(); ++r) {
    across_reactors += rig.server->reactor_sessions(r);
  }
  EXPECT_EQ(across_reactors, 1u);
  client->stop();
}

// The acceptance differential: delivery sets through the edge must equal
// both the matching oracle and a direct broker client with the same
// interest, duplicate-free.
TEST(EdgeDifferential, EdgeDeliverySetsMatchTheBrokerOracle) {
  edge::EdgeServer::Options opts;
  opts.reactors = 2;
  EdgeRig rig(opts);
  const std::vector<std::string> xpes = {"/a", "/a/b", "//c", "/d//e"};
  const std::vector<std::string> paths = {"/a/b", "/a/b/c", "/d/x/e",
                                          "/q",   "/c",     "/a"};

  // Two edge clients per interest (exercising the lease dedup) and one
  // direct broker client per interest (the live oracle).
  std::vector<std::unique_ptr<TransportClient>> edge_clients;
  std::vector<std::unique_ptr<TransportClient>> direct_clients;
  for (std::size_t i = 0; i < xpes.size(); ++i) {
    for (int twin = 0; twin < 2; ++twin) {
      auto client =
          rig.edge_client(100 + static_cast<int>(i) * 2 + twin, true);
      ASSERT_TRUE(client->wait_connected(5000));
      client->send(Message::subscribe(parse_xpe(xpes[i])));
      edge_clients.push_back(std::move(client));
    }
    auto direct = rig.broker_client(200 + static_cast<int>(i));
    ASSERT_TRUE(direct->wait_connected(5000));
    direct->send(Message::subscribe(parse_xpe(xpes[i])));
    direct->sync();
    direct_clients.push_back(std::move(direct));
  }
  ASSERT_TRUE(wait_until(
      [&] { return rig.server->leases_granted() >= 2 * xpes.size(); }, 5000));
  // One upstream subscription per distinct interest, not per client.
  EXPECT_EQ(rig.server->upstream_subscribes(), xpes.size());

  auto publisher = rig.broker_client(99);
  ASSERT_TRUE(publisher->wait_connected(5000));
  for (std::size_t d = 0; d < paths.size(); ++d) {
    publisher->send(publication(d + 1, paths[d]));
  }
  publisher->sync();

  // The oracle: doc d reaches interest i iff matches(path, xpe).
  std::vector<std::set<std::uint64_t>> expected(xpes.size());
  for (std::size_t i = 0; i < xpes.size(); ++i) {
    Xpe xpe = parse_xpe(xpes[i]);
    for (std::size_t d = 0; d < paths.size(); ++d) {
      if (matches(parse_path(paths[d]), xpe)) expected[i].insert(d + 1);
    }
  }
  for (std::size_t i = 0; i < xpes.size(); ++i) {
    ASSERT_TRUE(wait_until(
        [&] {
          return edge_clients[i * 2]->delivered_docs() == expected[i] &&
                 edge_clients[i * 2 + 1]->delivered_docs() == expected[i];
        },
        10000))
        << "edge clients for " << xpes[i] << " never converged on the oracle";
  }
  // Quiesce, then hold the full cross-check: edge == oracle == direct,
  // and nobody saw a frame twice.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (std::size_t i = 0; i < xpes.size(); ++i) {
    EXPECT_EQ(edge_clients[i * 2]->delivered_docs(), expected[i]);
    EXPECT_EQ(edge_clients[i * 2 + 1]->delivered_docs(), expected[i]);
    EXPECT_EQ(direct_clients[i]->delivered_docs(), expected[i]);
    EXPECT_EQ(edge_clients[i * 2]->duplicate_publications(), 0u);
    EXPECT_EQ(edge_clients[i * 2 + 1]->duplicate_publications(), 0u);
  }
  EXPECT_EQ(rig.server->slow_session_drops(), 0u);
  publisher->stop();
  for (auto& client : edge_clients) client->stop();
  for (auto& client : direct_clients) client->stop();
}

// An edge suppression (merged PRT entry matched, none of the client's own
// XPEs did) is count-only: the DeliveryEvent names the client and nothing
// else — no Message pointer, no frame, so no sink can ever resurrect a
// Message copy for traffic that is by definition never sent.
TEST(EdgeSuppression, SuppressedEventsCarryNoMessage) {
  struct AssertingSink : ForwardSink {
    std::size_t suppressed = 0;
    void on_event(const DeliveryEvent& event) override {
      if (event.kind == DeliveryEvent::Kind::kSuppressed) {
        ++suppressed;
        EXPECT_EQ(event.msg, nullptr);
        EXPECT_FALSE(event.has_message());
        EXPECT_TRUE(event.frame.empty());
      } else {
        EXPECT_TRUE(event.has_message());
      }
    }
  };

  Dtd dtd = parse_dtd(R"(
<!ELEMENT r (x)+>
<!ELEMENT x (a | b)>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY>
)");
  PathUniverse universe(dtd);
  BrokerOptions config;
  config.use_advertisements = false;
  config.merging_enabled = true;
  config.merge_universe = &universe;
  config.merge_interval = 2;
  Broker broker(0, config);
  broker.add_client(IfaceId{1});
  broker.add_client(IfaceId{2});
  broker.add_neighbor(IfaceId{3});

  AssertingSink sink;
  broker.handle(IfaceId{1}, Message::subscribe(parse_xpe("/r/x/a")), sink);
  broker.handle(IfaceId{2}, Message::subscribe(parse_xpe("/r/x/b")), sink);
  ASSERT_EQ(broker.merges_applied(), 1u);  // both entries merged to /r/x/*

  PublishMsg pub;
  pub.path = parse_path("/r/x/a");
  pub.doc_id = 1;
  broker.handle(IfaceId{3}, Message{pub}, sink);
  // Delivered to client 1 (exact), suppressed for client 2 (merger-only).
  EXPECT_EQ(sink.suppressed, 1u);
}

}  // namespace
}  // namespace xroute

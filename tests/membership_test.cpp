// Membership tests: the dynamic-overlay layer over real sockets — the
// handshake deadline, the heartbeat failure detector (driven by a raw
// socket that completes the handshake and then goes silent, the one
// failure mode TCP cannot report), the incarnation fence against zombie
// rejoins, live join's routing-state pull, planned leave's route
// handback, the quarantine spool with its overflow counter, and the
// intake contract for the frames one read surfaces.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "router/message.hpp"
#include "transport/broker_node.hpp"
#include "transport/client.hpp"
#include "wire/codec.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

using transport::TransportBroker;
using transport::TransportClient;

/// Polls `done` every millisecond until it holds or the deadline passes.
bool eventually(const std::function<bool()>& done, int timeout_ms = 10000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Broker options with a detector fast enough for test deadlines. The
/// suite runs on loaded CI machines: intervals are tight relative to the
/// 10 s poll deadlines, not to wall-clock smoothness.
TransportBroker::Options broker_opts(int id) {
  TransportBroker::Options opts;
  opts.id = id;
  opts.config.use_advertisements = false;
  opts.handshake_timeout_ms = 5000.0;
  opts.heartbeat.interval_ms = 25.0;
  opts.heartbeat.suspect_after_ms = 100.0;
  opts.heartbeat.down_after_ms = 300.0;
  opts.dial_backoff = BackoffPolicy{20.0, 2.0, 200.0, -1};
  return opts;
}

/// Client options matching broker_opts(): the client must beacon at least
/// as fast as the broker's detector or it gets reaped while idle.
TransportClient::Options client_opts(int id) {
  TransportClient::Options opts;
  opts.id = id;
  opts.heartbeat.interval_ms = 25.0;
  opts.heartbeat.suspect_after_ms = 100.0;
  opts.heartbeat.down_after_ms = 300.0;
  opts.dial_backoff = BackoffPolicy{20.0, 2.0, 200.0, -1};
  return opts;
}

/// Blocking TCP connect to a local broker; returns the fd (or -1).
int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Publishes fresh documents on `path` until the subscriber holds one of
/// them — the routing-converged analogue of a single publish, immune to
/// races between subscription propagation and the publication.
std::uint64_t publish_until_delivered(TransportClient& publisher,
                                      TransportClient& subscriber,
                                      const std::string& path,
                                      std::uint64_t first_id,
                                      int timeout_ms = 10000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  std::uint64_t id = first_id;
  while (std::chrono::steady_clock::now() < deadline) {
    PublishMsg pub;
    pub.path = parse_path(path);
    pub.doc_id = id;
    pub.doc_bytes = 100;
    publisher.send(Message{pub});
    auto retry = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(150);
    while (std::chrono::steady_clock::now() < retry) {
      if (subscriber.delivered_docs().count(id)) return id;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ++id;
  }
  return 0;
}

// -- Handshake deadline ------------------------------------------------------

TEST(Membership, HandshakeTimeoutReapsSilentSocket) {
  TransportBroker::Options opts = broker_opts(0);
  opts.handshake_timeout_ms = 100.0;
  TransportBroker broker(std::move(opts));
  broker.start();

  int fd = raw_connect(broker.port());
  ASSERT_GE(fd, 0);
  // Say nothing: the broker must reap the connection at the deadline
  // rather than holding the slot forever.
  EXPECT_TRUE(eventually([&] { return broker.handshake_timeouts() >= 1; }));
  EXPECT_EQ(broker.broker_peers(), 0u);
  EXPECT_EQ(broker.client_peers(), 0u);
  // The close reaches us as EOF.
  char byte;
  ssize_t n;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    if (n == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(n, 0);
  ::close(fd);
  broker.stop();
}

// -- Failure detection -------------------------------------------------------

// A peer that freezes (SIGSTOP, network partition, machine death) keeps
// its TCP connection alive but falls silent — only the heartbeat detector
// can see it. A raw socket that completes the broker handshake, plants a
// subscription, and then never beacons is exactly that peer.
TEST(Membership, HeartbeatDetectsSilentPeerAndQuarantinesItsRoutes) {
  TransportBroker broker(broker_opts(0));
  broker.start();

  int fd = raw_connect(broker.port());
  ASSERT_GE(fd, 0);
  wire::Hello hello;
  hello.kind = wire::Hello::PeerKind::kBroker;
  hello.peer_id = 9;
  hello.max_version = wire::kProtocolVersion;
  send_all(fd, wire::encode_hello(hello));
  send_all(fd, wire::encode_frame(Message::subscribe(parse_xpe("/x"))));
  ASSERT_TRUE(eventually([&] { return broker.broker_peers() == 1; }));

  // Silence. The detector must pass through suspicion on its way down.
  EXPECT_TRUE(eventually([&] { return broker.suspect_events() >= 1; }));
  EXPECT_TRUE(eventually([&] { return broker.heartbeat_downs() >= 1; }));
  EXPECT_TRUE(eventually([&] { return broker.broker_peers() == 0; }));
  ::close(fd);

  // The dead peer's subscription is quarantined, not dropped: a matching
  // publication is spooled for its return instead of vanishing.
  TransportClient publisher(client_opts(50));
  publisher.start("127.0.0.1", broker.port());
  ASSERT_TRUE(publisher.wait_connected());
  PublishMsg pub;
  pub.path = parse_path("/x");
  pub.doc_id = 1;
  pub.doc_bytes = 100;
  publisher.send(Message{pub});
  EXPECT_TRUE(eventually([&] { return broker.spooled_frames() >= 1; }));
  EXPECT_EQ(broker.peer_down_drops(), 0u);

  publisher.stop();
  broker.stop();
}

// With no spool budget the quarantined interface cannot buffer: the
// forward is counted as a peer-down drop instead of silently vanishing.
TEST(Membership, SpoolOverflowCountsPeerDownDrops) {
  TransportBroker::Options opts = broker_opts(0);
  opts.spool_limit_bytes = 0;
  TransportBroker broker(std::move(opts));
  broker.start();

  int fd = raw_connect(broker.port());
  ASSERT_GE(fd, 0);
  wire::Hello hello;
  hello.kind = wire::Hello::PeerKind::kBroker;
  hello.peer_id = 9;
  hello.max_version = wire::kProtocolVersion;
  send_all(fd, wire::encode_hello(hello));
  send_all(fd, wire::encode_frame(Message::subscribe(parse_xpe("/x"))));
  ASSERT_TRUE(eventually([&] { return broker.broker_peers() == 1; }));
  ASSERT_TRUE(eventually([&] { return broker.heartbeat_downs() >= 1; }));
  ::close(fd);

  TransportClient publisher(client_opts(50));
  publisher.start("127.0.0.1", broker.port());
  ASSERT_TRUE(publisher.wait_connected());
  PublishMsg pub;
  pub.path = parse_path("/x");
  pub.doc_id = 1;
  pub.doc_bytes = 100;
  publisher.send(Message{pub});
  EXPECT_TRUE(eventually([&] { return broker.peer_down_drops() >= 1; }));
  EXPECT_EQ(broker.spooled_frames(), 0u);

  publisher.stop();
  broker.stop();
}

// -- Incarnation fence -------------------------------------------------------

TEST(Membership, StaleIncarnationIsRejectedUntilItOutlivesTheDead) {
  TransportBroker survivor(broker_opts(0));
  survivor.start();

  // First life of broker 7 announces incarnation 1 (it has restarted
  // before), then crashes.
  {
    TransportBroker::Options opts = broker_opts(7);
    opts.incarnation = 1;
    TransportBroker first_life(std::move(opts));
    first_life.start();
    first_life.connect_to("127.0.0.1", survivor.port());
    ASSERT_TRUE(eventually([&] { return survivor.broker_peers() == 1; }));
    first_life.stop();
  }
  ASSERT_TRUE(eventually([&] { return survivor.broker_peers() == 0; }));

  // A zombie announcing an OLDER incarnation must never become a peer —
  // it would resurrect routing state the overlay has already moved past.
  {
    TransportBroker::Options opts = broker_opts(7);
    opts.incarnation = 0;
    opts.dial_backoff = BackoffPolicy{20.0, 2.0, 100.0, 4};
    TransportBroker zombie(std::move(opts));
    zombie.start();
    zombie.connect_to("127.0.0.1", survivor.port());
    EXPECT_FALSE(
        eventually([&] { return survivor.broker_peers() != 0; }, 500));
    zombie.stop();
  }

  // The true successor carries a higher incarnation and is admitted.
  TransportBroker::Options opts = broker_opts(7);
  opts.incarnation = 2;
  TransportBroker successor(std::move(opts));
  successor.start();
  successor.connect_to("127.0.0.1", survivor.port());
  EXPECT_TRUE(eventually([&] { return survivor.broker_peers() == 1; }));
  successor.stop();
  survivor.stop();
}

// -- Live join ---------------------------------------------------------------

// A broker joining a running overlay pulls routing state through the
// resync handshake: a publication entering at the newcomer reaches a
// subscriber that never re-sent its subscription.
TEST(Membership, LiveJoinPullsRoutingState) {
  TransportBroker a(broker_opts(0));
  TransportBroker b(broker_opts(1));
  a.start();
  b.start();
  b.connect_to("127.0.0.1", a.port());
  ASSERT_TRUE(eventually(
      [&] { return a.broker_peers() == 1 && b.broker_peers() == 1; }));

  TransportClient subscriber(client_opts(60));
  subscriber.start("127.0.0.1", a.port());
  ASSERT_TRUE(subscriber.wait_connected());
  subscriber.send(Message::subscribe(parse_xpe("/x")));
  subscriber.sync();

  // Prove the subscription propagated before the join.
  TransportClient seed(client_opts(61));
  seed.start("127.0.0.1", b.port());
  ASSERT_TRUE(seed.wait_connected());
  ASSERT_NE(publish_until_delivered(seed, subscriber, "/x", 1), 0u);

  TransportBroker joiner(broker_opts(2));
  joiner.start();
  joiner.join({{"127.0.0.1", b.port()}});
  ASSERT_TRUE(eventually([&] { return joiner.resyncs_completed() >= 1; }));
  EXPECT_GT(joiner.resync_bytes_in(), 0u);
  EXPECT_GT(joiner.last_join_convergence_ms(), 0.0);

  // A document entering the overlay at the newcomer finds its way to the
  // subscriber two hops away purely from the pulled state.
  TransportClient publisher(client_opts(62));
  publisher.start("127.0.0.1", joiner.port());
  ASSERT_TRUE(publisher.wait_connected());
  EXPECT_NE(publish_until_delivered(publisher, subscriber, "/x", 1000), 0u);
  EXPECT_EQ(subscriber.duplicate_publications(), 0u);

  publisher.stop();
  seed.stop();
  subscriber.stop();
  joiner.stop();
  b.stop();
  a.stop();
}

// -- Planned leave -----------------------------------------------------------

// A goodbye hands routes back: after a clean leave the survivor holds no
// quarantined interface, spools nothing, and drops nothing — the leaver
// is simply gone, detector untriggered.
TEST(Membership, PlannedLeaveHandsRoutesBack) {
  TransportBroker survivor(broker_opts(0));
  survivor.start();

  TransportBroker leaver(broker_opts(1));
  leaver.start();
  leaver.connect_to("127.0.0.1", survivor.port());
  ASSERT_TRUE(eventually([&] { return survivor.broker_peers() == 1; }));

  // Plant a subscription reachable only through the leaver, then detach
  // its client so the leave is the only thing withdrawing the route.
  {
    TransportClient subscriber(client_opts(70));
    subscriber.start("127.0.0.1", leaver.port());
    ASSERT_TRUE(subscriber.wait_connected());
    subscriber.send(Message::subscribe(parse_xpe("/x")));
    subscriber.sync();
    ASSERT_TRUE(subscriber.drain());
    subscriber.stop();
  }

  EXPECT_TRUE(leaver.leave());
  ASSERT_TRUE(eventually([&] { return survivor.broker_peers() == 0; }));

  // Publications toward the departed broker's former subscription must
  // not spool or drop: its routes were withdrawn at goodbye time.
  TransportClient publisher(client_opts(71));
  publisher.start("127.0.0.1", survivor.port());
  ASSERT_TRUE(publisher.wait_connected());
  PublishMsg pub;
  pub.path = parse_path("/x");
  pub.doc_id = 1;
  pub.doc_bytes = 100;
  publisher.send(Message{pub});
  publisher.sync();
  ASSERT_TRUE(publisher.drain());
  // Settle: give a mistaken spool/drop time to show up.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(survivor.spooled_frames(), 0u);
  EXPECT_EQ(survivor.peer_down_drops(), 0u);
  EXPECT_EQ(survivor.heartbeat_downs(), 0u);

  publisher.stop();
  survivor.stop();
}

// -- Crash rejoin ------------------------------------------------------------

// The full cycle: a broker dies mid-stream, the survivor quarantines its
// routes, the broker rejoins on the same port with a bumped incarnation,
// resyncs, and the subscriber behind it receives fresh documents exactly
// once.
TEST(Membership, CrashRejoinRestoresDeliveryWithoutDuplicates) {
  TransportBroker a(broker_opts(0));
  a.start();

  std::uint16_t b_port = 0;
  {
    TransportBroker b(broker_opts(1));
    b.start();
    b_port = b.port();
    b.connect_to("127.0.0.1", a.port());
    ASSERT_TRUE(eventually(
        [&] { return a.broker_peers() == 1 && b.broker_peers() == 1; }));

    // Crash: stop() sends no goodbye. The survivor sees the connection
    // die and must quarantine — not hand back — broker 1's routes.
    b.stop();
  }
  ASSERT_TRUE(eventually([&] { return a.broker_peers() == 0; }));

  // Rejoin: same port, next incarnation, explicit join to resync.
  TransportBroker::Options opts = broker_opts(1);
  opts.listen_port = b_port;
  opts.incarnation = 1;
  TransportBroker reborn(std::move(opts));
  reborn.start();
  reborn.join({{"127.0.0.1", a.port()}});
  ASSERT_TRUE(eventually([&] { return reborn.resyncs_completed() >= 1; }));
  ASSERT_TRUE(eventually(
      [&] { return a.broker_peers() == 1 && reborn.broker_peers() == 1; }));

  TransportClient subscriber(client_opts(80));
  subscriber.start("127.0.0.1", reborn.port());
  ASSERT_TRUE(subscriber.wait_connected());
  subscriber.send(Message::subscribe(parse_xpe("/x")));
  subscriber.sync();

  TransportClient publisher(client_opts(81));
  publisher.start("127.0.0.1", a.port());
  ASSERT_TRUE(publisher.wait_connected());
  EXPECT_NE(publish_until_delivered(publisher, subscriber, "/x", 1), 0u);
  EXPECT_EQ(subscriber.duplicate_publications(), 0u);

  publisher.stop();
  subscriber.stop();
  reborn.stop();
  a.stop();
}

// -- Intake contract ---------------------------------------------------------
//
// What the broker's intake owes the frames one read surfaces, at every
// thread count: each raw peer below writes its whole script in one send().

std::vector<std::uint8_t> hello_frame(wire::Hello::PeerKind kind,
                                      std::uint32_t id) {
  wire::Hello hello;
  hello.kind = kind;
  hello.peer_id = id;
  hello.max_version = wire::kProtocolVersion;
  return wire::encode_hello(hello);
}

void append(std::vector<std::uint8_t>& bytes,
            const std::vector<std::uint8_t>& frame) {
  bytes.insert(bytes.end(), frame.begin(), frame.end());
}

std::vector<std::uint8_t> publication_frame(std::uint64_t doc_id) {
  PublishMsg pub;
  pub.path = parse_path("/x");
  pub.doc_id = doc_id;
  pub.doc_bytes = 100;
  return wire::encode_frame(Message{pub});
}

/// The value of the unlabelled gauge `name` in a metrics_json() export
/// (-1 when the export has no such series).
double gauge_value(const std::string& json, const std::string& name) {
  std::size_t at = json.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return -1.0;
  at = json.find("\"value\": ", at);
  return std::stod(json.substr(at + 9));
}

class MembershipIntake : public ::testing::TestWithParam<std::size_t> {
 protected:
  TransportBroker::Options options(int id) const {
    TransportBroker::Options opts = broker_opts(id);
    opts.config.match_threads = GetParam();
    return opts;
  }
};

// A client writes a burst of publications and hangs up. The frames the
// broker surfaced before the hang-up are traffic: every one is routed,
// while the connection whose decoder their bytes live in is still alive.
TEST_P(MembershipIntake, PublicationsWrittenBeforeAHangUpAreAllDelivered) {
  TransportBroker broker(options(0));
  broker.start();
  TransportClient subscriber(client_opts(90));
  subscriber.start("127.0.0.1", broker.port());
  ASSERT_TRUE(subscriber.wait_connected());
  subscriber.send(Message::subscribe(parse_xpe("/x")));
  subscriber.sync();
  ASSERT_TRUE(eventually([&] {
    return broker.state_snapshot().find("/x") != std::string::npos;
  }));

  constexpr std::uint64_t kPublications = 200;
  std::vector<std::uint8_t> script =
      hello_frame(wire::Hello::PeerKind::kClient, 91);
  std::set<std::uint64_t> expected;
  for (std::uint64_t id = 1; id <= kPublications; ++id) {
    append(script, publication_frame(id));
    expected.insert(id);
  }
  int fd = raw_connect(broker.port());
  ASSERT_GE(fd, 0);
  send_all(fd, script);
  // Hang up: the broker reads end-of-stream right behind the frames. (A
  // half-close, so the broker's unread Hello cannot turn it into a reset.)
  ::shutdown(fd, SHUT_WR);

  EXPECT_TRUE(eventually(
      [&] { return subscriber.delivered_docs().size() == kPublications; }));
  EXPECT_EQ(subscriber.delivered_docs(), expected);
  EXPECT_EQ(subscriber.duplicate_publications(), 0u);
  ::close(fd);
  subscriber.stop();
  broker.stop();
}

// A broker peer subscribes and says goodbye in the same write. The
// subscribe is handled before the goodbye hands the interface's routes
// back, so the route does not outlive its peer.
TEST_P(MembershipIntake, GoodbyeAfterASubscribeInOneWriteHandsTheRouteBack) {
  TransportBroker broker(options(0));
  broker.start();

  // Control: a peer that subscribes and stays keeps its route.
  std::vector<std::uint8_t> stays =
      hello_frame(wire::Hello::PeerKind::kBroker, 8);
  append(stays, wire::encode_frame(Message::subscribe(parse_xpe("/kept"))));
  int stayer = raw_connect(broker.port());
  ASSERT_GE(stayer, 0);
  send_all(stayer, stays);
  ASSERT_TRUE(eventually([&] {
    return broker.state_snapshot().find("/kept") != std::string::npos;
  }));

  std::vector<std::uint8_t> leaves =
      hello_frame(wire::Hello::PeerKind::kBroker, 9);
  append(leaves, wire::encode_frame(Message::subscribe(parse_xpe("/x"))));
  append(leaves, wire::encode_goodbye());
  int leaver = raw_connect(broker.port());
  ASSERT_GE(leaver, 0);
  send_all(leaver, leaves);
  ASSERT_TRUE(eventually([&] {
    return broker.metrics_json().find("transport.goodbyes") !=
           std::string::npos;
  }));

  std::string state = broker.state_snapshot();
  EXPECT_EQ(state.find("/x"), std::string::npos) << state;
  EXPECT_NE(state.find("/kept"), std::string::npos) << state;
  ::close(leaver);
  ::close(stayer);
  broker.stop();
}

INSTANTIATE_TEST_SUITE_P(Threads, MembershipIntake,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "threads" + std::to_string(info.param);
                         });

// With a worker pool, the publications one read surfaces are matched as
// one run: a handful of epochs for a 64-publication write, never one per
// frame.
TEST(MembershipIntakeBatching, OneWriteOfPublicationsTakesAFewEpochs) {
  TransportBroker::Options opts = broker_opts(0);
  opts.config.match_threads = 4;
  TransportBroker broker(std::move(opts));
  broker.start();
  TransportClient subscriber(client_opts(92));
  subscriber.start("127.0.0.1", broker.port());
  ASSERT_TRUE(subscriber.wait_connected());
  subscriber.send(Message::subscribe(parse_xpe("/x")));
  subscriber.sync();
  ASSERT_TRUE(eventually([&] {
    return broker.state_snapshot().find("/x") != std::string::npos;
  }));
  const double epochs_before = gauge_value(broker.metrics_json(), "match.epochs");
  ASSERT_GE(epochs_before, 0.0);

  constexpr std::uint64_t kPublications = 64;
  std::vector<std::uint8_t> script =
      hello_frame(wire::Hello::PeerKind::kClient, 93);
  for (std::uint64_t id = 1; id <= kPublications; ++id) {
    append(script, publication_frame(id));
  }
  int fd = raw_connect(broker.port());
  ASSERT_GE(fd, 0);
  send_all(fd, script);
  ASSERT_TRUE(eventually(
      [&] { return subscriber.delivered_docs().size() == kPublications; }));

  const double epochs =
      gauge_value(broker.metrics_json(), "match.epochs") - epochs_before;
  EXPECT_GE(epochs, 1.0);
  EXPECT_LT(epochs, 8.0);
  ::close(fd);
  subscriber.stop();
  broker.stop();
}

}  // namespace
}  // namespace xroute

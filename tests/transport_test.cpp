// Transport tests: event-loop semantics on both poller backends, framed
// connections with watermark backpressure, the Hello handshake's rejection
// paths, per-connection metrics — and the differential acceptance test:
// the same scenario over loopback TCP and over the discrete-event
// simulator must produce identical per-client delivery sets.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "transport/broker_node.hpp"
#include "transport/client.hpp"
#include "transport/connection.hpp"
#include "transport/event_loop.hpp"
#include "transport/loopback.hpp"
#include "wire/codec.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

using transport::Connection;
using transport::EventLoop;
using transport::LoopbackOverlay;
using transport::TransportBroker;
using transport::TransportClient;

// -- Event loop --------------------------------------------------------------

class EventLoopBackends : public ::testing::TestWithParam<bool> {};

TEST_P(EventLoopBackends, PostedTasksRunOnTheLoopThread) {
  EventLoop loop(GetParam());
  std::thread runner([&] { loop.run(); });
  std::promise<std::thread::id> ran_on;
  loop.post([&] { ran_on.set_value(std::this_thread::get_id()); });
  EXPECT_EQ(ran_on.get_future().get(), runner.get_id());
  loop.stop();
  runner.join();
}

TEST_P(EventLoopBackends, TimersFireInDeadlineOrderAndCancel) {
  EventLoop loop(GetParam());
  std::thread runner([&] { loop.run(); });
  std::vector<int> order;  // loop-thread only; read after join
  std::promise<void> done;
  loop.post([&] {
    loop.schedule(60.0, [&] {
      order.push_back(3);
      done.set_value();
    });
    loop.schedule(10.0, [&] { order.push_back(1); });
    std::uint64_t doomed = loop.schedule(20.0, [&] { order.push_back(99); });
    loop.schedule(30.0, [&] { order.push_back(2); });
    loop.cancel_timer(doomed);
  });
  done.get_future().wait();
  loop.stop();
  runner.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A callback early in a ready batch may close another fd of the same batch
// and accept/open a new one reusing the number; the stale readiness event
// must not be delivered to the new registration.
TEST_P(EventLoopBackends, StaleReadinessIsNotDeliveredToAReusedFd) {
  EventLoop loop(GetParam());
  int first[2], second[2];
  ASSERT_EQ(::pipe(first), 0);
  ASSERT_EQ(::pipe(second), 0);
  ASSERT_EQ(::write(first[1], "x", 1), 1);
  ASSERT_EQ(::write(second[1], "y", 1), 1);

  bool spurious = false;
  int fresh[2] = {-1, -1};
  loop.add_fd(first[0], transport::kReadable, [&](std::uint32_t) {
    char c;
    (void)!::read(first[0], &c, 1);
    loop.remove_fd(second[0]);
    ::close(second[0]);
    // The lowest free descriptor is the one just closed, so the new pipe
    // reuses second[0]'s number while its readiness is still queued.
    ASSERT_EQ(::pipe(fresh), 0);
    loop.add_fd(fresh[0], transport::kReadable,
                [&](std::uint32_t) { spurious = true; });
  });
  loop.add_fd(second[0], transport::kReadable, [&](std::uint32_t) {
    char c;
    (void)!::read(second[0], &c, 1);
  });
  loop.run_once(0);
  EXPECT_EQ(fresh[0], second[0]);  // the scenario actually exercised reuse
  EXPECT_FALSE(spurious);

  loop.remove_fd(first[0]);
  ::close(first[0]);
  ::close(first[1]);
  ::close(second[1]);
  if (fresh[0] >= 0) {
    loop.remove_fd(fresh[0]);
    ::close(fresh[0]);
    ::close(fresh[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopBackends, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Poll" : "Default";
                         });

// -- Connection backpressure -------------------------------------------------

TEST(ConnectionBackpressure, WatermarksEngageAndClear) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);

  EventLoop loop;
  std::atomic<int> engagements{0};
  std::atomic<int> clears{0};

  Connection::Options opts;
  opts.high_watermark = 64u << 10;
  opts.low_watermark = 8u << 10;
  auto connection = std::make_unique<Connection>(&loop, fds[0], opts);
  connection->set_backpressure_handler([&](bool engaged) {
    (engaged ? engagements : clears).fetch_add(1);
  });
  connection->set_frame_handler([](wire::Decoded&&) {});

  std::thread runner([&] { loop.run(); });
  // Queue ~2 MiB of frames; the socketpair buffer is far smaller, so the
  // send queue must cross the high watermark.
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(Message::sync_state(std::string(8192, 's')));
  const std::size_t kFrames = 256;
  std::promise<void> queued;
  loop.post([&] {
    connection->start();
    for (std::size_t i = 0; i < kFrames; ++i) connection->send(frame);
    queued.set_value();
  });
  queued.get_future().wait();
  EXPECT_GE(engagements.load(), 1);

  // Drain the peer end; the writable path must clear the mark.
  std::size_t total = kFrames * frame.size();
  std::size_t drained = 0;
  std::vector<char> sink(64 * 1024);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (drained < total && std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::read(fds[1], sink.data(), sink.size());
    if (n > 0) {
      drained += static_cast<std::size_t>(n);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(drained, total);
  while (clears.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(clears.load(), 1);
  EXPECT_GE(connection->stats().backpressure_events.load(), 1u);

  loop.post([&] { connection->close("test done"); });
  loop.stop();
  runner.join();
  connection.reset();
  ::close(fds[1]);
}

// A peer that closes while bytes are still queued to it (written, never
// read) must make the next write fail as a closed connection. Without
// MSG_NOSIGNAL that write raises SIGPIPE, which kills the whole process
// (`xroutectl serve` ignores no signals) before any close path runs.
TEST(ConnectionClose, PeerClosingWithQueuedBytesClosesWithoutSignal) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);

  EventLoop loop;
  auto connection =
      std::make_unique<Connection>(&loop, fds[0], Connection::Options{});
  std::promise<std::string> closed;
  connection->set_close_handler(
      [&](const std::string& reason) { closed.set_value(reason); });
  connection->set_frame_handler([](wire::Decoded&&) {});

  std::thread runner([&] { loop.run(); });
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(Message::sync_state(std::string(512, 's')));
  std::promise<bool> accepted_after_close;
  loop.post([&] {
    connection->start();
    connection->send(frame);  // sits unread in the peer's buffer
    ::close(fds[1]);
    accepted_after_close.set_value(connection->send(frame));
  });
  EXPECT_FALSE(accepted_after_close.get_future().get());
  std::future<std::string> reason = closed.get_future();
  ASSERT_EQ(reason.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(reason.get(), "write error");
  EXPECT_TRUE(connection->closed());

  loop.stop();
  runner.join();
  connection.reset();
}

// A peer that writes its last frames and then resets the connection
// (SO_LINGER {1, 0}: RST instead of FIN) leaves those frames queued ahead
// of the error, and the kernel hands them out before ECONNRESET. They are
// valid traffic: every one must surface before the close handler runs.
TEST(ConnectionClose, FramesReadBeforeAResetAreSurfaced) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  int peer = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(peer, 0);
  ASSERT_EQ(::connect(peer, reinterpret_cast<sockaddr*>(&addr), len), 0);
  int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
  ASSERT_GE(fd, 0);
  ::close(listener);

  constexpr std::size_t kFrames = 20;
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < kFrames; ++i) {
    PublishMsg pub;
    pub.path = parse_path("/a/b");
    pub.doc_id = i + 1;
    std::vector<std::uint8_t> frame = wire::encode_frame(Message{pub});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::write(peer, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  linger reset{1, 0};
  ASSERT_EQ(::setsockopt(peer, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)),
            0);
  ::close(peer);

  EventLoop loop;
  auto connection =
      std::make_unique<Connection>(&loop, fd, Connection::Options{});
  std::size_t frames = 0;  // loop-thread only until `closed` is set
  std::promise<std::size_t> closed;
  connection->set_frame_handler([&](wire::Decoded&&) { ++frames; });
  connection->set_close_handler(
      [&](const std::string&) { closed.set_value(frames); });
  std::thread runner([&] { loop.run(); });
  loop.post([&] { connection->start(); });
  std::future<std::size_t> surfaced = closed.get_future();
  ASSERT_EQ(surfaced.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(surfaced.get(), kFrames);

  loop.stop();
  runner.join();
  connection.reset();
}

// -- Handshake ---------------------------------------------------------------

/// Dials `port`, writes `bytes`, and reports whether the broker hung up
/// within the timeout (the expected reaction to every handshake violation).
bool broker_hangs_up_after(std::uint16_t port,
                           const std::vector<std::uint8_t>& bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  timeval timeout{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (!bytes.empty()) {
    (void)!::write(fd, bytes.data(), bytes.size());
  }
  // Swallow the broker's own Hello, then expect EOF.
  char buffer[4096];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) {
      ::close(fd);
      return true;  // orderly hangup
    }
    if (n < 0) {
      ::close(fd);
      return false;  // timeout: the broker kept the connection
    }
  }
}

TEST(TransportHandshake, GarbageAndNonHelloFirstFramesAreRejected) {
  TransportBroker::Options opts;
  opts.id = 0;
  opts.config.use_advertisements = false;
  TransportBroker broker(std::move(opts));
  broker.start();

  EXPECT_TRUE(broker_hangs_up_after(broker.port(),
                                    {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}));
  // A perfectly valid *session* frame is still a handshake violation when
  // it arrives before Hello.
  EXPECT_TRUE(broker_hangs_up_after(
      broker.port(), wire::encode_frame(Message::subscribe(parse_xpe("/a")))));
  EXPECT_EQ(broker.client_peers(), 0u);
  EXPECT_EQ(broker.broker_peers(), 0u);
  broker.stop();
}

TEST(TransportHandshake, ClientConnectAndDisconnectTracksPeerCounts) {
  TransportBroker::Options opts;
  opts.config.use_advertisements = false;
  TransportBroker broker(std::move(opts));
  broker.start();
  {
    TransportClient::Options copts;
    copts.id = 7;
    TransportClient client{std::move(copts)};
    client.start("127.0.0.1", broker.port());
    ASSERT_TRUE(client.wait_connected());
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (broker.client_peers() != 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(broker.client_peers(), 1u);
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (broker.client_peers() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(broker.client_peers(), 0u);
  broker.stop();
}

// A dialed link that drops resumes its retry schedule: a client outlives
// its broker's restart and reconnects without outside help.
TEST(TransportHandshake, DialedConnectionRedialsAfterBrokerRestart) {
  std::uint16_t port = 0;
  TransportClient::Options copts;
  copts.id = 9;
  TransportClient client{std::move(copts)};
  {
    TransportBroker::Options opts;
    opts.config.use_advertisements = false;
    TransportBroker broker(std::move(opts));
    broker.start();
    port = broker.port();
    client.start("127.0.0.1", port);
    ASSERT_TRUE(client.wait_connected());
    broker.stop();
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (client.connected() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(client.connected());

  TransportBroker::Options opts;
  opts.config.use_advertisements = false;
  opts.listen_port = port;
  TransportBroker broker(std::move(opts));
  broker.start();
  EXPECT_TRUE(client.wait_connected(10000));
  broker.stop();
}

// -- Backpressure across the broker ------------------------------------------

// A peer that engages backpressure and then dies must release its share of
// the global ingress pause — otherwise the whole node stays read-paused
// forever (the high-severity leak this guards against).
TEST(TransportBackpressure, SlowPeerDisconnectReleasesIngressPause) {
  TransportBroker::Options opts;
  opts.config.use_advertisements = false;
  opts.connection.high_watermark = 1;  // any unflushed egress byte engages
  opts.connection.low_watermark = 0;
  TransportBroker broker(std::move(opts));
  broker.start();

  // A raw "subscriber" with a tiny receive buffer that never reads: the
  // broker's egress to it backs up into its userspace queue.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(broker.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  wire::Hello hello;
  hello.kind = wire::Hello::PeerKind::kClient;
  hello.peer_id = 55;
  std::vector<std::uint8_t> handshake = wire::encode_hello(hello);
  std::vector<std::uint8_t> subscribe =
      wire::encode_frame(Message::subscribe(parse_xpe("/flood")));
  handshake.insert(handshake.end(), subscribe.begin(), subscribe.end());
  ASSERT_EQ(::write(fd, handshake.data(), handshake.size()),
            static_cast<ssize_t>(handshake.size()));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (broker.client_peers() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(broker.client_peers(), 1u);

  // Flood publications at the stalled subscriber until backpressure
  // engages (its kernel buffers fill, then the broker's queue grows).
  TransportClient publisher{TransportClient::Options{}};
  publisher.start("127.0.0.1", broker.port());
  ASSERT_TRUE(publisher.wait_connected());
  std::string deep = "/flood";
  for (int i = 0; i < 100; ++i) deep += "/aaaaaaaaaa";
  const Path flood_path = parse_path(deep);
  std::uint64_t doc_id = 1;
  while (broker.backpressure_engagements() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 50; ++i) {
      PublishMsg pub;
      pub.path = flood_path;
      pub.doc_id = doc_id++;
      publisher.send(Message{pub});
    }
    publisher.sync();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(broker.backpressure_engagements(), 1u);

  // Kill the slow peer. The broker must notice despite the global read
  // pause, release the pause, and serve fresh traffic end to end.
  ::close(fd);
  while (broker.client_peers() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(broker.client_peers(), 1u);  // only the publisher remains

  TransportClient subscriber{TransportClient::Options{}};
  subscriber.start("127.0.0.1", broker.port());
  ASSERT_TRUE(subscriber.wait_connected());
  subscriber.send(Message::subscribe(parse_xpe("/fresh")));
  // Republish until delivered: the subscribe and the publication race
  // through the broker, and the broker's duplicate suppression drops a
  // repeated doc_id — so every attempt must carry a fresh one.
  auto fresh_delivered = [&] {
    std::set<std::uint64_t> docs = subscriber.delivered_docs();
    return !docs.empty() && *docs.rbegin() >= 424242;
  };
  std::uint64_t fresh_id = 424242;
  while (!fresh_delivered() &&
         std::chrono::steady_clock::now() < deadline) {
    PublishMsg pub;
    pub.path = parse_path("/fresh/doc");
    pub.doc_id = fresh_id++;
    publisher.send(Message{pub});
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fresh_delivered())
      << "broker never resumed reads after the backpressured peer died";

  subscriber.stop();
  publisher.stop();
  broker.stop();
}

// -- End-to-end overlays -----------------------------------------------------

TEST(TransportOverlay, PollBackendDeliversAcrossTwoBrokers) {
  LoopbackOverlay::Options opts;
  opts.config.use_advertisements = false;
  opts.force_poll = true;
  LoopbackOverlay overlay(chain(2), opts);
  ASSERT_TRUE(overlay.start());

  TransportClient& subscriber = overlay.attach_client(1, 100);
  subscriber.send(Message::subscribe(parse_xpe("/x")));
  ASSERT_TRUE(overlay.wait_quiescent());

  TransportClient& publisher = overlay.attach_client(0, 101);
  PublishMsg pub;
  pub.path = parse_path("/x/y");
  pub.doc_id = 1;
  publisher.send(Message{pub});
  ASSERT_TRUE(overlay.wait_quiescent());

  EXPECT_EQ(subscriber.delivered_docs(), std::set<std::uint64_t>{1});
  EXPECT_EQ(subscriber.duplicate_publications(), 0u);
}

TEST(TransportOverlay, PerConnectionMetricsSeriesAppear) {
  LoopbackOverlay::Options opts;
  opts.config.use_advertisements = false;
  LoopbackOverlay overlay(chain(2), opts);
  ASSERT_TRUE(overlay.start());
  TransportClient& subscriber = overlay.attach_client(1, 100);
  subscriber.send(Message::subscribe(parse_xpe("/x")));
  ASSERT_TRUE(overlay.wait_quiescent());

  std::string metrics = overlay.broker(1).metrics_json();
  EXPECT_NE(metrics.find("transport.frames"), std::string::npos);
  EXPECT_NE(metrics.find("transport.bytes"), std::string::npos);
  EXPECT_NE(metrics.find("client-100"), std::string::npos);
  // Broker 1's subscription flood reaches broker 0 over the overlay link.
  EXPECT_NE(overlay.broker(0).metrics_json().find("broker-1"),
            std::string::npos);
}

// The differential acceptance test: ISSUE scenario over loopback TCP vs
// the discrete-event simulator — identical per-client delivery sets.
// `match_threads` configures the TCP brokers only: the simulator reference
// is always sequential, so the threaded overlay is held to the sequential
// delivery contract.
void run_tcp_vs_simulator_differential(std::size_t match_threads) {
  const char* kXpes[] = {"/a", "/a/b", "//c", "/d//e", "/a//c"};
  const char* kPaths[] = {"/a/b", "/a/b/c", "/d/x/e", "/q", "/a"};
  const int kSubscriberBroker[] = {1, 3, 5, 6, 2};
  const int kPublisherBroker = 0;
  const Topology topology = complete_binary_tree(3);  // 7 brokers
  BrokerOptions config;
  config.use_advertisements = false;

  // -- Reference run: discrete-event simulator.
  Simulator sim(Simulator::Options{0.0});
  for (std::size_t i = 0; i < topology.num_brokers; ++i) sim.add_broker(config);
  for (auto [a, b] : topology.edges) sim.connect(a, b, LinkConfig{});
  std::vector<int> sim_clients;
  for (std::size_t i = 0; i < 5; ++i) {
    int client = sim.attach_client(kSubscriberBroker[i]);
    sim.subscribe(client, parse_xpe(kXpes[i]));
    sim_clients.push_back(client);
  }
  int sim_publisher = sim.attach_client(kPublisherBroker);
  sim.run_limited(100000);
  std::vector<std::uint64_t> doc_ids;
  for (const char* path : kPaths) {
    doc_ids.push_back(sim.publish_paths(sim_publisher, {parse_path(path)}, 200));
  }
  sim.run_until_quiescent(1000000);
  std::vector<std::set<std::uint64_t>> expected;
  for (int client : sim_clients) {
    expected.push_back(sim.delivered_docs(client));
  }
  // The scenario must be non-trivial in both directions.
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](const auto& s) { return !s.empty(); }));
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [&](const auto& s) { return s.size() < doc_ids.size(); }));

  // -- Same scenario over real sockets.
  LoopbackOverlay::Options opts;
  opts.config = config;
  opts.config.match_threads = match_threads;
  LoopbackOverlay overlay(topology, opts);
  ASSERT_TRUE(overlay.start());
  std::vector<TransportClient*> tcp_clients;
  for (std::size_t i = 0; i < 5; ++i) {
    TransportClient& client =
        overlay.attach_client(kSubscriberBroker[i], 100 + static_cast<int>(i));
    client.send(Message::subscribe(parse_xpe(kXpes[i])));
    tcp_clients.push_back(&client);
  }
  ASSERT_TRUE(overlay.wait_quiescent());

  TransportClient& publisher = overlay.attach_client(kPublisherBroker, 199);
  for (std::size_t i = 0; i < doc_ids.size(); ++i) {
    PublishMsg pub;
    pub.path = parse_path(kPaths[i]);
    pub.doc_id = doc_ids[i];
    pub.doc_bytes = 200;
    publisher.send(Message{pub});
  }
  ASSERT_TRUE(overlay.wait_quiescent());

  for (std::size_t i = 0; i < tcp_clients.size(); ++i) {
    EXPECT_EQ(tcp_clients[i]->delivered_docs(), expected[i])
        << "subscriber " << i << " (" << kXpes[i] << ") delivery set differs";
    EXPECT_EQ(tcp_clients[i]->duplicate_publications(), 0u)
        << "subscriber " << i << " received duplicates";
  }

  if (match_threads > 1) {
    // The threaded brokers really ran the parallel engine, and its
    // metrics surface through the registry export.
    std::string metrics = overlay.broker(kPublisherBroker).metrics_json();
    EXPECT_NE(metrics.find("match.epochs"), std::string::npos);
    EXPECT_NE(metrics.find("match.worker_tasks"), std::string::npos);
  }
}

TEST(TransportDifferential, TcpOverlayMatchesSimulatorDeliverySets) {
  run_tcp_vs_simulator_differential(/*match_threads=*/1);
}

// PR 5: the same differential with every TCP broker matching on a 4-worker
// pool behind its event loop. Delivery sets must not move.
TEST(TransportDifferential, ThreadedTcpOverlayMatchesSimulatorDeliverySets) {
  run_tcp_vs_simulator_differential(/*match_threads=*/4);
}

}  // namespace
}  // namespace xroute

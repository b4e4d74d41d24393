// Edge exactness differential: a client receives a publication iff one of
// its own live XPEs matches it, whatever merger carried the publication to
// the client's hop (paper §4.3: imperfect-merging false positives stay in
// the network). The oracle is the per-client scan (tests/oracles.hpp) over
// this test's own model of every client's live XPEs. Seeded random
// interleavings of client and neighbour churn, imperfect merge passes
// over a path universe, clients subscribing a merger's own XPE (which
// later merge passes may merge again), unsubscribes of absorbed originals
// and client teardown run on covering and flat tables, merging on and
// off, at 1 and 4 match threads. For every publication the sink's
// forwards, deliveries and suppressions must equal the oracle's, in
// order; publications also run in batches whose trailing control ops
// form the pipelined window, so the oracle is evaluated on the state the
// batch's publications were matched against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "dtd/parser.hpp"
#include "dtd/universe.hpp"
#include "oracles.hpp"
#include "router/broker.hpp"
#include "util/rng.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {
namespace {

constexpr IfaceId kNeighbors[] = {IfaceId{1}, IfaceId{2}};
constexpr IfaceId kClients[] = {IfaceId{10}, IfaceId{11}, IfaceId{12}};

// Small enough for dense sibling groups (so merge passes fire and mergers
// merge again), with room for imperfect mergers: /r/x/*/p also matches
// /r/x/c/p, which no /r/x/a/p or /r/x/b/p subscriber asked for.
constexpr const char* kDtd = R"(
<!ELEMENT r (x | y)*>
<!ELEMENT x (a | b | c)*>
<!ELEMENT y (a | b)*>
<!ELEMENT a (p | q)*>
<!ELEMENT b (p | q)*>
<!ELEMENT c (p)*>
<!ELEMENT p EMPTY>
<!ELEMENT q EMPTY>
)";

struct EdgeCase {
  std::uint64_t seed = 1;
  bool covering = true;
  bool merging = false;
  std::size_t threads = 1;
};

std::string case_name(const EdgeCase& c) {
  std::string name = c.covering ? "covering" : "flat";
  name += c.merging ? "_merging" : "_nomerge";
  name += "_threads" + std::to_string(c.threads);
  name += "_seed" + std::to_string(c.seed);
  return name;
}

void PrintTo(const EdgeCase& c, std::ostream* os) { *os << case_name(c); }

/// One publication-side decision, as the sink saw it.
struct Event {
  DeliveryEvent::Kind kind = DeliveryEvent::Kind::kForward;
  IfaceId iface = kNoIface;
  /// The publication's doc id; 0 for a suppression (which carries none).
  std::uint64_t doc = 0;
  friend bool operator==(const Event&, const Event&) = default;
};

std::ostream& operator<<(std::ostream& os, const Event& e) {
  return os << '{' << static_cast<int>(e.kind) << ' ' << e.iface.value()
            << ' ' << e.doc << '}';
}

/// Records publication events only: control traffic (subscriptions the
/// broker forwards) is not what this differential checks.
struct PublicationSink : ForwardSink {
  std::vector<Event> events;
  void on_event(const DeliveryEvent& event) override {
    if (event.has_message() &&
        event.message().type() != MessageType::kPublish) {
      return;
    }
    const std::uint64_t doc =
        event.has_message()
            ? std::get<PublishMsg>(event.message().payload).doc_id
            : 0;
    events.push_back(Event{event.kind, event.iface, doc});
  }
};

/// Every XPE the generator may subscribe: each universe path of length
/// two or more, the same with one step widened to '*', and a '//' form.
std::vector<Xpe> xpe_pool(const PathUniverse& universe) {
  std::set<std::string> texts;
  for (const Path& path : universe.paths()) {
    const std::vector<std::string>& e = path.elements;
    if (e.size() < 2) continue;
    auto join = [&](std::size_t wildcard_at) {
      std::string text;
      for (std::size_t i = 0; i < e.size(); ++i) {
        text += '/';
        text += i == wildcard_at ? std::string("*") : e[i];
      }
      return text;
    };
    texts.insert(join(e.size()));
    for (std::size_t k = 1; k < e.size(); ++k) texts.insert(join(k));
    texts.insert("/" + e[0] + "//" + e.back());
  }
  std::vector<Xpe> pool;
  for (const std::string& text : texts) pool.push_back(parse_xpe(text));
  return pool;
}

class EdgeExactness : public ::testing::TestWithParam<EdgeCase> {};

class Workload {
 public:
  explicit Workload(const EdgeCase& c)
      : rng_(c.seed * 7919 + 17),
        universe_(parse_dtd(kDtd)),
        pool_(xpe_pool(universe_)),
        broker_(0, options(c, &universe_)) {
    for (IfaceId n : kNeighbors) broker_.add_neighbor(n);
    for (IfaceId client : kClients) broker_.add_client(client);
  }

  /// Counts of the op kinds the run exercised, for the sanity checks.
  std::size_t publications = 0;
  std::size_t deliveries = 0;
  std::size_t suppressions = 0;
  std::size_t merger_subscribes = 0;
  std::size_t absorbed_unsubscribes = 0;
  std::size_t teardowns = 0;

  /// The covering tree's structural invariants, absorbed pairs included.
  std::string tree_problem() const { return broker_.prt().tree()->validate(); }

  void step() {
    const double roll = rng_.uniform();
    if (roll < 0.24) {
      send(subscribe_from(rng_.pick(client_list())));
    } else if (roll < 0.32) {
      subscribe_a_merger();
    } else if (roll < 0.44) {
      unsubscribe_client();
    } else if (roll < 0.53) {
      send(subscribe_from(rng_.pick(neighbor_list())));
    } else if (roll < 0.59) {
      send(unsubscribe_from(rng_.pick(neighbor_list())));
    } else if (roll < 0.62) {
      tear_down(rng_.pick(client_list()));
    } else {
      publish_batch();
    }
  }

 private:
  using Op = std::pair<IfaceId, Message>;

  static BrokerOptions options(const EdgeCase& c,
                               const PathUniverse* universe) {
    BrokerOptions options;
    options.use_advertisements = false;
    options.use_covering = c.covering;
    options.match_threads = c.threads;
    if (c.merging) {
      options.merging_enabled = true;
      options.merge_universe = universe;
      options.merge_interval = 3;
      options.merge_options.max_imperfect_degree = 0.5;
    }
    return options;
  }

  static std::vector<IfaceId> client_list() {
    return {std::begin(kClients), std::end(kClients)};
  }
  static std::vector<IfaceId> neighbor_list() {
    return {std::begin(kNeighbors), std::end(kNeighbors)};
  }
  static bool is_client(IfaceId iface) {
    return std::find(std::begin(kClients), std::end(kClients), iface) !=
           std::end(kClients);
  }

  bool holds(IfaceId iface, const Xpe& xpe) {
    const std::vector<Xpe>& held = live_[iface];
    return std::find(held.begin(), held.end(), xpe) != held.end();
  }

  /// A subscribe of an XPE `from` does not hold (the model is a set, as
  /// the PRT holds one route per XPE and interface); applied to the model.
  std::optional<Op> subscribe_from(IfaceId from) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Xpe& xpe = rng_.pick(pool_);
      if (holds(from, xpe)) continue;
      live_[from].push_back(xpe);
      return Op{from, Message::subscribe(xpe)};
    }
    return std::nullopt;
  }

  /// An unsubscribe of one of `from`'s live XPEs (applied to the model),
  /// with `prefer_absorbed` one a merger absorbed if there is one: an XPE
  /// that is no longer a table entry of its own.
  std::optional<Op> unsubscribe_from(IfaceId from,
                                     bool prefer_absorbed = false) {
    std::vector<Xpe>& held = live_[from];
    if (held.empty()) return std::nullopt;
    std::size_t pick = rng_.index(held.size());
    if (prefer_absorbed) {
      for (std::size_t i = 0; i < held.size(); ++i) {
        if (!broker_.prt().contains(held[i])) {
          pick = i;
          ++absorbed_unsubscribes;
          break;
        }
      }
    }
    Xpe xpe = held[pick];
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
    return Op{from, Message::unsubscribe(xpe)};
  }

  void send(const std::optional<Op>& op) {
    if (!op) return;
    PublicationSink ignored;
    broker_.handle(op->first, op->second, ignored);
  }

  /// A client subscribes exactly the XPE of a merger in the live tree.
  void subscribe_a_merger() {
    if (!broker_.prt().covering()) return;
    std::vector<Xpe> mergers;
    broker_.prt().tree()->for_each([&](const SubscriptionTree::Node& node) {
      if (node.merger) mergers.push_back(node.xpe);
    });
    if (mergers.empty()) return;
    const Xpe merger = rng_.pick(mergers);
    const IfaceId client = rng_.pick(client_list());
    if (holds(client, merger)) return;
    live_[client].push_back(merger);
    ++merger_subscribes;
    send(Op{client, Message::subscribe(merger)});
  }

  void unsubscribe_client() {
    send(unsubscribe_from(rng_.pick(client_list()), rng_.chance(0.5)));
  }

  /// The client's session ends: every route through it is withdrawn, and
  /// a new session takes the interface over with nothing subscribed.
  void tear_down(IfaceId client) {
    PublicationSink ignored;
    broker_.drop_interface(client, ignored);
    broker_.add_client(client);
    live_[client].clear();
    ++teardowns;
  }

  /// What the broker must emit for one publication: the table's hops in
  /// ascending order, the arrival interface skipped, a neighbour hop
  /// forwarded, a client hop delivered or suppressed by the oracle.
  void expect(IfaceId from, const Path& path, std::uint64_t doc,
              std::vector<Event>* out) {
    for (IfaceId hop : broker_.prt().match_hops(path)) {
      if (hop == from) continue;
      if (!is_client(hop)) {
        out->push_back(Event{DeliveryEvent::Kind::kForward, hop, doc});
      } else if (testing::client_delivery_scan(live_[hop], path)) {
        out->push_back(Event{DeliveryEvent::Kind::kLocalDelivery, hop, doc});
      } else {
        out->push_back(Event{DeliveryEvent::Kind::kSuppressed, hop, 0});
      }
    }
  }

  /// One to three publications, then up to two control ops in the same
  /// batch: the publications are matched before those ops apply.
  void publish_batch() {
    std::vector<Message> messages;
    std::vector<IfaceId> froms;
    std::vector<Event> expected;
    const std::size_t pubs = 1 + rng_.index(3);
    for (std::size_t i = 0; i < pubs; ++i) {
      PublishMsg pub;
      pub.path = rng_.pick(universe_.paths());
      pub.doc_id = next_doc_++;
      const IfaceId from = rng_.chance(0.85) ? rng_.pick(neighbor_list())
                                             : rng_.pick(client_list());
      expect(from, pub.path, pub.doc_id, &expected);
      messages.push_back(Message{pub});
      froms.push_back(from);
    }
    publications += pubs;
    const std::size_t controls = rng_.index(3);
    for (std::size_t i = 0; i < controls; ++i) {
      const IfaceId from = rng_.chance(0.6) ? rng_.pick(client_list())
                                            : rng_.pick(neighbor_list());
      std::optional<Op> op =
          rng_.chance(0.5) ? subscribe_from(from) : unsubscribe_from(from);
      if (!op) continue;
      messages.push_back(std::move(op->second));
      froms.push_back(op->first);
    }
    std::vector<Broker::Inbound> batch;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      batch.push_back(Broker::Inbound{froms[i], &messages[i]});
    }
    PublicationSink sink;
    const Broker::HandleStatus status = broker_.handle_batch(batch, sink);
    ASSERT_EQ(sink.events, expected) << "publications " << publications;
    deliveries += status.deliveries;
    suppressions += status.suppressed_false_positives;
  }

  Rng rng_;
  PathUniverse universe_;
  std::vector<Xpe> pool_;
  Broker broker_;
  std::map<IfaceId, std::vector<Xpe>> live_;
  std::uint64_t next_doc_ = 1;
};

TEST_P(EdgeExactness, DeliveriesAndSuppressionsMatchTheOracle) {
  const EdgeCase& c = GetParam();
  Workload run(c);
  for (int i = 0; i < 400 && !::testing::Test::HasFatalFailure(); ++i) {
    run.step();
    if (c.covering) {
      ASSERT_EQ(run.tree_problem(), "") << "step " << i;
    }
  }
  EXPECT_GT(run.publications, 0u);
  EXPECT_GT(run.deliveries, 0u);
  EXPECT_GT(run.teardowns, 0u);
  if (c.merging) {
    // The run reached the cases this differential exists for.
    EXPECT_GT(run.suppressions, 0u);
    EXPECT_GT(run.merger_subscribes, 0u);
    EXPECT_GT(run.absorbed_unsubscribes, 0u);
  } else {
    EXPECT_EQ(run.suppressions, 0u);
  }
}

std::vector<EdgeCase> edge_cases() {
  std::vector<EdgeCase> cases;
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    for (std::size_t threads : {1, 4}) {
      cases.push_back(EdgeCase{seed, /*covering=*/false, false, threads});
      cases.push_back(EdgeCase{seed, /*covering=*/true, false, threads});
      cases.push_back(EdgeCase{seed, /*covering=*/true, true, threads});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EdgeExactness, ::testing::ValuesIn(edge_cases()),
    [](const ::testing::TestParamInfo<EdgeCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace xroute

#include "net/golden.hpp"

#include <vector>

#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"

namespace xroute {

GoldenTotals golden_expected() {
  // Captured from the pre-observability tree (commit before src/obs
  // existed). If a routing change legitimately moves these numbers,
  // re-capture them with tracing compiled OFF — never to paper over an
  // overhead regression.
  GoldenTotals g;
  g.messages = 228;
  g.bytes = 45486;
  g.notifications = 84;
  g.publish_messages = 204;
  g.publish_bytes = 45000;
  g.subscribe_messages = 24;
  g.subscribe_bytes = 486;
  return g;
}

GoldenTotals run_golden_scenario(Simulator& sim) {
  Topology topology = complete_binary_tree(3);
  BrokerOptions config;
  config.use_advertisements = false;
  for (std::size_t i = 0; i < topology.num_brokers; ++i) {
    sim.add_broker(config);
  }
  for (auto [a, b] : topology.edges) sim.connect(a, b, LinkConfig{});

  const char* xpes[] = {"/a", "/a/b", "//c", "/d//e"};
  std::vector<int> leaves = topology.leaf_brokers();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    int client = sim.attach_client(leaves[i]);
    sim.subscribe(client, parse_xpe(xpes[i % 4]));
  }
  int publisher = sim.attach_client(0);
  sim.run();

  const char* paths[] = {"/a/b", "/a/b/c", "/d/x/e", "/q", "/a"};
  for (std::size_t i = 0; i < 60; ++i) {
    sim.publish_paths(publisher, {parse_path(paths[i % 5])}, 200);
  }
  sim.run();

  GoldenTotals totals;
  totals.messages = sim.stats().total_broker_messages();
  totals.bytes = sim.stats().total_broker_bytes();
  totals.notifications = sim.stats().notifications();
  totals.publish_messages = sim.stats().broker_messages(MessageType::kPublish);
  totals.publish_bytes = sim.stats().broker_bytes(MessageType::kPublish);
  totals.subscribe_messages =
      sim.stats().broker_messages(MessageType::kSubscribe);
  totals.subscribe_bytes = sim.stats().broker_bytes(MessageType::kSubscribe);
  return totals;
}

GoldenTotals run_golden_scenario(bool tracing) {
  Simulator sim(Simulator::Options{0.0});
  if (tracing) sim.enable_tracing();
  return run_golden_scenario(sim);
}

}  // namespace xroute

// Failover scenario: broker crash-restart with and without state recovery.
//
// A dissemination network keeps routing state (SRT/PRT/forwarding) at
// every broker; losing a broker's state silently breaks delivery for the
// subscribers behind it. This example snapshots a transit broker
// (router/snapshot.h), crashes it, and contrasts a recovery restart with
// a cold one.
//
//   ./failover
#include <iostream>

#include "core/network.hpp"
#include "router/snapshot.hpp"
#include "workload/xml_gen.hpp"
#include "xpath/parser.hpp"

int main() {
  using namespace xroute;

  // publisher -> B0 - B1 - B2 <- subscriber
  Network::Options options;
  options.topology = chain(3);
  options.strategy = RoutingStrategy::with_adv_with_cov();
  options.dtd = news_dtd();
  Network net(std::move(options));

  int publisher = net.add_publisher(0);
  int subscriber = net.add_subscriber(2);
  net.run();
  net.subscribe(subscriber, parse_xpe("/news/head/title"));
  net.run();

  Rng rng(99);
  auto publish_one = [&] {
    net.publish(publisher, generate_document(news_dtd(), rng, {}));
    net.run();
    return net.simulator().notifications_of(subscriber);
  };

  std::cout << "steady state:        delivered " << publish_one()
            << " document(s)\n";

  // Operational snapshot of the transit broker B1.
  std::string snapshot = snapshot_to_string(net.simulator().broker(1));
  std::cout << "snapshot of B1:      " << snapshot.size() << " bytes, "
            << net.prt_size(1) << " PRT entries, "
            << net.simulator().broker(1).srt_size() << " SRT entries\n";

  // Crash + recovery restart: routing continues seamlessly.
  net.simulator().restart_broker(1, snapshot);
  std::cout << "after recovery:      delivered " << publish_one()
            << " document(s) total\n";

  // Crash + cold restart: the amnesiac broker drops everything.
  net.simulator().restart_broker(1);
  std::size_t before = net.simulator().notifications_of(subscriber);
  std::size_t after = publish_one();
  std::cout << "after cold restart:  delivered " << after
            << " document(s) total (" << (after - before)
            << " new — routing state was lost)\n";

  std::cout << "\nmoral: snapshot transit brokers, or re-issue the control\n"
               "plane after a restart.\n";
  return 0;
}

#include "core/network.hpp"

namespace xroute {

namespace {

BrokerOptions broker_config(const Network::Options& options,
                            const PathUniverse* universe) {
  BrokerOptions config;
  config.use_advertisements = options.strategy.advertisements;
  config.use_covering = options.strategy.covering;
  config.track_covered = options.strategy.covering;
  config.merging_enabled = options.strategy.merging;
  config.merge_universe = options.strategy.merging ? universe : nullptr;
  config.merge_interval = options.merge_interval;
  config.merge_options.max_imperfect_degree =
      options.strategy.max_imperfect_degree;
  // The paper's general rule ("replace the differing parts with //") is
  // only applied when imperfection is tolerated at all.
  config.merge_options.rule_general =
      options.strategy.max_imperfect_degree > 0.0;
  return config;
}

}  // namespace

Network::Network(Options options)
    : options_(std::move(options)),
      sim_(Simulator::Options{options_.processing_scale}),
      rng_(options_.seed) {
  PathUniverse::Options uopts;
  uopts.max_depth = options_.universe_depth;
  uopts.max_paths = options_.universe_max_paths;
  DeriveOptions dopts;
  dopts.repair_depth = options_.universe_depth;

  // The merging universe spans every producer's DTD; each producer gets
  // its own derived advertisement set.
  std::vector<Path> all_paths;
  auto ingest = [&](const Dtd& dtd) {
    PathUniverse universe(dtd, uopts);
    all_paths.insert(all_paths.end(), universe.paths().begin(),
                     universe.paths().end());
    advertisement_sets_.push_back(derive_advertisements(dtd, dopts));
  };
  ingest(options_.dtd);
  for (const Dtd& dtd : options_.additional_dtds) ingest(dtd);
  universe_ = std::make_unique<PathUniverse>(std::move(all_paths));

  sim_.build(options_.topology, broker_config(options_, universe_.get()),
             options_.profile, rng_);
  if (options_.fault_injection) {
    sim_.enable_fault_injection(options_.fault_seed, options_.reliability);
    sim_.set_default_link_faults(options_.link_faults);
  }
  if (options_.tracing) sim_.enable_tracing();
}

int Network::add_subscriber(int broker) { return sim_.attach_client(broker); }

int Network::add_publisher(int broker, std::size_t dtd_index) {
  int client = sim_.attach_client(broker);
  if (options_.strategy.advertisements) {
    for (const Advertisement& adv :
         advertisement_sets_.at(dtd_index).advertisements) {
      sim_.advertise(client, adv);
    }
  }
  return client;
}

void Network::subscribe(int subscriber, const Xpe& xpe) {
  sim_.subscribe(subscriber, xpe);
}

void Network::unsubscribe(int subscriber, const Xpe& xpe) {
  sim_.unsubscribe(subscriber, xpe);
}

std::uint64_t Network::publish(int publisher, const XmlDocument& doc) {
  return sim_.publish(publisher, doc);
}

std::uint64_t Network::publish_paths(int publisher,
                                     const std::vector<Path>& paths,
                                     std::size_t doc_bytes) {
  return sim_.publish_paths(publisher, paths, doc_bytes);
}

std::size_t Network::total_prt_size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < sim_.broker_count(); ++i) {
    total += sim_.broker(static_cast<int>(i)).prt_size();
  }
  return total;
}

}  // namespace xroute

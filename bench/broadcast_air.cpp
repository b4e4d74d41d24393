// broadcast_air — tuning time, access latency and doze ratio for the
// broadcast dissemination path (DESIGN.md "Broadcast dissemination") at
// swarm scale: a corpus workload is routed through a real Broker with a
// BroadcastSink mounted on the delivery-event stream, cut into
// per-channel air cycles, and then replayed by (default) 10k tuned
// clients, each holding an anchored subscription drawn from the corpus's
// own path population.
//
// Two acceptance gates, both hard (exit 1):
//   * mean doze ratio across tuners >= 0.5 — the air index must let an
//     average client sleep through at least half the data segment;
//   * byte-exact delivery equality with the matcher oracle — 0 missed,
//     0 spurious, 0 byte mismatches over every tuner.
//
// Output: BENCH_broadcast.json (previous run preserved one level deep,
// like bench/churn.cpp).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/client.hpp"
#include "broadcast/scheduler.hpp"
#include "broadcast/sink.hpp"
#include "match/pub_match.hpp"
#include "router/broker.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xml_gen.hpp"
#include "xml/parser.hpp"
#include "xml/paths.hpp"
#include "xpath/parser.hpp"
#include "xpath/xpe.hpp"

namespace {

using namespace xroute;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One pre-decoded air cycle: what the oracle holds tuners against.
struct OracleCycle {
  std::uint32_t cycle = 0;
  std::vector<Path> paths;                          // bucket -> path
  std::vector<std::vector<std::uint8_t>> raw;       // bucket -> frame bytes
};

/// Decodes a channel tape once so the 10k-tuner audit does not re-decode
/// the air per client; the audit itself still runs the production
/// matcher per (tuner, bucket).
std::vector<OracleCycle> decode_cycles(const broadcast::ChannelTape& tape) {
  std::vector<OracleCycle> cycles;
  std::size_t i = 0;
  while (i < tape.frame_count()) {
    auto bytes = tape.frame(i);
    wire::Decoded decoded = wire::decode_frame(bytes.data(), bytes.size());
    if (!decoded.ok() || decoded.kind != wire::FrameKind::kAirIndex) {
      ++i;
      continue;
    }
    OracleCycle cycle;
    cycle.cycle = decoded.air_index.cycle;
    for (std::uint32_t b = 0; b < decoded.air_index.bucket_count; ++b) {
      auto bucket = tape.frame(i + 1 + b);
      wire::Decoded data = wire::decode_frame(bucket.data(), bucket.size());
      cycle.paths.push_back(std::get<PublishMsg>(data.message.payload).path);
      cycle.raw.emplace_back(bucket.begin(), bucket.end());
    }
    cycles.push_back(std::move(cycle));
    i += 1 + decoded.air_index.bucket_count;
  }
  return cycles;
}

struct TunerOutcome {
  double doze_ratio = 0.0;
  double tuning_bytes = 0.0;
  double access_bytes_mean = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t expected = 0;
  std::uint64_t missed = 0;
  std::uint64_t spurious = 0;
  std::uint64_t byte_mismatches = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags("broadcast air bench: tuning time / access latency / doze");
  flags.define("clients", "10000", "tuned clients");
  flags.define("docs", "800", "corpus documents to broadcast");
  flags.define("channels", "4", "broadcast channels");
  flags.define("cycle", "32", "publications per cycle");
  flags.define("seed", "1", "workload seed");
  flags.define("threads", "0", "tuner threads (0 = hardware)");
  flags.define("out", "BENCH_broadcast.json", "output JSON file");
  if (!flags.parse(argc, argv)) return 0;

  const std::size_t clients = static_cast<std::size_t>(flags.get_int64("clients"));
  const std::size_t docs = static_cast<std::size_t>(flags.get_int64("docs"));
  const std::uint32_t channels =
      static_cast<std::uint32_t>(flags.get_int64("channels"));
  const std::uint32_t cycle =
      static_cast<std::uint32_t>(flags.get_int64("cycle"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int64("seed"));
  std::size_t threads = static_cast<std::size_t>(flags.get_int64("threads"));
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  // ---- Server side: corpus -> broker (matcher) -> air --------------------
  Dtd dtd = corpus_dtd("news");
  Rng rng(seed);
  std::vector<PublishMsg> pubs;
  std::vector<Path> population;  // distinct structural paths, for tuners
  std::set<std::vector<std::string>> seen_paths;
  for (std::size_t d = 0; d < docs; ++d) {
    std::string text = generate_document(dtd, rng).serialize();
    std::vector<Path> paths = extract_paths(parse_xml(text));
    std::uint32_t path_id = 0;
    for (Path& path : paths) {
      if (seen_paths.insert(path.elements).second) {
        Path structural;
        structural.elements = path.elements;
        population.push_back(std::move(structural));
      }
      PublishMsg pub;
      pub.path = std::move(path);
      pub.doc_id = d + 1;
      pub.path_id = path_id++;
      pub.doc_bytes = text.size();
      pub.paths_in_doc = static_cast<std::uint32_t>(paths.size());
      pubs.push_back(std::move(pub));
    }
  }

  BrokerOptions config;
  config.use_advertisements = false;
  Broker broker(0, config);
  const IfaceId kSubscriber{1};
  const IfaceId kPublisher{2};
  broker.add_client(kSubscriber);
  broker.add_client(kPublisher);
  broadcast::BroadcastScheduler scheduler(
      broadcast::BroadcastOptions{channels, cycle});
  broadcast::BroadcastSink sink(&scheduler);
  broker.handle(kSubscriber, Message::subscribe(parse_xpe("//*")), sink);
  for (const PublishMsg& pub : pubs) {
    broker.handle(kPublisher, Message{pub}, sink);
  }
  scheduler.flush();

  std::vector<std::vector<OracleCycle>> oracle(channels);
  for (std::uint32_t ch = 0; ch < channels; ++ch) {
    oracle[ch] = decode_cycles(scheduler.tape(ch));
  }

  // ---- Tuner population --------------------------------------------------
  // Each client anchors on one concrete path from the corpus population
  // (a random-depth prefix, child axes only), so it tunes exactly one
  // channel and the air index can prove most buckets irrelevant to it.
  std::vector<Xpe> subscriptions;
  subscriptions.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const Path& base = population[rng.index(population.size())];
    std::size_t depth =
        2 + rng.index(std::max<std::size_t>(base.size() - 1, 1));
    depth = std::min(depth, base.size());
    std::vector<Step> steps;
    for (std::size_t i = 0; i < depth; ++i) {
      steps.push_back(Step{Axis::kChild, base.elements[i], {}});
    }
    subscriptions.push_back(Xpe::absolute(std::move(steps)));
  }

  // ---- Tune + audit, sharded over threads --------------------------------
  std::vector<TunerOutcome> outcomes(clients);
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (std::size_t c = next.fetch_add(1); c < clients;
         c = next.fetch_add(1)) {
      broadcast::BroadcastClient tuner({subscriptions[c]});
      TunerOutcome& out = outcomes[c];
      for (std::uint32_t ch : tuner.channels_needed(channels)) {
        tuner.tune(scheduler.tape(ch));
        // Audit against the pre-decoded air with the production matcher.
        std::set<std::pair<std::uint32_t, std::uint32_t>> claimed;
        for (const broadcast::Delivery& d : tuner.deliveries()) {
          if (d.slot.channel == ch) claimed.insert({d.slot.cycle, d.slot.bucket});
        }
        for (const OracleCycle& oc : oracle[ch]) {
          for (std::uint32_t b = 0; b < oc.paths.size(); ++b) {
            bool owed = matches(oc.paths[b], subscriptions[c]);
            bool got = claimed.count({oc.cycle, b}) != 0;
            if (owed) {
              ++out.expected;
              if (!got) ++out.missed;
            } else if (got) {
              ++out.spurious;
            }
          }
        }
        for (const broadcast::Delivery& d : tuner.deliveries()) {
          if (d.slot.channel != ch) continue;
          const OracleCycle& oc = oracle[ch][d.slot.cycle];
          if (d.raw != oc.raw[d.slot.bucket]) ++out.byte_mismatches;
        }
      }
      out.doze_ratio = tuner.stats().doze_ratio();
      out.tuning_bytes = static_cast<double>(tuner.stats().tuning_bytes);
      out.delivered = tuner.stats().delivered;
      double access = 0.0;
      for (std::uint64_t bytes : tuner.stats().access_bytes) {
        access += static_cast<double>(bytes);
      }
      out.access_bytes_mean =
          tuner.stats().access_bytes.empty()
              ? 0.0
              : access / static_cast<double>(tuner.stats().access_bytes.size());
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  // ---- Aggregate ---------------------------------------------------------
  std::vector<double> doze, tuning, access;
  std::uint64_t delivered = 0, expected = 0, missed = 0, spurious = 0,
                mismatches = 0;
  for (const TunerOutcome& out : outcomes) {
    doze.push_back(out.doze_ratio);
    tuning.push_back(out.tuning_bytes);
    if (out.delivered > 0) access.push_back(out.access_bytes_mean);
    delivered += out.delivered;
    expected += out.expected;
    missed += out.missed;
    spurious += out.spurious;
    mismatches += out.byte_mismatches;
  }
  const double doze_mean = mean(doze);
  const bool doze_ok = doze_mean >= 0.5;
  const bool oracle_ok = missed == 0 && spurious == 0 && mismatches == 0;

  std::uint64_t air_cycles = 0, index_bytes = 0, data_bytes = 0;
  for (std::uint32_t ch = 0; ch < channels; ++ch) {
    air_cycles += scheduler.stats(ch).cycles;
    index_bytes += scheduler.stats(ch).index_bytes;
    data_bytes += scheduler.stats(ch).data_bytes;
  }
  const double utilization =
      index_bytes + data_bytes == 0
          ? 0.0
          : static_cast<double>(data_bytes) /
                static_cast<double>(index_bytes + data_bytes);

  std::cout << "broadcast_air: " << clients << " tuners, " << pubs.size()
            << " publications on " << channels << " channels ("
            << air_cycles << " cycles)\n"
            << "  doze ratio mean " << doze_mean
            << " (criterion: >= 0.5), oracle "
            << (oracle_ok ? "clean" : "VIOLATED") << " (" << missed
            << " missed, " << spurious << " spurious, " << mismatches
            << " byte mismatches)\n";

  // ---- Previous-run preservation (one level deep, like churn) ------------
  std::string previous;
  {
    std::ifstream in(flags.get_string("out"));
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      previous = buffer.str();
      std::size_t pos = previous.find(",\n  \"previous\":");
      if (pos != std::string::npos) {
        previous = previous.substr(0, pos) + "\n}\n";
      }
      while (!previous.empty() &&
             (previous.back() == '\n' || previous.back() == ' ')) {
        previous.pop_back();
      }
    }
  }

  std::ofstream out(flags.get_string("out"));
  out << "{\n"
      << "  \"bench\": \"broadcast_air\",\n"
      << "  \"config\": {\n"
      << "    \"clients\": " << clients << ",\n"
      << "    \"docs\": " << docs << ",\n"
      << "    \"publications\": " << pubs.size() << ",\n"
      << "    \"channels\": " << channels << ",\n"
      << "    \"cycle_length\": " << cycle << ",\n"
      << "    \"seed\": " << seed << "\n"
      << "  },\n"
      << "  \"air\": {\n"
      << "    \"cycles\": " << air_cycles << ",\n"
      << "    \"index_bytes\": " << index_bytes << ",\n"
      << "    \"data_bytes\": " << data_bytes << ",\n"
      << "    \"channel_utilization\": " << utilization << "\n"
      << "  },\n"
      << "  \"tuners\": {\n"
      << "    \"delivered\": " << delivered << ",\n"
      << "    \"expected\": " << expected << ",\n"
      << "    \"missed\": " << missed << ",\n"
      << "    \"spurious\": " << spurious << ",\n"
      << "    \"byte_mismatches\": " << mismatches << ",\n"
      << "    \"doze_ratio_mean\": " << doze_mean << ",\n"
      << "    \"doze_ratio_p50\": " << percentile(doze, 0.50) << ",\n"
      << "    \"doze_ratio_p95\": " << percentile(doze, 0.95) << ",\n"
      << "    \"tuning_bytes_mean\": " << mean(tuning) << ",\n"
      << "    \"tuning_bytes_p95\": " << percentile(tuning, 0.95) << ",\n"
      << "    \"access_bytes_mean\": " << mean(access) << ",\n"
      << "    \"access_bytes_p95\": " << percentile(access, 0.95) << "\n"
      << "  },\n"
      << "  \"doze_criterion_met\": " << (doze_ok ? "true" : "false") << ",\n"
      << "  \"oracle_exact\": " << (oracle_ok ? "true" : "false");
  if (!previous.empty()) {
    out << ",\n  \"previous\": " << previous;
  }
  out << "\n}\n";
  std::cout << "wrote " << flags.get_string("out") << "\n";
  return doze_ok && oracle_ok ? 0 : 1;
}

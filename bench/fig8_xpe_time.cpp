// Fig. 8 — XPE processing time with and without covering.
//
// The paper issues 5000 XPEs per DTD and measures the per-XPE processing
// time: without covering every XPE is matched against all advertisements;
// with covering, an XPE found covered skips advertisement matching
// entirely. NITF (our NEWS) derives ~35x more advertisements than PSD, so
// it benefits more (paper: up to 49.2% improvement for NITF XPEs).
#include <iostream>
#include <vector>

#include "core/experiment.hpp"
#include "adv/derive.hpp"
#include "index/subscription_tree.hpp"
#include "match/rec_adv_match.hpp"
#include "router/routing_tables.hpp"
#include "util/flags.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/xpath_gen.hpp"

using namespace xroute;

namespace {

struct Series {
  std::vector<double> with_covering_ms;     // cumulative-average per batch
  std::vector<double> without_covering_ms;  // cumulative-average per batch
  std::size_t covered = 0;
  std::size_t advertisements = 0;
};

Series run_dtd(const Dtd& dtd, std::size_t total, std::size_t batch,
               std::uint64_t seed) {
  Series series;
  auto derived = derive_advertisements(dtd);
  series.advertisements = derived.advertisements.size();

  Srt srt;
  for (const Advertisement& a : derived.advertisements) srt.add(a, IfaceId{0});

  XpathGenOptions xopts;
  xopts.count = total;
  xopts.seed = seed;
  xopts.wildcard_prob = 0.15;
  xopts.descendant_prob = 0.15;
  std::vector<Xpe> xpes = generate_xpaths(dtd, xopts);
  if (xpes.size() < total) {
    std::cout << "note: only " << xpes.size() << " distinct XPEs available\n";
  }

  // Without covering: every XPE matched against all advertisements.
  {
    Stopwatch watch;
    std::size_t done = 0;
    for (const Xpe& x : xpes) {
      volatile bool sink = false;
      for (const auto& entry : srt.entries()) {
        sink = sink | srt.entry_overlaps(*entry, x);
      }
      if (++done % batch == 0) {
        series.without_covering_ms.push_back(watch.elapsed_ms() /
                                             static_cast<double>(done));
      }
    }
  }

  // With covering: insert into the subscription tree first; covered XPEs
  // skip advertisement matching (paper §5, "XPE Processing Time"). The
  // tree runs with the broker's default options, so the covering check
  // includes the super-pointer sweep a broker's insert makes.
  {
    SubscriptionTree tree;
    Stopwatch watch;
    std::size_t done = 0;
    for (const Xpe& x : xpes) {
      auto result = tree.insert(x, IfaceId{0});
      if (result.was_new && !result.covered_by_existing) {
        volatile bool sink = false;
        for (const auto& entry : srt.entries()) {
          sink = sink | srt.entry_overlaps(*entry, x);
        }
      } else {
        ++series.covered;
      }
      if (++done % batch == 0) {
        series.with_covering_ms.push_back(watch.elapsed_ms() /
                                          static_cast<double>(done));
      }
    }
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("Fig. 8: XPE processing time with/without covering");
  flags.define("count", "5000", "XPEs to issue (paper: 5000)");
  flags.define("batch", "500", "reporting batch size (paper: 500)");
  flags.define("seed", "8", "workload seed");
  if (!flags.parse(argc, argv)) return 0;

  const std::size_t count = flags.get_int("count");
  const std::size_t batch = flags.get_int("batch");

  Series news = run_dtd(news_dtd(), count, batch, flags.get_int64("seed"));
  Series psd = run_dtd(psd_dtd(), count, batch, flags.get_int64("seed") + 1);

  std::cout << "Fig. 8 reproduction: per-XPE processing time (ms, cumulative"
            << " average)\n";
  std::cout << "advertisements: NEWS " << news.advertisements << ", PSD "
            << psd.advertisements << " (paper: NITF ~35x PSD)\n";
  std::cout << "covered XPEs: NEWS " << news.covered << "/" << count
            << ", PSD " << psd.covered << "/" << count << "\n\n";

  TextTable table({"#XPEs", "NEWS with cov", "NEWS without cov",
                   "PSD with cov", "PSD without cov"});
  std::size_t rows = std::min(
      std::min(news.with_covering_ms.size(), news.without_covering_ms.size()),
      std::min(psd.with_covering_ms.size(), psd.without_covering_ms.size()));
  for (std::size_t i = 0; i < rows; ++i) {
    table.add_row({TextTable::fmt((i + 1) * batch),
                   TextTable::fmt(news.with_covering_ms[i], 4),
                   TextTable::fmt(news.without_covering_ms[i], 4),
                   TextTable::fmt(psd.with_covering_ms[i], 4),
                   TextTable::fmt(psd.without_covering_ms[i], 4)});
  }
  table.print(std::cout);

  auto improvement = [](const Series& s) {
    double with = s.with_covering_ms.back();
    double without = s.without_covering_ms.back();
    return 100.0 * (without - with) / without;
  };
  std::cout << "\ncovering improves XPE processing time by "
            << TextTable::fmt(improvement(news), 1) << "% (NEWS) and "
            << TextTable::fmt(improvement(psd), 1)
            << "% (PSD); the paper reports up to 49.2% for NITF.\n";
  return 0;
}

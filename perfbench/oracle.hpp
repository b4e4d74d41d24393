// Delivery oracle for the overlay benchmark.
//
// The subscriber's expected deliveries are computed by brute force: every
// published (doc_id, path_id) is checked with the reference string matcher
// `matches(Path, Xpe)` against the subscriber's live XPEs. Arrivals are
// recorded per path, not per document (TransportClient::delivered_docs()
// collapses a document's paths, which would hide a lost path and count
// the document's later paths as duplicates).
//
// A path that only a churn-pool XPE matches is neither expected nor
// spurious while the pool churns: whether it arrives depends on when the
// pool subscription was live at each broker, which the oracle does not
// model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "match/pub_match.hpp"
#include "xml/paths.hpp"
#include "xpath/xpe.hpp"

namespace perfbench {

/// What the subscriber's tables say about one published path.
struct Verdict {
  bool steady = false;  ///< some always-live XPE matches it
  bool pool = false;    ///< some churn-pool XPE matches it
};

inline bool any_match(const xroute::Path& path,
                      const std::vector<xroute::Xpe>& xpes) {
  for (const xroute::Xpe& xpe : xpes) {
    if (xroute::matches(path, xpe)) return true;
  }
  return false;
}

inline Verdict classify(const xroute::Path& path,
                        const std::vector<xroute::Xpe>& steady,
                        const std::vector<xroute::Xpe>& pool) {
  return Verdict{any_match(path, steady), any_match(path, pool)};
}

class DeliveryOracle {
 public:
  struct Report {
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t missing = 0;
    std::uint64_t spurious = 0;
    std::uint64_t duplicates = 0;

    std::uint64_t errors() const { return missing + spurious + duplicates; }
  };

  /// Records one published path. `pool_live` says whether churn-pool
  /// subscriptions may be live while it is in flight.
  void published(std::uint64_t doc_id, std::uint32_t path_id, Verdict verdict,
                 bool pool_live) {
    Entry& entry = entries_[key(doc_id, path_id)];
    if (entry.published) {
      throw std::logic_error("oracle: path published twice");
    }
    entry.published = true;
    entry.required = verdict.steady;
    entry.allowed = verdict.steady || (pool_live && verdict.pool);
  }

  /// Records one arrival at the subscriber.
  void arrived(std::uint64_t doc_id, std::uint32_t path_id) {
    ++entries_[key(doc_id, path_id)].arrivals;
  }

  Report report() const {
    Report report;
    for (const auto& [k, entry] : entries_) {
      (void)k;
      if (entry.required) ++report.expected;
      if (entry.arrivals > 0) ++report.delivered;
      if (entry.required && entry.arrivals == 0) ++report.missing;
      if (entry.arrivals > 0 && !entry.allowed) ++report.spurious;
      if (entry.arrivals > 1) report.duplicates += entry.arrivals - 1;
    }
    return report;
  }

 private:
  struct Entry {
    bool published = false;
    bool required = false;
    bool allowed = false;
    std::uint32_t arrivals = 0;
  };

  static std::uint64_t key(std::uint64_t doc_id, std::uint32_t path_id) {
    if (doc_id >= (std::uint64_t{1} << 40) || path_id >= (1u << 24)) {
      throw std::out_of_range("oracle: doc or path id out of range");
    }
    return doc_id << 24 | path_id;
  }

  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace perfbench

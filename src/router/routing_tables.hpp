// The two routing tables of an XML content-based router (paper §2.1):
//
//   SRT — subscription routing table: <advertisement, lasthop> tuples.
//         Subscriptions are matched against it to decide which neighbours
//         lead to publishers whose data can satisfy them.
//   PRT — publication routing table: <subscription, lasthop> tuples.
//         Publications are matched against it to trace back along the
//         paths subscriptions built. With covering enabled the PRT *is*
//         the subscription tree of §4.1; without it, a flat list (the
//         paper's no-covering baseline).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "adv/advertisement.hpp"
#include "index/subscription_tree.hpp"
#include "router/iface.hpp"
#include "match/adv_automaton.hpp"
#include "match/rec_adv_match.hpp"
#include "xml/paths.hpp"
#include "xpath/xpe.hpp"

namespace xroute {

/// Subscription routing table.
class Srt {
 public:
  struct Entry {
    Advertisement advertisement;
    IfaceSet hops;
    /// Compiled matcher for recursive advertisements (lazily built).
    std::unique_ptr<AdvAutomaton> automaton;
  };

  /// Records the advertisement as reachable via `hop`. Returns true if the
  /// advertisement itself is new to this broker (=> flood it on).
  bool add(const Advertisement& adv, IfaceId hop);

  /// Drops an advertisement/hop pair (unadvertise support).
  bool remove(const Advertisement& adv, IfaceId hop);

  /// O(1) entry lookup by advertisement; nullptr if absent.
  const Entry* find(const Advertisement& adv) const;
  bool contains(const Advertisement& adv) const {
    return find(adv) != nullptr;
  }

  /// All hops through which some advertisement overlapping `xpe` arrived —
  /// the next hops for forwarding the subscription. Uses the symbol index:
  /// a wildcard-free advertisement overlapping `xpe` must contain every
  /// concrete step name of `xpe` in its alphabet, so only the bucket of
  /// the query's rarest concrete symbol (plus the wildcard side list) is
  /// tested. Results are exactly the linear scan's (the reference twin
  /// lives in tests/oracles.hpp).
  IfaceSet hops_overlapping(const Xpe& xpe) const;

  /// Does any advertisement from `hop` overlap `xpe`? (Used to route
  /// existing subscriptions toward a newly arrived advertisement.)
  bool entry_overlaps(const Entry& entry, const Xpe& xpe) const;

  std::size_t size() const { return entries_.size(); }
  const std::vector<std::unique_ptr<Entry>>& entries() const {
    return entries_;
  }

  /// Overlap-test counter (reported by the processing-time experiments):
  /// number of entry_overlaps tests actually performed. Entries the symbol
  /// index provably excludes are skipped without being counted.
  std::size_t comparisons() const { return comparisons_; }

 private:
  void rebuild_index() const;

  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<Advertisement, Entry*, AdvHash> by_adv_;
  mutable std::size_t comparisons_ = 0;

  // Symbol index, rebuilt lazily after add/remove: wildcard-free
  // advertisements are registered under every symbol of their alphabet;
  // advertisements containing '*' go to the always-tested side list.
  mutable std::unordered_map<std::uint32_t, std::vector<Entry*>> by_symbol_;
  mutable std::vector<Entry*> wildcard_entries_;
  mutable bool index_dirty_ = true;
};

/// One immutable compiled bucket: every subscription subtree whose root
/// shares this bucket's discriminating symbol (the deepest concrete step
/// of the root's XPE), serialised in DFS pre-order into one word stream.
/// Per entry, `words` holds [prog_len, skip_words, skip_entries,
/// prog...]; on a failed test the walk jumps `skip_words`/`skip_entries`
/// past the entry's whole subtree — the covering prune — so match, prune
/// and descent are one sequential scan with forward jumps: no stack, no
/// per-node pointer chase. `entries` is parallel (entry order) and
/// carries what the walk needs beyond the program: the XPE (predicate
/// evaluation, merger backing checks), the hop list (flattened into
/// `hops`, so a bucket is three contiguous allocations) and the merger
/// metadata, which decides edge exactness per hop. Flat tables compile to
/// the same layout with zero skips.
struct PrtBucket {
  struct Entry {
    /// Shared, not copied: the owning node/flat entry caches one
    /// immutable copy of its XPE for its whole lifetime and every
    /// recompile hands out that share. An index still pinned by a match
    /// epoch keeps the XPEs of since-removed subscriptions alive.
    std::shared_ptr<const Xpe> xpe;
    std::uint32_t hop_begin = 0;
    std::uint32_t hop_end = 0;
    /// Both non-null iff the entry is a merger; shared like `xpe`.
    std::shared_ptr<const std::vector<Xpe>> merged_from;
    std::shared_ptr<const SubscriptionTree::Absorbed> absorbed;

    /// Pointer identity on the shared payloads — deliberately: equal
    /// pointers mean "the same subscription, still present", which is
    /// the question unchanged-content detection asks, at O(1) per entry
    /// instead of a deep XPE compare.
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<std::uint32_t> words;
  std::vector<Entry> entries;
  std::vector<IfaceId> hops;

  bool empty() const { return entries.empty(); }
  void clear() {
    words.clear();
    entries.clear();
    hops.clear();
  }

  /// Deep equality, for unchanged-content detection: a recompile that
  /// reproduces the previous bucket (e.g. a subscribe whose unsubscribe
  /// came before the next match) keeps the old — cache-warm — allocation.
  friend bool operator==(const PrtBucket&, const PrtBucket&) = default;
};

/// The result of one match against the compiled PRT: what a sequential
/// broker's match stage, a batch epoch's worker and the tests all read.
struct PrtMatch {
  /// Matching hops. PrtIndex::match leaves them sorted ascending and
  /// deduplicated; PrtIndex::scan appends them in visit order with
  /// duplicates (deferring the dedup to one sort+unique replaces a
  /// per-node red-black-tree insert on the hottest loop), except those it
  /// puts in `inexact_hops`. clear() keeps the capacity, so a reused
  /// PrtMatch allocates nothing at steady state.
  std::vector<IfaceId> hops;
  /// Edge exactness (paper §4.3): hops reached only through mergers that
  /// absorbed nothing from them matching the path — imperfect-merging
  /// false positives there. (A non-merger entry's hops are exactly the
  /// interfaces that subscribed its XPE.) Empty unless a merger matched;
  /// after PrtIndex::match, sorted and a subset of `hops`.
  std::vector<IfaceId> inexact_hops;
  /// Matches against merger entries not backed by any merged original
  /// (covering mode; the paper's in-network false positives, Fig. 9).
  std::size_t merger_false_matches = 0;
  /// Comparison tests performed.
  std::size_t comparisons = 0;

  void clear() {
    hops.clear();
    inexact_hops.clear();
    merger_false_matches = 0;
    comparisons = 0;
  }
};

class PrtIndex;

/// Publication routing table: subscription-tree or flat, behind one
/// interface so the broker code is oblivious to the covering mode.
///
/// Matching runs against one compiled index (PrtIndex) that the table
/// owns and refreshes lazily: mutations only mark the buckets they touch
/// dirty, and the first match after them recompiles exactly those
/// buckets, sharing the rest with the previous index. A burst of control
/// ops therefore costs no compile at all until a publication needs the
/// table.
class Prt {
 public:
  struct InsertOutcome {
    bool was_new = false;
    bool covered = false;
    std::vector<Xpe> now_covered;
  };

  /// Compile counters of the lazy index refresh (tests, bench/churn).
  struct IndexStats {
    /// Refreshes that found dirty buckets.
    std::uint64_t builds = 0;
    /// Refreshes whose every recompile reproduced the previous bucket:
    /// the previous index was kept (counted under builds too).
    std::uint64_t builds_elided = 0;
    std::uint64_t buckets_rebuilt = 0;
    /// Clean buckets carried over by reference.
    std::uint64_t buckets_shared = 0;
    /// Dirty recompiles whose content matched the previous bucket, so the
    /// previous allocation was kept (counted under buckets_rebuilt too).
    std::uint64_t buckets_unchanged = 0;
  };

  explicit Prt(bool covering, bool track_covered = true);

  InsertOutcome insert(const Xpe& xpe, IfaceId hop);
  bool remove(const Xpe& xpe, IfaceId hop);

  /// Matches `path` against index() on the calling thread: `out` is
  /// cleared, then filled with the hops sorted ascending and
  /// deduplicated, and the comparisons are folded into comparisons().
  void match(const Path& path, PrtMatch* out) const;
  /// Destination hops of every subscription matching `path`.
  IfaceSet match_hops(const Path& path) const;

  std::size_t size() const;
  /// Covering tests of the inserts plus match tests (one per compiled
  /// entry the match reached; buckets the path cannot hit are skipped
  /// without being counted).
  std::size_t comparisons() const;
  bool covering() const { return covering_; }
  bool contains(const Xpe& xpe) const;
  /// Every stored subscription (tree or flat).
  std::vector<Xpe> all_xpes() const;
  /// Subscriptions that are not covered by any other (covering mode: tree
  /// roots without super sources; flat mode: everything).
  std::vector<Xpe> top_level_xpes() const;
  /// Every stored subscription with its hop set (both modes; snapshots).
  std::vector<std::pair<Xpe, IfaceSet>> entries_with_hops() const;

  /// The compiled index, brought up to date first. Returns the previous
  /// index itself when nothing is dirty or every dirty bucket recompiled
  /// to its previous content, so pointer equality means "unchanged".
  /// Never call concurrently with a mutation or another match; the
  /// index itself is immutable, so a copy of the pointer is safe to share
  /// with any thread.
  const std::shared_ptr<const PrtIndex>& index() const;
  const IndexStats& index_stats() const { return index_stats_; }

  /// Folds comparisons counted elsewhere (the parallel engine's workers)
  /// into comparisons().
  void add_comparisons(std::size_t n) const { match_comparisons_ += n; }

  /// Covering mode only: the underlying tree (merging runs on it).
  SubscriptionTree* tree() { return tree_.get(); }
  const SubscriptionTree* tree() const { return tree_.get(); }

 private:
  bool index_dirty() const;
  const std::set<std::uint32_t>& index_dirty_keys() const;
  bool index_all_dirty() const;
  void clear_index_dirty() const;
  /// Compiles bucket `key` (SymbolTable::kNoSymbol = the all-wildcard
  /// side bucket) from the live table.
  void compile_bucket(std::uint32_t key, PrtBucket* out) const;
  /// Distinct non-side bucket keys currently present (full rebuilds).
  std::vector<std::uint32_t> bucket_keys() const;
  void note_flat_dirty(const Xpe& xpe);

  bool covering_;
  std::unique_ptr<SubscriptionTree> tree_;  // covering mode
  // Flat mode storage.
  struct FlatEntry {
    Xpe xpe;
    IfaceSet hops;
    /// Lazily created immutable share for compilation (see
    /// SubscriptionTree::Node::shared_xpe); `xpe` never mutates after
    /// the entry is created.
    mutable std::shared_ptr<const Xpe> shared_xpe;
  };
  std::vector<FlatEntry> flat_;
  std::unordered_map<Xpe, std::size_t, XpeHash> flat_index_;
  /// Flat-mode dirty bucket keys (covering mode: the tree's own). Starts
  /// all-dirty so the first refresh is a full compile.
  mutable std::set<std::uint32_t> flat_dirty_keys_;
  mutable bool flat_all_dirty_ = true;

  mutable std::size_t match_comparisons_ = 0;
  mutable std::shared_ptr<const PrtIndex> index_;
  mutable IndexStats index_stats_;
  /// Dirty recompiles land here first (capacity persists across
  /// refreshes, so steady-state churn compiles into the same warm
  /// allocation); a bucket is cloned out only when its content changed.
  mutable PrtBucket scratch_;
  /// match() scratch: interned symbols and the distinct-symbol list.
  mutable std::vector<std::uint32_t> match_symbols_;
  mutable std::vector<std::uint32_t> match_distinct_;
};

/// The compiled PRT: an immutable map from discriminating symbol to
/// bucket, plus the side bucket of all-wildcard subscriptions. Built only
/// by Prt::index(); never mutated after that, so buckets are shared
/// between successive indexes and any number of threads may match
/// against one concurrently.
class PrtIndex {
 public:
  using BucketPtr = std::shared_ptr<const PrtBucket>;

  PrtIndex();

  /// Appends the hops of every entry matching `ip` into `out`, in visit
  /// order and with duplicates: the side bucket first, then the buckets
  /// of `distinct_symbols` in order; one comparison per reached entry. A
  /// merger's hops go to `inexact_hops` unless the path matches what the
  /// merger absorbed from them.
  void scan(const PathView& ip,
            std::span<const std::uint32_t> distinct_symbols,
            PrtMatch* out) const;

  /// Whole-table match: clears `out`, scans, and sorts and deduplicates
  /// its hops; an inexact hop that some entry reached exactly is exact.
  /// `distinct` is caller scratch.
  void match(const PathView& ip, std::vector<std::uint32_t>* distinct,
             PrtMatch* out) const;

  /// Deduplicated symbol list of `ip` in first-occurrence order (elements
  /// no XPE ever interned are dropped: no bucket can hold them).
  static void distinct_symbols(const PathView& ip,
                               std::vector<std::uint32_t>* out);
  /// Sort + dedup a concatenated hop list into ascending order.
  static void canonicalize_hops(std::vector<IfaceId>* hops) {
    std::sort(hops->begin(), hops->end());
    hops->erase(std::unique(hops->begin(), hops->end()), hops->end());
  }

  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  friend class Prt;

  /// The match kernel: walks one compiled bucket, visiting every entry
  /// whose XPE matches `ip` and skipping failed subtrees wholesale.
  static void scan_bucket(const PrtBucket& bucket, const PathView& ip,
                          PrtMatch* out);

  std::unordered_map<std::uint32_t, BucketPtr> buckets_;
  /// All-wildcard subscriptions (no discriminating symbol); always
  /// non-null, possibly empty.
  BucketPtr side_;
};

}  // namespace xroute

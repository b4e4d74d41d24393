// Subscription tree (paper §4.1): the covering index.
//
// Subscriptions are kept in a tree in which every node's XPE covers all
// XPEs in its subtree. Because covering is only a partial order, a node may
// be covered by subscriptions outside its ancestor chain; those extra
// covering relations are recorded as *super pointers*, making the overall
// structure a DAG. The tree supports:
//
//   * insert     — the paper's three-case insertion (new sibling / new
//                  inner node above covered siblings / descend into the
//                  covering child), returning what covering-based routing
//                  needs: whether the newcomer is covered, and which
//                  now-covered subscriptions should be unsubscribed
//                  upstream.
//   * remove     — unsubscription: children splice to the grandparent
//                  (covering is transitive, so the invariant holds).
//   * compile    — serialises the subtrees under each root bucket into
//                  the PRT's match index (router/routing_tables.hpp), which
//                  matches with subtree pruning: if a path does not match
//                  a node it cannot match anything the node covers, so the
//                  whole subtree is skipped.
//   * merging support — nodes carry merger metadata (see merging.h).
//
// Each node carries the set of last hops the subscription was received
// from (the PRT payload), so the tree doubles as the publication routing
// table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "match/covering.hpp"
#include "router/iface.hpp"
#include "util/symbols.hpp"
#include "xpath/xpe.hpp"

namespace xroute {

struct PrtBucket;  // router/routing_tables.hpp

class SubscriptionTree {
 public:
  /// (hop, XPE) pairs: what a merger absorbed from each hop.
  using Absorbed = std::vector<std::pair<IfaceId, Xpe>>;

  struct Node {
    Xpe xpe;
    /// Insertion order, assigned once at creation. Sibling lists are
    /// kept in ascending `seq` order (inserts append the newest node;
    /// detach_node merges spliced orphans back by seq), so the compiled
    /// serialisation order is canonical: a subscribe/unsubscribe pair
    /// that nets out structurally reproduces the previous byte stream
    /// exactly, which is what lets the index refresh detect and elide
    /// no-op recompiles under churn.
    std::uint64_t seq = 0;
    /// symbol_sig(xpe), fixed at creation like `xpe` itself. Root-level
    /// insert scans test signatures from the packed root index instead
    /// of touching each sibling's XPE.
    std::uint64_t sig = 0;
    /// A superset of the OR of `sig` over this node's subtree (itself
    /// included). Inserts and merges OR the newcomer's value into every
    /// ancestor; removals leave it, so it may be stale but never too
    /// small. The super-pointer sweep skips a subtree by it.
    std::uint64_t sub_sig = 0;
    /// This node's slot in root_nodes_/root_sigs_; meaningful only
    /// while the node is a direct child of the root.
    std::size_t root_slot = 0;
    Node* parent = nullptr;
    std::vector<std::unique_ptr<Node>> children;
    /// Covering shortcuts to nodes outside this node's subtree.
    std::vector<Node*> super;
    /// Nodes holding a super pointer to this node (for O(1) unlinking).
    std::vector<Node*> super_sources;
    /// Last hops (destinations) this subscription was received from.
    IfaceSet hops;
    /// Merger bookkeeping (paper §4.3).
    bool merger = false;
    std::vector<Xpe> merged_from;
    /// Merger only, for edge exactness: per hop in `hops`, the merged
    /// originals it subscribed, the merger's own XPE if it subscribed
    /// exactly that, and what a merged merger had absorbed from it.
    /// Unlike `merged_from` (Fig. 9), it follows unsubscribes.
    Absorbed absorbed;
    /// Lazily created immutable shares of the payloads index compilation
    /// needs (PrtBucket::Entry): one deep copy per node lifetime, shared
    /// by every recompile instead of copied into each bucket. `xpe` never
    /// changes after node creation; every later edit of `merged_from` or
    /// `absorbed` resets its cache.
    mutable std::shared_ptr<const Xpe> shared_xpe;
    mutable std::shared_ptr<const std::vector<Xpe>> shared_merged_from;
    mutable std::shared_ptr<const Absorbed> shared_absorbed;
  };

  struct InsertResult {
    Node* node = nullptr;
    /// False if the XPE was already present (hop added to existing node).
    bool was_new = false;
    /// True if some *other* existing subscription covers the new one — the
    /// covering-routing signal not to forward it.
    bool covered_by_existing = false;
    /// Existing subscriptions the newcomer covers that were previously
    /// top-level w.r.t. it (candidates for upstream unsubscription).
    std::vector<Xpe> now_covered;
  };

  SubscriptionTree();
  ~SubscriptionTree();
  SubscriptionTree(const SubscriptionTree&) = delete;
  SubscriptionTree& operator=(const SubscriptionTree&) = delete;

  struct Options {
    /// When true, insertion searches the whole tree for subscriptions the
    /// newcomer covers (needed for upstream unsubscription and super
    /// pointers). When false, only covered siblings along the descent are
    /// reported — cheaper, still delivery-correct.
    bool track_covered = true;
  };
  explicit SubscriptionTree(Options options);

  /// Inserts `xpe` received from `hop`.
  InsertResult insert(const Xpe& xpe, IfaceId hop);

  /// Removes `hop` from the subscription; the node disappears when no hop
  /// remains. Returns true if the subscription existed with that hop.
  /// Otherwise an XPE a merger absorbed from `hop` is dropped from the
  /// merger's absorbed pairs (the merger still routes `hop`). So is the
  /// merger's own XPE while `hop` holds other absorbed pairs: then the
  /// merger keeps `hop` and this returns false.
  bool remove(const Xpe& xpe, IfaceId hop);

  /// Removes the subscription entirely (all hops). Returns true if found.
  bool erase(const Xpe& xpe);

  /// Drops every pair mergers absorbed from `hop`, leaving their routes:
  /// a departing interface holds none of them, and once they are gone
  /// remove() withdraws each merger's route to it like any other.
  void drop_absorbed(IfaceId hop);

  /// True if some subscription other than `xpe` itself covers `xpe`.
  bool covered(const Xpe& xpe) const;

  /// 64-bit Bloom signature over the XPE's concrete step symbols.
  /// Covering maps every concrete coverer step onto an equal symbol of
  /// the covered expression (symbol_covers), so covers(a, b) implies
  /// sig_may_cover(sig(a), sig(b)).
  static std::uint64_t symbol_sig(const Xpe& xpe);

  /// The one-AND necessary condition for covers(a, b) on the operands'
  /// signatures. Every covering request the tree makes passes it first,
  /// so a pair failing it costs neither a covers() test nor a memo probe.
  /// Along a tree path signatures only grow (a parent covers its
  /// children), so a node that fails it as the coverer of `b` speaks for
  /// its whole subtree.
  static bool sig_may_cover(std::uint64_t a_sig, std::uint64_t b_sig) {
    return (a_sig & ~b_sig) == 0;
  }

  // -- Match index support (router/routing_tables.hpp) --------------------
  //
  // The PRT's compiled index recompiles only the buckets whose content
  // may have changed since the last refresh. Every mutator below marks
  // the affected bucket key(s); overshoot (marking a clean bucket) costs
  // one redundant recompile, undershoot would be a stale-route bug, so
  // attribution is conservative: hop-only changes mark too (buckets copy
  // hop lists), and merge passes mark everything.

  /// The bucket key of `xpe`: its deepest concrete step symbol (a path
  /// can only match the XPE, or anything it covers, if it contains that
  /// element), or SymbolTable::kNoSymbol for the all-wildcard side bucket.
  static std::uint32_t bucket_key(const Xpe& xpe);

  bool index_all_dirty() const { return index_all_dirty_; }
  const std::set<std::uint32_t>& index_dirty_keys() const {
    return index_dirty_keys_;
  }
  /// Called by the index refresh once it has compiled every dirty bucket.
  void clear_index_dirty() const {
    index_dirty_keys_.clear();
    index_all_dirty_ = false;
  }

  /// Compiles the bucket of `key` — every root child whose bucket_key()
  /// is `key`, in sibling order, each with its whole subtree in DFS
  /// pre-order — into `out`.
  void compile_bucket(std::uint32_t key, PrtBucket* out) const;

  /// Distinct bucket keys currently present among root children,
  /// excluding kNoSymbol (full-rebuild enumeration).
  std::vector<std::uint32_t> bucket_keys() const;

  /// Number of subscriptions stored — the paper's "routing table size".
  std::size_t size() const { return by_xpe_.size(); }
  bool empty() const { return by_xpe_.empty(); }

  const Node* find(const Xpe& xpe) const;
  Node* find(const Xpe& xpe);

  /// Depth-first visit of every node (parents before children).
  void for_each(const std::function<void(const Node&)>& fn) const;

  /// Comparison counter: number of covering tests requested since
  /// construction that passed the signature test (match tests are counted
  /// by the PRT's index, see Prt::comparisons()); the processing-time
  /// experiments report both. Tests answered from the memo cache still
  /// count (the request happened; only its cost changed), so the figure
  /// does not depend on the cache.
  std::size_t comparisons() const { return comparisons_; }

  /// Nodes the super-pointer sweep has read since construction, skipped
  /// subtree roots included: the sweep's cost, which comparisons() does
  /// not show because pruned requests are not counted.
  std::size_t sweep_visits() const { return sweep_visits_; }

  /// Covering-memo statistics (see DESIGN.md "Performance architecture").
  std::size_t cover_cache_hits() const { return cover_cache_hits_; }
  std::size_t cover_cache_size() const { return cover_cache_.size(); }

  /// Test hook: checks all structural invariants, returning a description
  /// of the first violation or an empty string if consistent.
  std::string validate() const;

  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  /// Internal/merging API: detaches `node` from the tree, splicing its
  /// children to its parent. The node is destroyed.
  void detach_node(Node* node);

  /// Internal/merging API: adopts `child` (currently parentless, newly
  /// created) under `parent`. Registers the XPE in the lookup map.
  Node* adopt(Node* parent, std::unique_ptr<Node> child);

  /// Merging support (paper §4.3): replaces `originals` (children of
  /// `parent`) with a single merger node carrying `merger_xpe`. The
  /// originals' children become the merger's children; hops and
  /// merged_from lists are unioned; super pointers to the originals are
  /// dropped (the pointer owners need not cover the more general merger),
  /// super pointers from the originals move to the merger. Returns the
  /// merger node, or nullptr if `merger_xpe` already exists in the tree
  /// (the merge is skipped).
  Node* merge_children(Node* parent, const std::vector<Node*>& originals,
                       const Xpe& merger_xpe);

  /// Snapshot restore: makes the stored `xpe` a merger of `merged_from`,
  /// or adds one absorbed pair to a merger routing `hop`; anything else
  /// is ignored.
  void restore_merger(const Xpe& xpe, std::vector<Xpe> merged_from);
  void restore_absorbed(const Xpe& merger, IfaceId hop, const Xpe& xpe);

 private:
  InsertResult insert_new(const Xpe& xpe, IfaceId hop);
  void collect_covered_outside(Node* origin_node, std::vector<Xpe>* out);
  /// Marks the bucket containing `node` (its root ancestor's key) dirty
  /// for the index refresh.
  void note_index_dirty(const Node* node);
  /// covers(a, b) behind sig_may_cover, memoised.
  bool covers_cached(const Xpe& a, std::uint64_t a_sig, const Xpe& b,
                     std::uint64_t b_sig) const;
  bool node_covers(const Node* a, const Node* b) const {
    return covers_cached(a->xpe, a->sig, b->xpe, b->sig);
  }
  void unlink_super(Node* node);
  /// The merger holding absorbed pair (hop, xpe), or nullptr: free while
  /// the tree holds no merger, else a DFS pruned by signature (a merger
  /// covers what it absorbed).
  Node* find_absorber(const Xpe& xpe, IfaceId hop);
  void note_absorbed_changed(Node* merger) {
    merger->shared_absorbed.reset();
    note_index_dirty(merger);
  }

  /// Bounded memo for covers() over canonical XPE uid pairs. Entries bind
  /// XPE *values* — covers(a, b) is a pure function of the two
  /// expressions and uids are never recycled — so no tree mutation can
  /// make an entry stale; removal-time invalidation is a no-op by
  /// construction (tested in subscription_tree_test). Cleared wholesale
  /// when it reaches kCoverCacheCap to bound memory on adversarial churn.
  static constexpr std::size_t kCoverCacheCap = 1u << 20;

  Options options_;
  std::unique_ptr<Node> root_;  ///< virtual root; xpe empty, matches all
  std::uint64_t next_seq_ = 1;  ///< Node::seq allocator (root keeps 0)

  /// Packed signature index over the root's direct children (parallel
  /// arrays, order-free: Node::root_slot maps back). Root sibling lists
  /// run to thousands of entries under real tables; one sequential pass
  /// over the packed sigs finds the few signature-compatible candidates
  /// of the insert descend/capture scans without touching a node.
  /// Maintained eagerly by root_child_added/removed at every site that
  /// mutates root_->children.
  std::vector<std::uint64_t> root_sigs_;
  std::vector<Node*> root_nodes_;

  void root_child_added(Node* n) {
    n->root_slot = root_nodes_.size();
    root_nodes_.push_back(n);
    root_sigs_.push_back(n->sig);
  }
  void root_child_removed(Node* n) {
    const std::size_t slot = n->root_slot;
    root_nodes_[slot] = root_nodes_.back();
    root_sigs_[slot] = root_sigs_.back();
    root_nodes_[slot]->root_slot = slot;
    root_nodes_.pop_back();
    root_sigs_.pop_back();
  }
  std::unordered_map<Xpe, Node*, XpeHash> by_xpe_;
  std::size_t mergers_ = 0;  ///< merger nodes in the tree
  mutable std::size_t comparisons_ = 0;
  std::size_t sweep_visits_ = 0;

  mutable std::unordered_map<std::uint64_t, bool> cover_cache_;
  mutable std::size_t cover_cache_hits_ = 0;

  // Index dirty tracking: bucket keys whose compiled form may differ
  // from the last refresh (cleared by the refresh, hence mutable). Starts
  // all-dirty so the first refresh is a full compile.
  mutable std::set<std::uint32_t> index_dirty_keys_;
  mutable bool index_all_dirty_ = true;
};

}  // namespace xroute

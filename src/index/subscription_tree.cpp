#include "index/subscription_tree.hpp"

#include <algorithm>
#include <sstream>

#include "router/routing_tables.hpp"
#include "util/symbols.hpp"

namespace xroute {

SubscriptionTree::SubscriptionTree() : SubscriptionTree(Options{}) {}

SubscriptionTree::SubscriptionTree(Options options)
    : options_(options), root_(std::make_unique<Node>()) {}

SubscriptionTree::~SubscriptionTree() = default;

namespace {

/// Constant-time necessary condition for covers(c, x), used to prune the
/// descent and sibling scans (the paper's §4.1 node properties: an
/// anchored coverer must be anchored-compatible at position 0; a longer
/// expression never covers a shorter one).
bool may_cover(const Xpe& c, const Xpe& x) {
  if (c.size() > x.size()) return false;
  if (c.anchored()) {
    // Positionwise coverage at the root is necessary for anchored
    // coverers ("A relative XPE ... will never be inserted in a subtree
    // rooted by an absolute XPE" is the contrapositive).
    if (!x.anchored()) return false;
    const std::uint32_t c0 = c.symbol(0);
    if (c0 != SymbolTable::kWildcardId && c0 != x.symbol(0)) return false;
  }
  return true;
}

/// Matches the absorbed pair (hop, xpe).
auto absorbed_pair(IfaceId hop, const Xpe& xpe) {
  return [hop, &xpe](const SubscriptionTree::Absorbed::value_type& pair) {
    return pair.first == hop && pair.second == xpe;
  };
}

/// ORs `node`'s subtree signature into every ancestor's.
void widen_ancestors(const SubscriptionTree::Node* node) {
  for (SubscriptionTree::Node* a = node->parent; a; a = a->parent) {
    a->sub_sig |= node->sub_sig;
  }
}

}  // namespace

bool SubscriptionTree::covers_cached(const Xpe& a, std::uint64_t a_sig,
                                     const Xpe& b, std::uint64_t b_sig) const {
  if (!sig_may_cover(a_sig, b_sig)) return false;
  // Counts the *request* whether or not the memo answers it, so the
  // paper's processing-time counters are identical with and without the
  // cache (the cache changes cost, never outcomes or call counts).
  ++comparisons_;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(a.uid()) << 32) | b.uid();
  auto it = cover_cache_.find(key);
  if (it != cover_cache_.end()) {
    ++cover_cache_hits_;
    return it->second;
  }
  const bool result = may_cover(a, b) && covers(a, b);
  if (cover_cache_.size() >= kCoverCacheCap) cover_cache_.clear();
  cover_cache_.emplace(key, result);
  return result;
}

const SubscriptionTree::Node* SubscriptionTree::find(const Xpe& xpe) const {
  auto it = by_xpe_.find(xpe);
  return it == by_xpe_.end() ? nullptr : it->second;
}

SubscriptionTree::Node* SubscriptionTree::find(const Xpe& xpe) {
  auto it = by_xpe_.find(xpe);
  return it == by_xpe_.end() ? nullptr : it->second;
}

std::uint64_t SubscriptionTree::symbol_sig(const Xpe& xpe) {
  std::uint64_t sig = 0;
  for (std::uint32_t sym : xpe.symbols()) {
    if (sym == SymbolTable::kWildcardId) continue;
    sig |= 1ull << ((sym * 0x9E3779B97F4A7C15ull) >> 58);
  }
  return sig;
}

std::uint32_t SubscriptionTree::bucket_key(const Xpe& xpe) {
  // The deepest concrete step: a path can only match this XPE (or
  // anything it covers — covering preserves concrete steps of the
  // coverer) if it contains that element somewhere.
  const std::vector<std::uint32_t>& syms = xpe.symbols();
  for (std::size_t i = syms.size(); i-- > 0;) {
    if (syms[i] != SymbolTable::kWildcardId) return syms[i];
  }
  return SymbolTable::kNoSymbol;
}

void SubscriptionTree::note_index_dirty(const Node* node) {
  if (index_all_dirty_) return;
  while (node->parent != nullptr && node->parent != root_.get()) {
    node = node->parent;
  }
  if (node->parent == nullptr) {
    // Not reachable from the root (defensive): attribution unknown.
    index_all_dirty_ = true;
    return;
  }
  index_dirty_keys_.insert(bucket_key(node->xpe));
}

SubscriptionTree::InsertResult SubscriptionTree::insert(const Xpe& xpe,
                                                        IfaceId hop) {
  if (Node* existing = find(xpe)) {
    InsertResult result;
    existing->hops.insert(hop);
    Absorbed& absorbed = existing->absorbed;
    if (existing->merger && std::none_of(absorbed.begin(), absorbed.end(),
                                         absorbed_pair(hop, xpe))) {
      // The hop asked for exactly the merger's XPE: it absorbs that too.
      absorbed.emplace_back(hop, xpe);
      existing->shared_absorbed.reset();
    }
    // Hop-only change: compiled buckets copy hop lists — mark the
    // containing bucket.
    note_index_dirty(existing);
    result.node = existing;
    result.was_new = false;
    result.covered_by_existing = existing->parent != root_.get() ||
                                 !existing->super_sources.empty();
    return result;
  }
  return insert_new(xpe, hop);
}

SubscriptionTree::InsertResult SubscriptionTree::insert_new(const Xpe& xpe,
                                                            IfaceId hop) {
  InsertResult result;
  result.was_new = true;

  auto node = std::make_unique<Node>();
  node->seq = next_seq_++;
  node->sig = symbol_sig(xpe);
  node->sub_sig = node->sig;
  node->xpe = xpe;
  node->hops.insert(hop);
  Node* raw = node.get();

  // Descend to the deepest node covering the newcomer (paper Case 3):
  // the first covering child in sibling order at every level. The root
  // level — thousands of siblings under real tables — first passes over
  // the packed signature index, so only signature-compatible children
  // are touched; since sibling order is seq order, it keeps the
  // lowest-seq cover.
  Node* parent = root_.get();
  {
    Node* covering = nullptr;
    for (std::size_t i = 0; i < root_sigs_.size(); ++i) {
      if (!sig_may_cover(root_sigs_[i], raw->sig)) continue;
      Node* cand = root_nodes_[i];
      if (covering && covering->seq < cand->seq) continue;
      if (node_covers(cand, raw)) covering = cand;
    }
    if (covering) parent = covering;
  }
  while (parent != root_.get()) {
    Node* covering_child = nullptr;
    for (const auto& child : parent->children) {
      if (node_covers(child.get(), raw)) {
        covering_child = child.get();
        break;
      }
    }
    if (!covering_child) break;
    parent = covering_child;
  }

  // Children of the insertion point that the newcomer covers move below it
  // (paper Case 2, generalised to any number of covered siblings). At the
  // root the packed index finds the candidates: the newcomer covering a
  // child requires the newcomer's signature to be a subset of the
  // child's, so the common churn case — no captures — costs the
  // signature pass alone.
  std::vector<Node*> captured;
  if (parent == root_.get()) {
    for (std::size_t i = 0; i < root_sigs_.size(); ++i) {
      if (!sig_may_cover(raw->sig, root_sigs_[i])) continue;
      if (node_covers(raw, root_nodes_[i])) captured.push_back(root_nodes_[i]);
    }
  } else {
    for (const auto& child : parent->children) {
      if (node_covers(raw, child.get())) captured.push_back(child.get());
    }
  }
  if (!captured.empty()) {
    std::vector<std::unique_ptr<Node>> kept;
    kept.reserve(parent->children.size());
    for (auto& child : parent->children) {
      if (std::find(captured.begin(), captured.end(), child.get()) ==
          captured.end()) {
        kept.push_back(std::move(child));
        continue;
      }
      if (parent == root_.get()) {
        result.now_covered.push_back(child->xpe);
        // The captured sibling was a root of its own bucket; it now
        // lives inside the newcomer's — both buckets change.
        if (!index_all_dirty_) {
          index_dirty_keys_.insert(bucket_key(child->xpe));
        }
        root_child_removed(child.get());
      }
      child->parent = raw;
      raw->sub_sig |= child->sub_sig;
      raw->children.push_back(std::move(child));
    }
    parent->children = std::move(kept);
  }
  raw->parent = parent;
  parent->children.push_back(std::move(node));
  widen_ancestors(raw);
  if (parent == root_.get()) root_child_added(raw);
  by_xpe_.emplace(xpe, raw);
  note_index_dirty(raw);
  result.node = raw;
  result.covered_by_existing = parent != root_.get();

  if (options_.track_covered) {
    // Search the rest of the tree for covering relations the tree shape
    // cannot express; record them as super pointers (paper §4.1).
    collect_covered_outside(raw, &result.now_covered);
    if (!raw->super_sources.empty()) result.covered_by_existing = true;
  }
  return result;
}

void SubscriptionTree::collect_covered_outside(Node* origin_node,
                                               std::vector<Xpe>* out) {
  // Iterative DFS over the whole tree except the newcomer's subtree.
  // Both covering requests per node pass the signature test first, so the
  // walk runs covers() only on the few compatible pairs. A subtree where
  // both tests must fail is skipped whole: descendants' signatures
  // contain node->sig, so none covers the newcomer, and all lie inside
  // node->sub_sig, so the newcomer covers none. Every request skipped is
  // one the signature test would refuse uncounted, so the visiting order
  // of the rest, the recorded pointers and comparisons() are those of the
  // plain DFS.
  std::vector<Node*> stack;
  for (auto& child : root_->children) {
    if (child.get() != origin_node) stack.push_back(child.get());
  }
  const std::uint64_t origin_sig = origin_node->sig;
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    ++sweep_visits_;
    if (!sig_may_cover(node->sig, origin_sig) &&
        !sig_may_cover(origin_sig, node->sub_sig)) {
      continue;
    }
    if (node_covers(origin_node, node)) {
      // The newcomer covers this top-of-covered-region node: shortcut via
      // a super pointer; its subtree is covered transitively, so there is
      // no need to descend.
      origin_node->super.push_back(node);
      node->super_sources.push_back(origin_node);
      if (node->parent == root_.get()) out->push_back(node->xpe);
      continue;
    }
    if (node_covers(node, origin_node)) {
      // An additional coverer — but only outside the ancestor chain, where
      // the tree edge already expresses the relation.
      bool is_ancestor = false;
      for (Node* walk = origin_node->parent; walk; walk = walk->parent) {
        if (walk == node) {
          is_ancestor = true;
          break;
        }
      }
      if (!is_ancestor) {
        node->super.push_back(origin_node);
        origin_node->super_sources.push_back(node);
      }
    }
    for (auto& child : node->children) {
      if (child.get() != origin_node) stack.push_back(child.get());
    }
  }
}

void SubscriptionTree::unlink_super(Node* node) {
  for (Node* target : node->super) {
    auto& sources = target->super_sources;
    sources.erase(std::remove(sources.begin(), sources.end(), node),
                  sources.end());
  }
  for (Node* source : node->super_sources) {
    auto& supers = source->super;
    supers.erase(std::remove(supers.begin(), supers.end(), node),
                 supers.end());
  }
  node->super.clear();
  node->super_sources.clear();
}

void SubscriptionTree::detach_node(Node* node) {
  unlink_super(node);
  mergers_ -= node->merger;
  Node* parent = node->parent;
  note_index_dirty(node);
  if (parent == root_.get() && !index_all_dirty_) {
    // The spliced children become roots of their own buckets.
    for (const auto& child : node->children) {
      index_dirty_keys_.insert(bucket_key(child->xpe));
    }
  }
  // Splice children to the parent: covering is transitive, so the
  // parent-covers-child invariant is preserved.
  for (auto& child : node->children) {
    child->parent = parent;
  }
  if (parent == root_.get()) {
    root_child_removed(node);
    for (const auto& child : node->children) root_child_added(child.get());
  }
  by_xpe_.erase(node->xpe);
  auto& siblings = parent->children;
  auto it = std::find_if(siblings.begin(), siblings.end(),
                         [&](const auto& p) { return p.get() == node; });
  // Steal the children before destroying the node.
  std::vector<std::unique_ptr<Node>> orphans = std::move(node->children);
  siblings.erase(it);
  // Splice the orphans back in insertion (seq) order rather than
  // appending: sibling lists stay canonically ordered, so removing a
  // subscription that captured siblings restores the exact pre-insert
  // serialisation order and the index refresh sees the bucket as
  // unchanged.
  const std::size_t merge_point = siblings.size();
  for (auto& orphan : orphans) siblings.push_back(std::move(orphan));
  std::inplace_merge(
      siblings.begin(), siblings.begin() + merge_point, siblings.end(),
      [](const auto& a, const auto& b) { return a->seq < b->seq; });
}

SubscriptionTree::Node* SubscriptionTree::adopt(Node* parent,
                                                std::unique_ptr<Node> child) {
  child->parent = parent;
  Node* raw = child.get();
  by_xpe_.emplace(raw->xpe, raw);
  parent->children.push_back(std::move(child));
  if (parent == root_.get()) root_child_added(raw);
  note_index_dirty(raw);
  return raw;
}

SubscriptionTree::Node* SubscriptionTree::merge_children(
    Node* parent, const std::vector<Node*>& originals, const Xpe& merger_xpe) {
  if (find(merger_xpe) != nullptr) return nullptr;
  // A merge restructures several buckets at once (originals removed,
  // merger adopted possibly elsewhere, covered siblings captured);
  // merges are periodic and rare, so attribute conservatively.
  index_all_dirty_ = true;
  ++mergers_;

  auto merger = std::make_unique<Node>();
  merger->seq = next_seq_++;
  merger->sig = symbol_sig(merger_xpe);
  merger->sub_sig = merger->sig;
  merger->xpe = merger_xpe;
  merger->merger = true;
  Node* raw = merger.get();

  // The merger is strictly more general than its originals and may escape
  // the parent's coverage (e.g. a '//' introduced by the general rule):
  // adopt it at the nearest ancestor that still covers it, preserving the
  // parent-covers-child invariant the pruned matching relies on.
  Node* adoption_parent = parent;
  while (adoption_parent != root_.get() && !node_covers(adoption_parent, raw)) {
    adoption_parent = adoption_parent->parent;
  }

  for (Node* original : originals) {
    raw->hops.insert(original->hops.begin(), original->hops.end());
    if (original->merger) {
      raw->merged_from.insert(raw->merged_from.end(),
                              original->merged_from.begin(),
                              original->merged_from.end());
      raw->absorbed.insert(raw->absorbed.end(), original->absorbed.begin(),
                           original->absorbed.end());
      --mergers_;
    } else {
      raw->merged_from.push_back(original->xpe);
      for (IfaceId hop : original->hops) {
        raw->absorbed.emplace_back(hop, original->xpe);
      }
    }
    // Super pointers FROM the original still denote covering (the merger
    // is more general); re-home them unless the target is itself being
    // merged away.
    for (Node* target : original->super) {
      if (std::find(originals.begin(), originals.end(), target) ==
          originals.end()) {
        raw->super.push_back(target);
        auto& sources = target->super_sources;
        sources.erase(std::remove(sources.begin(), sources.end(), original),
                      sources.end());
        target->super_sources.push_back(raw);
      }
    }
    original->super.clear();
    // Super pointers TO the original are dropped: their owners covered the
    // original but need not cover the merger (paper §4.3).
    for (Node* source : original->super_sources) {
      auto& supers = source->super;
      supers.erase(std::remove(supers.begin(), supers.end(), original),
                   supers.end());
    }
    original->super_sources.clear();

    // The originals' children become the merger's children.
    for (auto& child : original->children) {
      child->parent = raw;
      raw->children.push_back(std::move(child));
    }
    original->children.clear();
  }

  // Remove the originals from the parent and the lookup map.
  auto& siblings = parent->children;
  for (Node* original : originals) {
    by_xpe_.erase(original->xpe);
    if (parent == root_.get()) root_child_removed(original);
    auto it = std::find_if(siblings.begin(), siblings.end(),
                           [&](const auto& p) { return p.get() == original; });
    siblings.erase(it);
  }

  Node* adopted = adopt(adoption_parent, std::move(merger));

  // Like insertion Case 2: siblings the merger covers move below it.
  std::vector<std::unique_ptr<Node>> kept;
  kept.reserve(adoption_parent->children.size());
  for (auto& child : adoption_parent->children) {
    if (child.get() != adopted && node_covers(adopted, child.get())) {
      if (adoption_parent == root_.get()) root_child_removed(child.get());
      child->parent = adopted;
      adopted->children.push_back(std::move(child));
    } else {
      kept.push_back(std::move(child));
    }
  }
  adoption_parent->children = std::move(kept);
  // The merger's subtree: the originals' children and the captured
  // siblings.
  for (const auto& child : adopted->children) {
    adopted->sub_sig |= child->sub_sig;
  }
  widen_ancestors(adopted);

  // A super target that ended up inside the merger's own subtree (it was a
  // child of another original, or a covered sibling) is now expressed by
  // tree edges: drop the pointer.
  auto in_subtree = [&](Node* target) {
    for (Node* walk = target; walk; walk = walk->parent) {
      if (walk == adopted) return true;
    }
    return false;
  };
  for (auto it = adopted->super.begin(); it != adopted->super.end();) {
    if (in_subtree(*it)) {
      auto& sources = (*it)->super_sources;
      sources.erase(std::remove(sources.begin(), sources.end(), adopted),
                    sources.end());
      it = adopted->super.erase(it);
    } else {
      ++it;
    }
  }

  return adopted;
}

bool SubscriptionTree::remove(const Xpe& xpe, IfaceId hop) {
  Node* node = find(xpe);
  if (node && node->merger && node->hops.count(hop)) {
    // A hop that subscribed the merger's own XPE may also hold originals
    // the merger absorbed from it: then the merger still routes the hop,
    // and only the (hop, xpe) pair goes.
    Absorbed& absorbed = node->absorbed;
    auto other = [&](const auto& pair) {
      return pair.first == hop && !(pair.second == xpe);
    };
    if (std::any_of(absorbed.begin(), absorbed.end(), other)) {
      if (std::erase_if(absorbed, absorbed_pair(hop, xpe))) {
        note_absorbed_changed(node);
      }
      return false;
    }
  }
  if (node && node->hops.erase(hop) > 0) {
    if (node->hops.empty()) {
      detach_node(node);
    } else {
      auto of_hop = [hop](const auto& pair) { return pair.first == hop; };
      if (std::erase_if(node->absorbed, of_hop)) node->shared_absorbed.reset();
      // Hop-only change: compiled buckets copy hop lists, so the bucket
      // is stale even though the tree shape is untouched.
      note_index_dirty(node);
    }
    return true;
  }
  if (Node* merger = find_absorber(xpe, hop)) {
    Absorbed& absorbed = merger->absorbed;
    absorbed.erase(std::find_if(absorbed.begin(), absorbed.end(),
                                absorbed_pair(hop, xpe)));
    note_absorbed_changed(merger);
  }
  return false;
}

SubscriptionTree::Node* SubscriptionTree::find_absorber(const Xpe& xpe,
                                                        IfaceId hop) {
  if (mergers_ == 0) return nullptr;
  const std::uint64_t sig = symbol_sig(xpe);
  std::vector<Node*> stack;
  for (const auto& child : root_->children) stack.push_back(child.get());
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    if (!sig_may_cover(node->sig, sig)) continue;
    if (std::any_of(node->absorbed.begin(), node->absorbed.end(),
                    absorbed_pair(hop, xpe))) {
      return node;
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return nullptr;
}

void SubscriptionTree::restore_merger(const Xpe& xpe,
                                      std::vector<Xpe> merged_from) {
  Node* node = find(xpe);
  if (!node) return;
  mergers_ += !node->merger;
  node->merger = true;
  node->merged_from = std::move(merged_from);
  node->shared_merged_from.reset();
  note_index_dirty(node);
}

void SubscriptionTree::restore_absorbed(const Xpe& merger, IfaceId hop,
                                        const Xpe& xpe) {
  Node* node = find(merger);
  if (!node || !node->merger || !node->hops.count(hop)) return;
  node->absorbed.emplace_back(hop, xpe);
  note_absorbed_changed(node);
}

void SubscriptionTree::drop_absorbed(IfaceId hop) {
  if (mergers_ == 0) return;
  auto of_hop = [hop](const auto& pair) { return pair.first == hop; };
  for (const auto& [xpe, node] : by_xpe_) {
    if (std::erase_if(node->absorbed, of_hop)) note_absorbed_changed(node);
  }
}

bool SubscriptionTree::erase(const Xpe& xpe) {
  Node* node = find(xpe);
  if (!node) return false;
  detach_node(node);
  return true;
}

bool SubscriptionTree::covered(const Xpe& xpe) const {
  const std::uint64_t sig = symbol_sig(xpe);
  std::vector<const Node*> stack;
  for (const auto& child : root_->children) stack.push_back(child.get());
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    // A node whose signature cannot cover the query prunes its subtree:
    // descendants' signatures contain it.
    if (!sig_may_cover(node->sig, sig)) continue;
    if (!(node->xpe == xpe) && covers_cached(node->xpe, node->sig, xpe, sig)) {
      return true;
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return false;
}

namespace {

/// Serialises `node` and its whole subtree into `out` in DFS pre-order
/// (see PrtBucket for the entry layout). The per-node payload (XPE, hops,
/// merger metadata) is copied into the immutable bucket instead of
/// referenced through Node pointers — the live tree keeps mutating after
/// the index is built. Returns the number of words emitted for the
/// subtree, so the caller can backpatch its own skip_words header.
std::size_t emit_subtree(const SubscriptionTree::Node* node, PrtBucket* out) {
  const std::vector<std::uint32_t>& prog = node->xpe.program();
  const std::size_t header = out->words.size();
  out->words.push_back(static_cast<std::uint32_t>(prog.size()));
  out->words.push_back(0);  // skip_words, backpatched below
  out->words.push_back(0);  // skip_entries, backpatched below
  out->words.insert(out->words.end(), prog.begin(), prog.end());
  PrtBucket::Entry entry;
  // Payload sharing: the node's XPE (and merger list) is immutable for
  // the node's lifetime, so every recompile hands out the same share —
  // no deep copy, and bucket equality degenerates to pointer compares.
  // Plain shared_ptr, not make_shared: the control block must live on
  // its own cache lines — recompiles bump these refcounts constantly,
  // and a co-located control block would invalidate the payload line
  // the match workers have cached for every touched entry.
  if (!node->shared_xpe) {
    node->shared_xpe = std::shared_ptr<const Xpe>(new Xpe(node->xpe));
  }
  entry.xpe = node->shared_xpe;
  entry.hop_begin = static_cast<std::uint32_t>(out->hops.size());
  out->hops.insert(out->hops.end(), node->hops.begin(), node->hops.end());
  entry.hop_end = static_cast<std::uint32_t>(out->hops.size());
  if (node->merger) {
    if (!node->shared_merged_from) {
      node->shared_merged_from = std::shared_ptr<const std::vector<Xpe>>(
          new std::vector<Xpe>(node->merged_from));
    }
    entry.merged_from = node->shared_merged_from;
    if (!node->shared_absorbed) {
      using Absorbed = SubscriptionTree::Absorbed;
      node->shared_absorbed =
          std::shared_ptr<const Absorbed>(new Absorbed(node->absorbed));
    }
    entry.absorbed = node->shared_absorbed;
  }
  out->entries.push_back(std::move(entry));
  const std::size_t entries_before = out->entries.size();
  std::size_t sub_words = 0;
  for (const auto& child : node->children) {
    sub_words += emit_subtree(child.get(), out);
  }
  out->words[header + 1] = static_cast<std::uint32_t>(sub_words);
  out->words[header + 2] =
      static_cast<std::uint32_t>(out->entries.size() - entries_before);
  return 3 + prog.size() + sub_words;
}

}  // namespace

void SubscriptionTree::compile_bucket(std::uint32_t key,
                                      PrtBucket* out) const {
  for (const auto& child : root_->children) {
    if (bucket_key(child->xpe) == key) emit_subtree(child.get(), out);
  }
}

std::vector<std::uint32_t> SubscriptionTree::bucket_keys() const {
  std::set<std::uint32_t> keys;
  for (const auto& child : root_->children) {
    const std::uint32_t key = bucket_key(child->xpe);
    if (key != SymbolTable::kNoSymbol) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

void SubscriptionTree::for_each(
    const std::function<void(const Node&)>& fn) const {
  std::vector<const Node*> stack;
  for (const auto& child : root_->children) stack.push_back(child.get());
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    fn(*node);
    for (const auto& child : node->children) stack.push_back(child.get());
  }
}

std::string SubscriptionTree::validate() const {
  std::size_t seen = 0;
  std::size_t mergers = 0;
  std::vector<const Node*> stack;
  for (const auto& child : root_->children) {
    if (child->parent != root_.get()) return "root child with bad parent link";
    stack.push_back(child.get());
  }
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++seen;
    auto it = by_xpe_.find(node->xpe);
    if (it == by_xpe_.end() || it->second != node) {
      return "node missing from lookup map: " + node->xpe.to_string();
    }
    if (node->hops.empty() && !node->merger) {
      return "non-merger node without hops: " + node->xpe.to_string();
    }
    mergers += node->merger;
    for (const auto& pair : node->absorbed) {
      if (!node->merger || !node->hops.count(pair.first)) {
        return "absorbed pair off the merger's hops: " + node->xpe.to_string();
      }
    }
    for (const Node* target : node->super) {
      // A super target must be covered and must not be a descendant
      // (otherwise the pointer is redundant with the tree edge).
      if (!covers(node->xpe, target->xpe)) {
        return "super pointer without covering: " + node->xpe.to_string() +
               " -> " + target->xpe.to_string();
      }
      for (const Node* walk = target; walk; walk = walk->parent) {
        if (walk == node) {
          return "super pointer into own subtree: " + node->xpe.to_string();
        }
      }
    }
    for (const auto& child : node->children) {
      if (child->parent != node) {
        return "bad parent link under " + node->xpe.to_string();
      }
      if (!covers(node->xpe, child->xpe)) {
        std::ostringstream os;
        os << "parent does not cover child: " << node->xpe.to_string()
           << " !>= " << child->xpe.to_string();
        return os.str();
      }
      stack.push_back(child.get());
    }
  }
  if (seen != by_xpe_.size()) return "lookup map size mismatch";
  if (mergers != mergers_) return "merger count mismatch";
  // Subtree signatures: each must contain the OR over its subtree.
  std::string sub_sig_problem;
  auto subtree_sig = [&](auto&& self, const Node* node) -> std::uint64_t {
    std::uint64_t sig = node->sig;
    for (const auto& child : node->children) sig |= self(self, child.get());
    if ((sig & ~node->sub_sig) != 0 && sub_sig_problem.empty()) {
      sub_sig_problem = "subtree signature too small: " + node->xpe.to_string();
    }
    return sig;
  };
  for (const auto& child : root_->children) subtree_sig(subtree_sig, child.get());
  if (!sub_sig_problem.empty()) return sub_sig_problem;
  // Root signature index: exactly one slot per root child, back-link and
  // signature in sync.
  if (root_nodes_.size() != root_->children.size() ||
      root_sigs_.size() != root_nodes_.size()) {
    return "root signature index size mismatch";
  }
  for (const auto& child : root_->children) {
    const Node* n = child.get();
    if (n->root_slot >= root_nodes_.size() ||
        root_nodes_[n->root_slot] != n) {
      return "root signature index slot mismatch: " + n->xpe.to_string();
    }
    if (root_sigs_[n->root_slot] != n->sig ||
        n->sig != symbol_sig(n->xpe)) {
      return "root signature mismatch: " + n->xpe.to_string();
    }
  }
  return "";
}

}  // namespace xroute

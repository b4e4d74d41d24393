// Brute-force oracles and random generators shared by the property tests.
//
// The key semantic objects (covering, advertisement overlap) are defined by
// quantification over concrete paths; over a small alphabet and bounded
// length the quantification is exhaustively checkable, giving ground truth
// against which the paper's PTIME algorithms are verified (soundness
// everywhere; exactness where claimed).
//
// The file also holds the reference twins of the routing tables' indexed
// lookups (linear scans with the string matchers): the differential
// oracles for the PRT's compiled index and the SRT's symbol index, and the
// "before" baselines of bench/perf_routing; the covering tree's
// unpruned insert, remove and merge, the oracle of its signature-pruned
// maintenance; the broker's full coverer walk, the oracle of the walk
// that stops at its answer; and the per-client scan, the oracle of the
// edge exactness the compiled index decides.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adv/advertisement.hpp"
#include "index/subscription_tree.hpp"
#include "match/adv_automaton.hpp"
#include "match/adv_match.hpp"
#include "match/covering.hpp"
#include "match/pub_match.hpp"
#include "router/broker.hpp"
#include "router/iface.hpp"
#include "router/routing_tables.hpp"
#include "util/rng.hpp"
#include "xml/paths.hpp"
#include "xpath/xpe.hpp"

namespace xroute::testing {

/// All concrete paths over `alphabet` with length in [1, max_len].
inline std::vector<Path> all_paths(const std::vector<std::string>& alphabet,
                                   std::size_t max_len) {
  std::vector<Path> out;
  std::vector<Path> frontier{Path{}};
  for (std::size_t len = 1; len <= max_len; ++len) {
    std::vector<Path> next;
    for (const Path& p : frontier) {
      for (const std::string& e : alphabet) {
        Path q = p;
        q.elements.push_back(e);
        out.push_back(q);
        next.push_back(std::move(q));
      }
    }
    frontier = std::move(next);
  }
  return out;
}

/// Ground-truth covering over the finite path set: P(s1) ⊇ P(s2)?
/// (Restricting path length is safe for *refuting* covering; for
/// confirming it we rely on lengths comfortably above both XPE lengths.)
inline bool covers_oracle(const Xpe& s1, const Xpe& s2,
                          const std::vector<Path>& paths) {
  for (const Path& p : paths) {
    if (matches(p, s2) && !matches(p, s1)) return false;
  }
  return true;
}

/// Ground-truth advertisement overlap: ∃ path in P(a) matching s.
/// P(a) is approximated by instantiating every expansion's wildcards over
/// the alphabet — exact when the alphabet includes every element that
/// occurs plus at least one fresh element.
inline bool overlap_oracle(const Advertisement& a, const Xpe& s,
                           const std::vector<std::string>& alphabet,
                           std::size_t max_len) {
  for (const auto& expansion : a.expansions(max_len)) {
    // Instantiate wildcards over the alphabet, depth-first.
    std::vector<std::size_t> wildcard_positions;
    for (std::size_t i = 0; i < expansion.size(); ++i) {
      if (expansion[i] == "*") wildcard_positions.push_back(i);
    }
    Path p;
    p.elements = expansion;
    std::size_t combos = 1;
    for (std::size_t i = 0; i < wildcard_positions.size(); ++i) {
      combos *= alphabet.size();
    }
    for (std::size_t mask = 0; mask < combos; ++mask) {
      std::size_t m = mask;
      for (std::size_t pos : wildcard_positions) {
        p.elements[pos] = alphabet[m % alphabet.size()];
        m /= alphabet.size();
      }
      if (matches(p, s)) return true;
    }
  }
  return false;
}

/// Random XPE over `alphabet`.
inline Xpe random_xpe(Rng& rng, const std::vector<std::string>& alphabet,
                      std::size_t max_len, double wildcard_prob = 0.25,
                      double descendant_prob = 0.25,
                      double relative_prob = 0.3) {
  std::size_t len = 1 + rng.index(max_len);
  bool relative = rng.chance(relative_prob);
  std::vector<Step> steps;
  for (std::size_t i = 0; i < len; ++i) {
    Step step;
    if (i == 0) {
      step.axis = relative ? Axis::kDescendant : Axis::kChild;
    } else {
      step.axis =
          rng.chance(descendant_prob) ? Axis::kDescendant : Axis::kChild;
    }
    step.name = rng.chance(wildcard_prob) ? std::string(kWildcard)
                                          : rng.pick(alphabet);
    steps.push_back(std::move(step));
  }
  return relative ? Xpe::relative(std::move(steps))
                  : Xpe::absolute(std::move(steps));
}

/// Random concrete path over `alphabet`.
inline Path random_path(Rng& rng, const std::vector<std::string>& alphabet,
                        std::size_t max_len) {
  Path p;
  std::size_t len = 1 + rng.index(max_len);
  for (std::size_t i = 0; i < len; ++i) p.elements.push_back(rng.pick(alphabet));
  return p;
}

/// Random non-recursive advertisement.
inline Advertisement random_flat_adv(Rng& rng,
                                     const std::vector<std::string>& alphabet,
                                     std::size_t max_len,
                                     double wildcard_prob = 0.25) {
  std::vector<std::string> elements;
  std::size_t len = 1 + rng.index(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    elements.push_back(rng.chance(wildcard_prob) ? std::string(kWildcard)
                                                 : rng.pick(alphabet));
  }
  return Advertisement::from_elements(std::move(elements));
}

inline const std::vector<std::string>& small_alphabet() {
  static const std::vector<std::string> alphabet{"a", "b", "c"};
  return alphabet;
}

// -- Reference twins of the routing tables' indexed lookups ---------------
//
// Each counts one comparison per test into `*comparisons` when given, the
// way the tables count their own.

/// Covering-pruned DFS over every root of `tree` with the string matcher:
/// a node the path does not match covers nothing that matches, so its
/// subtree is skipped. The compiled PRT index must select exactly these
/// nodes (in whatever order).
inline std::vector<const SubscriptionTree::Node*> match_nodes_scan(
    const SubscriptionTree& tree, const Path& path,
    std::size_t* comparisons = nullptr) {
  std::vector<const SubscriptionTree::Node*> out;
  std::vector<const SubscriptionTree::Node*> stack;
  for (const auto& child : tree.root()->children) stack.push_back(child.get());
  while (!stack.empty()) {
    const SubscriptionTree::Node* node = stack.back();
    stack.pop_back();
    if (comparisons) ++*comparisons;
    if (!matches(path, node->xpe)) continue;
    out.push_back(node);
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return out;
}

inline IfaceSet match_hops_scan(const SubscriptionTree& tree,
                                const Path& path,
                                std::size_t* comparisons = nullptr) {
  IfaceSet hops;
  for (const SubscriptionTree::Node* node :
       match_nodes_scan(tree, path, comparisons)) {
    hops.insert(node->hops.begin(), node->hops.end());
  }
  return hops;
}

/// Flat-table twin: the string matcher over every entry (e.g. a snapshot
/// of Prt::entries_with_hops(), taken once outside a timed loop).
inline IfaceSet match_hops_scan(
    const std::vector<std::pair<Xpe, IfaceSet>>& entries, const Path& path,
    std::size_t* comparisons = nullptr) {
  IfaceSet hops;
  for (const auto& [xpe, entry_hops] : entries) {
    if (comparisons) ++*comparisons;
    if (matches(path, xpe)) hops.insert(entry_hops.begin(), entry_hops.end());
  }
  return hops;
}

/// Either PRT form: the tree scan in covering mode, every entry otherwise.
inline IfaceSet match_hops_scan(const Prt& prt, const Path& path,
                                std::size_t* comparisons = nullptr) {
  return prt.covering() ? match_hops_scan(*prt.tree(), path, comparisons)
                        : match_hops_scan(prt.entries_with_hops(), path,
                                          comparisons);
}

/// The compiled index's uncollapsed match for `path`: every matching entry
/// contributes its hops once (a merger's inexact ones included), so
/// comparing against the scans' per-entry hops is an entry-level
/// differential, not just a hop-set one.
inline std::multiset<IfaceId> uncollapsed_hops(const Prt& prt,
                                               const Path& path) {
  const InternedPath ip(path);
  std::vector<std::uint32_t> distinct;
  PrtIndex::distinct_symbols(ip.view(), &distinct);
  PrtMatch match;
  prt.index()->scan(ip.view(), distinct, &match);
  std::multiset<IfaceId> hops(match.hops.begin(), match.hops.end());
  hops.insert(match.inexact_hops.begin(), match.inexact_hops.end());
  return hops;
}

/// The edge-exactness oracle, a scan of one client's live XPEs: a
/// publication that reached the client's hop is delivered iff one of them
/// matches `path`; anything else is an imperfect-merging false positive
/// and is suppressed (paper §4.3).
inline bool client_delivery_scan(const std::vector<Xpe>& client_xpes,
                                 const Path& path) {
  for (const Xpe& xpe : client_xpes) {
    if (matches(path, xpe)) return true;
  }
  return false;
}

/// Broker::coverage_interfaces walking every coverer chain to the root:
/// the union of the forwarding records of the new XPE's ancestors and of
/// each super source and its ancestors.
inline IfaceSet reference_coverage_interfaces(const Broker& broker,
                                              const Xpe& xpe) {
  IfaceSet out;
  if (!broker.prt().covering()) return out;
  const SubscriptionTree::Node* node = broker.prt().tree()->find(xpe);
  if (!node) return out;
  const auto& record = broker.forwarding_record();
  auto add_chain = [&](const SubscriptionTree::Node* start) {
    for (const SubscriptionTree::Node* walk = start; walk && walk->parent;
         walk = walk->parent) {
      auto it = record.find(walk->xpe);
      if (it != record.end()) out.insert(it->second.begin(), it->second.end());
    }
  };
  add_chain(node->parent);
  for (const SubscriptionTree::Node* source : node->super_sources) {
    add_chain(source);
  }
  return out;
}

/// Srt::entry_overlaps with the pre-interning string element comparisons.
/// Compiles a recursive advertisement's automaton into the entry's cache
/// on first use, exactly as the table itself does.
inline bool entry_overlaps_strings(const Srt::Entry& entry, const Xpe& xpe,
                                   std::size_t* comparisons = nullptr) {
  if (comparisons) ++*comparisons;
  if (entry.advertisement.non_recursive()) {
    return nonrec_adv_overlaps(entry.advertisement.flat_elements(), xpe);
  }
  if (!entry.automaton) {
    const_cast<Srt::Entry&>(entry).automaton =
        std::make_unique<AdvAutomaton>(entry.advertisement);
  }
  return entry.automaton->overlaps(xpe);
}

/// Srt::hops_overlapping without the symbol index: every entry is tested
/// unless all its hops are already selected.
inline IfaceSet hops_overlapping_scan(const Srt& srt, const Xpe& xpe,
                                      std::size_t* comparisons = nullptr) {
  IfaceSet hops;
  for (const auto& entry : srt.entries()) {
    bool all_present = true;
    for (IfaceId h : entry->hops) all_present = all_present && hops.count(h);
    if (all_present) continue;
    if (entry_overlaps_strings(*entry, xpe, comparisons)) {
      hops.insert(entry->hops.begin(), entry->hops.end());
    }
  }
  return hops;
}

// -- Reference covering tree ----------------------------------------------

/// The subscription tree's insert and remove (paper §4.1) with no pruning
/// and no memo: the three insertion cases as plain sibling scans, and the
/// super-pointer sweep as a DFS that runs both covers() tests on every
/// node outside the newcomer's subtree. SubscriptionTree must reproduce
/// its shape, its super pointers in order and each insert's now_covered
/// list exactly; only the number of covers() tests may differ.
class ReferenceCoveringTree {
 public:
  struct Node {
    Xpe xpe;
    std::uint64_t seq = 0;
    Node* parent = nullptr;
    std::vector<Node*> children;  ///< in seq order, like the tree's
    std::vector<Node*> super;
    std::vector<Node*> super_sources;
  };

  /// What SubscriptionTree::insert reports for a new XPE, plus the new
  /// node's super pointers both ways.
  struct Insert {
    bool covered_by_existing = false;
    std::vector<Xpe> now_covered;
    std::vector<Xpe> super;
    std::vector<Xpe> super_sources;
  };

  /// Inserts an XPE not yet present.
  Insert insert(const Xpe& xpe) {
    Insert out;
    Node* parent = &root_;
    for (Node* next = parent; next;) {
      parent = next;
      next = nullptr;
      for (Node* child : parent->children) {
        if (covers(child->xpe, xpe)) {
          next = child;
          break;
        }
      }
    }
    auto owned = std::make_unique<Node>();
    Node* node = owned.get();
    node->xpe = xpe;
    node->seq = next_seq_++;
    nodes_.emplace(xpe.to_string(), std::move(owned));
    std::vector<Node*> kept;
    for (Node* child : parent->children) {
      if (!covers(xpe, child->xpe)) {
        kept.push_back(child);
        continue;
      }
      if (parent == &root_) out.now_covered.push_back(child->xpe);
      child->parent = node;
      node->children.push_back(child);
    }
    kept.push_back(node);
    parent->children = std::move(kept);
    node->parent = parent;
    out.covered_by_existing = parent != &root_;

    // The super-pointer sweep.
    std::vector<Node*> stack;
    for (Node* child : root_.children) {
      if (child != node) stack.push_back(child);
    }
    while (!stack.empty()) {
      Node* other = stack.back();
      stack.pop_back();
      if (covers(xpe, other->xpe)) {
        node->super.push_back(other);
        other->super_sources.push_back(node);
        if (other->parent == &root_) out.now_covered.push_back(other->xpe);
        continue;
      }
      if (covers(other->xpe, xpe)) {
        bool is_ancestor = false;
        for (Node* walk = node->parent; walk; walk = walk->parent) {
          is_ancestor = is_ancestor || walk == other;
        }
        if (!is_ancestor) {
          other->super.push_back(node);
          node->super_sources.push_back(other);
        }
      }
      for (Node* child : other->children) {
        if (child != node) stack.push_back(child);
      }
    }
    if (!node->super_sources.empty()) out.covered_by_existing = true;
    for (Node* n : node->super) out.super.push_back(n->xpe);
    for (Node* n : node->super_sources) out.super_sources.push_back(n->xpe);
    return out;
  }

  /// Removes a present XPE: its super pointers go, its children splice to
  /// its parent, merged into the siblings by seq (the tree's order, which
  /// is seq order unless a merge put captured siblings after the
  /// originals' children).
  void erase(const Xpe& xpe) {
    auto it = nodes_.find(xpe.to_string());
    Node* node = it->second.get();
    for (Node* target : node->super) std::erase(target->super_sources, node);
    for (Node* source : node->super_sources) std::erase(source->super, node);
    Node* parent = node->parent;
    std::erase(parent->children, node);
    const std::size_t merge_point = parent->children.size();
    for (Node* child : node->children) {
      child->parent = parent;
      parent->children.push_back(child);
    }
    std::inplace_merge(
        parent->children.begin(), parent->children.begin() + merge_point,
        parent->children.end(),
        [](const Node* a, const Node* b) { return a->seq < b->seq; });
    nodes_.erase(it);
  }

  /// SubscriptionTree::merge_children with plain covers() tests: the
  /// sibling `originals`, in the order given, become one node for
  /// `merger`, adopted at the nearest ancestor of their parent that covers
  /// it. Their children, then the adoption parent's other children the
  /// merger covers, move below it; super pointers from the originals move
  /// to it unless they point at an original, pointers to them go, and so
  /// do the merger's pointers into its own subtree.
  void merge(const std::vector<Xpe>& originals, const Xpe& merger) {
    std::vector<Node*> olds;
    for (const Xpe& xpe : originals) {
      olds.push_back(nodes_.at(xpe.to_string()).get());
    }
    auto is_old = [&](const Node* n) {
      return std::find(olds.begin(), olds.end(), n) != olds.end();
    };
    Node* parent = olds.front()->parent;
    auto owned = std::make_unique<Node>();
    Node* node = owned.get();
    node->xpe = merger;
    node->seq = next_seq_++;
    Node* adoption = parent;
    while (adoption != &root_ && !covers(adoption->xpe, merger)) {
      adoption = adoption->parent;
    }
    for (Node* old : olds) {
      for (Node* target : old->super) {
        if (is_old(target)) continue;
        node->super.push_back(target);
        std::erase(target->super_sources, old);
        target->super_sources.push_back(node);
      }
      for (Node* source : old->super_sources) std::erase(source->super, old);
      for (Node* child : old->children) {
        child->parent = node;
        node->children.push_back(child);
      }
    }
    for (Node* old : olds) {
      std::erase(parent->children, old);
      nodes_.erase(old->xpe.to_string());
    }
    node->parent = adoption;
    adoption->children.push_back(node);
    nodes_.emplace(merger.to_string(), std::move(owned));
    std::vector<Node*> kept;
    for (Node* child : adoption->children) {
      if (child != node && covers(merger, child->xpe)) {
        child->parent = node;
        node->children.push_back(child);
      } else {
        kept.push_back(child);
      }
    }
    adoption->children = std::move(kept);
    auto below = [&](const Node* target) {
      for (const Node* walk = target; walk; walk = walk->parent) {
        if (walk == node) return true;
      }
      return false;
    };
    for (auto it = node->super.begin(); it != node->super.end();) {
      if (below(*it)) {
        std::erase((*it)->super_sources, node);
        it = node->super.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool contains(const Xpe& xpe) const {
    return nodes_.count(xpe.to_string()) > 0;
  }

  /// SubscriptionTree::covered: some stored XPE other than `xpe` covers it.
  bool covered(const Xpe& xpe) const {
    for (const auto& [name, node] : nodes_) {
      if (!(node->xpe == xpe) && covers(node->xpe, xpe)) return true;
    }
    return false;
  }
  std::size_t size() const { return nodes_.size(); }

  /// Canonical dump: one line per node in pre-order, sibling order,
  /// indented by depth, with its super pointers both ways in order.
  std::string shape() const { return dump(root_.children); }

  /// The same dump of a SubscriptionTree.
  static std::string shape(const SubscriptionTree& tree) {
    std::vector<const SubscriptionTree::Node*> roots;
    for (const auto& child : tree.root()->children) {
      roots.push_back(child.get());
    }
    return dump(roots);
  }

 private:
  template <typename N>
  static std::string dump(const std::vector<N*>& roots) {
    std::string out;
    auto line = [&](auto&& self, const N* node, std::size_t depth) -> void {
      out.append(2 * depth, ' ');
      out += node->xpe.to_string();
      out += " super[";
      for (const N* t : node->super) out += t->xpe.to_string() + " ";
      out += "] sources[";
      for (const N* t : node->super_sources) out += t->xpe.to_string() + " ";
      out += "]\n";
      for (const auto& child : node->children) self(self, &*child, depth + 1);
    };
    for (const N* root : roots) line(line, root, 0);
    return out;
  }

  Node root_;
  std::uint64_t next_seq_ = 1;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
};

}  // namespace xroute::testing

#include "router/routing_tables.hpp"

#include <algorithm>

#include "match/adv_match.hpp"
#include "match/pub_match.hpp"
#include "util/symbols.hpp"

namespace xroute {

bool Srt::add(const Advertisement& adv, IfaceId hop) {
  auto it = by_adv_.find(adv);
  if (it != by_adv_.end()) {
    it->second->hops.insert(hop);
    return false;
  }
  auto entry = std::make_unique<Entry>();
  entry->advertisement = adv;
  entry->hops.insert(hop);
  by_adv_.emplace(adv, entry.get());
  entries_.push_back(std::move(entry));
  index_dirty_ = true;
  return true;
}

bool Srt::remove(const Advertisement& adv, IfaceId hop) {
  auto it = by_adv_.find(adv);
  if (it == by_adv_.end()) return false;
  Entry* entry = it->second;
  if (entry->hops.erase(hop) == 0) return false;
  if (entry->hops.empty()) {
    by_adv_.erase(it);
    entries_.erase(std::find_if(
        entries_.begin(), entries_.end(),
        [&](const std::unique_ptr<Entry>& e) { return e.get() == entry; }));
    index_dirty_ = true;
  }
  return true;
}

const Srt::Entry* Srt::find(const Advertisement& adv) const {
  auto it = by_adv_.find(adv);
  return it == by_adv_.end() ? nullptr : it->second;
}

bool Srt::entry_overlaps(const Entry& entry, const Xpe& xpe) const {
  ++comparisons_;
  if (entry.advertisement.non_recursive()) {
    return nonrec_adv_overlaps(entry.advertisement.flat_symbols(), xpe);
  }
  if (!entry.automaton) {
    // Lazily compile; Entry is owned by unique_ptr so the address is
    // stable and the cache is per-advertisement.
    const_cast<Entry&>(entry).automaton =
        std::make_unique<AdvAutomaton>(entry.advertisement);
  }
  return entry.automaton->overlaps(xpe);
}

void Srt::rebuild_index() const {
  by_symbol_.clear();
  wildcard_entries_.clear();
  for (const auto& entry : entries_) {
    const Advertisement& adv = entry->advertisement;
    if (adv.has_wildcard() || adv.symbol_alphabet().empty()) {
      wildcard_entries_.push_back(entry.get());
    } else {
      for (std::uint32_t sym : adv.symbol_alphabet()) {
        by_symbol_[sym].push_back(entry.get());
      }
    }
  }
  index_dirty_ = false;
}

IfaceSet Srt::hops_overlapping(const Xpe& xpe) const {
  if (index_dirty_) rebuild_index();
  // A wildcard-free advertisement only produces paths over its own
  // alphabet, and a path matching `xpe` must realise every concrete step
  // of `xpe`; so any such advertisement overlapping `xpe` lives in the
  // bucket of EACH concrete query symbol — testing the smallest bucket
  // suffices.
  static const std::vector<Entry*> kEmptyBucket;
  const std::vector<Entry*>* bucket = nullptr;
  bool has_concrete = false;
  for (std::uint32_t sym : xpe.symbols()) {
    if (sym == SymbolTable::kWildcardId) continue;
    has_concrete = true;
    auto it = by_symbol_.find(sym);
    if (it == by_symbol_.end()) {
      // No wildcard-free advertisement mentions this element at all.
      bucket = &kEmptyBucket;
      break;
    }
    if (!bucket || it->second.size() < bucket->size()) bucket = &it->second;
  }
  IfaceSet hops;
  auto consider = [&](const Entry& entry) {
    // Skip entries whose every hop is already selected.
    bool all_present = std::all_of(entry.hops.begin(), entry.hops.end(),
                                   [&](IfaceId h) { return hops.count(h) > 0; });
    if (all_present) return;
    if (entry_overlaps(entry, xpe)) {
      hops.insert(entry.hops.begin(), entry.hops.end());
    }
  };
  if (!has_concrete) {
    // All-wildcard query: no symbol discriminates, test everything.
    for (const auto& entry : entries_) consider(*entry);
    return hops;
  }
  for (const Entry* entry : wildcard_entries_) consider(*entry);
  for (const Entry* entry : *bucket) consider(*entry);
  return hops;
}

Prt::Prt(bool covering, bool track_covered)
    : covering_(covering), index_(std::make_shared<const PrtIndex>()) {
  if (covering_) {
    SubscriptionTree::Options opts;
    opts.track_covered = track_covered;
    tree_ = std::make_unique<SubscriptionTree>(opts);
  }
}

Prt::InsertOutcome Prt::insert(const Xpe& xpe, IfaceId hop) {
  InsertOutcome outcome;
  if (covering_) {
    auto result = tree_->insert(xpe, hop);
    outcome.was_new = result.was_new;
    outcome.covered = result.covered_by_existing;
    outcome.now_covered = std::move(result.now_covered);
    return outcome;
  }
  auto it = flat_index_.find(xpe);
  if (it != flat_index_.end()) {
    flat_[it->second].hops.insert(hop);
    note_flat_dirty(xpe);
    outcome.was_new = false;
    return outcome;
  }
  flat_index_.emplace(xpe, flat_.size());
  flat_.push_back(FlatEntry{xpe, {hop}});
  note_flat_dirty(xpe);
  outcome.was_new = true;
  return outcome;
}

bool Prt::remove(const Xpe& xpe, IfaceId hop) {
  if (covering_) return tree_->remove(xpe, hop);
  auto it = flat_index_.find(xpe);
  if (it == flat_index_.end()) return false;
  FlatEntry& entry = flat_[it->second];
  if (entry.hops.erase(hop) == 0) return false;
  note_flat_dirty(xpe);
  if (entry.hops.empty()) {
    // Swap-and-pop, fixing the displaced entry's index. The displaced
    // entry's bucket is not marked: its compiled order goes stale, but a
    // flat bucket is all leaves, so order moves neither hops nor counts.
    std::size_t pos = it->second;
    flat_index_.erase(it);
    if (pos + 1 != flat_.size()) {
      flat_[pos] = std::move(flat_.back());
      flat_index_[flat_[pos].xpe] = pos;
    }
    flat_.pop_back();
  }
  return true;
}

void Prt::note_flat_dirty(const Xpe& xpe) {
  if (flat_all_dirty_) return;
  flat_dirty_keys_.insert(SubscriptionTree::bucket_key(xpe));
}

void Prt::match(const Path& path, PrtMatch* out) const {
  index()->match(intern_path(path, match_symbols_), &match_distinct_, out);
  match_comparisons_ += out->comparisons;
}

IfaceSet Prt::match_hops(const Path& path) const {
  PrtMatch result;
  match(path, &result);
  return IfaceSet(result.hops.begin(), result.hops.end());
}

std::size_t Prt::size() const {
  return covering_ ? tree_->size() : flat_.size();
}

bool Prt::contains(const Xpe& xpe) const {
  if (covering_) return tree_->find(xpe) != nullptr;
  return flat_index_.find(xpe) != flat_index_.end();
}

std::vector<Xpe> Prt::all_xpes() const {
  std::vector<Xpe> out;
  if (covering_) {
    out.reserve(tree_->size());
    tree_->for_each(
        [&](const SubscriptionTree::Node& node) { out.push_back(node.xpe); });
  } else {
    out.reserve(flat_.size());
    for (const FlatEntry& entry : flat_) out.push_back(entry.xpe);
  }
  return out;
}

std::vector<std::pair<Xpe, IfaceSet>> Prt::entries_with_hops() const {
  std::vector<std::pair<Xpe, IfaceSet>> out;
  if (covering_) {
    tree_->for_each([&](const SubscriptionTree::Node& node) {
      out.emplace_back(node.xpe, node.hops);
    });
  } else {
    for (const FlatEntry& entry : flat_) out.emplace_back(entry.xpe, entry.hops);
  }
  return out;
}

std::vector<Xpe> Prt::top_level_xpes() const {
  if (!covering_) return all_xpes();
  std::vector<Xpe> out;
  for (const auto& node : tree_->root()->children) {
    if (node->super_sources.empty()) out.push_back(node->xpe);
  }
  return out;
}

std::size_t Prt::comparisons() const {
  return (covering_ ? tree_->comparisons() : 0) + match_comparisons_;
}

bool Prt::index_dirty() const {
  return index_all_dirty() || !index_dirty_keys().empty();
}

bool Prt::index_all_dirty() const {
  return covering_ ? tree_->index_all_dirty() : flat_all_dirty_;
}

const std::set<std::uint32_t>& Prt::index_dirty_keys() const {
  return covering_ ? tree_->index_dirty_keys() : flat_dirty_keys_;
}

void Prt::clear_index_dirty() const {
  if (covering_) {
    tree_->clear_index_dirty();
  } else {
    flat_dirty_keys_.clear();
    flat_all_dirty_ = false;
  }
}

void Prt::compile_bucket(std::uint32_t key, PrtBucket* out) const {
  if (covering_) {
    tree_->compile_bucket(key, out);
    return;
  }
  // Flat entries compile to leaf-only streams (zero skips, one entry
  // each) in position order.
  for (const FlatEntry& entry : flat_) {
    if (SubscriptionTree::bucket_key(entry.xpe) != key) continue;
    const std::vector<std::uint32_t>& prog = entry.xpe.program();
    out->words.push_back(static_cast<std::uint32_t>(prog.size()));
    out->words.push_back(0);  // skip_words: leaves have no subtree
    out->words.push_back(0);  // skip_entries
    out->words.insert(out->words.end(), prog.begin(), prog.end());
    PrtBucket::Entry se;
    // Plain shared_ptr for a detached control block — see the tree-path
    // equivalent in subscription_tree.cpp.
    if (!entry.shared_xpe) {
      entry.shared_xpe = std::shared_ptr<const Xpe>(new Xpe(entry.xpe));
    }
    se.xpe = entry.shared_xpe;
    se.hop_begin = static_cast<std::uint32_t>(out->hops.size());
    out->hops.insert(out->hops.end(), entry.hops.begin(), entry.hops.end());
    se.hop_end = static_cast<std::uint32_t>(out->hops.size());
    out->entries.push_back(std::move(se));
  }
}

std::vector<std::uint32_t> Prt::bucket_keys() const {
  if (covering_) return tree_->bucket_keys();
  std::set<std::uint32_t> keys;
  for (const FlatEntry& entry : flat_) {
    const std::uint32_t key = SubscriptionTree::bucket_key(entry.xpe);
    if (key != SymbolTable::kNoSymbol) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

const std::shared_ptr<const PrtIndex>& Prt::index() const {
  if (!index_dirty()) return index_;
  ++index_stats_.builds;
  auto next = std::make_shared<PrtIndex>();

  if (index_all_dirty()) {
    for (std::uint32_t key : bucket_keys()) {
      auto bucket = std::make_shared<PrtBucket>();
      compile_bucket(key, bucket.get());
      ++index_stats_.buckets_rebuilt;
      if (!bucket->empty()) next->buckets_.emplace(key, std::move(bucket));
    }
    auto side = std::make_shared<PrtBucket>();
    compile_bucket(SymbolTable::kNoSymbol, side.get());
    ++index_stats_.buckets_rebuilt;
    next->side_ = std::move(side);
  } else {
    // Structural sharing: start from the previous spine (shared_ptr
    // copies, no payload copies) and recompile only the dirty keys.
    next->buckets_ = index_->buckets_;
    next->side_ = index_->side_;
    // Unchanged-content reuse: dirty tracking may overshoot (it marks
    // whole buckets for hop-only edits and for mutations that net out
    // before the next match), so a recompile frequently reproduces the
    // previous bucket exactly. Recompiles therefore land in the
    // persistent scratch bucket (same warm allocation every refresh) and
    // are cloned out only on a content change: matchers keep memory that
    // is already in cache instead of faulting in a fresh copy per
    // control op, which is what makes match cost churn-independent.
    bool bucket_changed = false;
    const std::set<std::uint32_t>& dirty = index_dirty_keys();
    for (std::uint32_t key : dirty) {
      scratch_.clear();
      compile_bucket(key, &scratch_);
      ++index_stats_.buckets_rebuilt;
      if (key == SymbolTable::kNoSymbol) {
        if (scratch_ == *index_->side_) {
          ++index_stats_.buckets_unchanged;
        } else {
          next->side_ = std::make_shared<PrtBucket>(scratch_);
          bucket_changed = true;
        }
        continue;
      }
      if (scratch_.empty()) {
        bucket_changed |= next->buckets_.erase(key) > 0;
        continue;
      }
      auto it = index_->buckets_.find(key);
      if (it != index_->buckets_.end() && scratch_ == *it->second) {
        ++index_stats_.buckets_unchanged;
      } else {
        next->buckets_[key] = std::make_shared<PrtBucket>(scratch_);
        bucket_changed = true;
      }
    }
    if (!bucket_changed) {
      // Every dirty key recompiled to its previous content: the control
      // ops since the last refresh netted out (e.g. a subscribe whose
      // unsubscribe came first). Keep the previous index — a fresh map
      // would only evict the one matchers already have warm, and pointer
      // equality tells the parallel engine there is nothing to publish.
      ++index_stats_.builds_elided;
      clear_index_dirty();
      return index_;
    }
    index_stats_.buckets_shared += next->buckets_.size() > dirty.size()
                                       ? next->buckets_.size() - dirty.size()
                                       : 0;
  }
  index_ = std::move(next);
  clear_index_dirty();
  return index_;
}

PrtIndex::PrtIndex() : side_(std::make_shared<const PrtBucket>()) {}

void PrtIndex::scan_bucket(const PrtBucket& bucket, const PathView& ip,
                           PrtMatch* out) {
  // One comparison per reached entry; failed subtrees are skipped
  // wholesale via the backpatched offsets.
  const std::uint32_t* w = bucket.words.data();
  const std::uint32_t* const end = w + bucket.words.size();
  std::size_t k = 0;
  while (w != end) {
    const std::uint32_t n = *w++;
    const std::uint32_t skip_words = *w++;
    const std::uint32_t skip_entries = *w++;
    const PrtBucket::Entry& entry = bucket.entries[k++];
    ++out->comparisons;
    if (matches_program(ip, w, n, *entry.xpe)) {
      const auto first = bucket.hops.begin() + entry.hop_begin;
      const auto last = bucket.hops.begin() + entry.hop_end;
      if (!entry.absorbed) {
        out->hops.insert(out->hops.end(), first, last);
      } else {
        // A merger match that no merged original backs is an in-network
        // false positive introduced by imperfect merging (paper Fig. 9).
        const auto& originals = *entry.merged_from;
        if (std::none_of(originals.begin(), originals.end(),
                         [&](const Xpe& x) { return matches(*ip.path, x); })) {
          ++out->merger_false_matches;
        }
        // Edge exactness: a hop is exact through a merger only for what
        // the merger absorbed from that hop.
        for (auto hop = first; hop != last; ++hop) {
          const bool exact = std::any_of(
              entry.absorbed->begin(), entry.absorbed->end(),
              [&](const auto& pair) {
                return pair.first == *hop && matches(*ip.path, pair.second);
              });
          (exact ? out->hops : out->inexact_hops).push_back(*hop);
        }
      }
      w += n;
    } else {
      // The entry covers its whole subtree: nothing below can match.
      w += n + skip_words;
      k += skip_entries;
    }
  }
}

void PrtIndex::scan(const PathView& ip,
                    std::span<const std::uint32_t> distinct_symbols,
                    PrtMatch* out) const {
  scan_bucket(*side_, ip, out);
  for (std::uint32_t sym : distinct_symbols) {
    auto it = buckets_.find(sym);
    if (it == buckets_.end()) continue;
    scan_bucket(*it->second, ip, out);
  }
}

void PrtIndex::match(const PathView& ip, std::vector<std::uint32_t>* distinct,
                     PrtMatch* out) const {
  distinct_symbols(ip, distinct);
  out->clear();
  scan(ip, *distinct, out);
  canonicalize_hops(&out->hops);
  if (out->inexact_hops.empty()) return;
  // A hop some entry reached exactly is exact; the rest join `hops`.
  std::vector<IfaceId>& exact = out->hops;
  std::vector<IfaceId>& inexact = out->inexact_hops;
  canonicalize_hops(&inexact);
  std::erase_if(inexact, [&](IfaceId hop) {
    return std::binary_search(exact.begin(), exact.end(), hop);
  });
  exact.insert(exact.end(), inexact.begin(), inexact.end());
  canonicalize_hops(&exact);
}

void PrtIndex::distinct_symbols(const PathView& ip,
                                std::vector<std::uint32_t>* out) {
  out->clear();
  for (std::size_t i = 0; i < ip.size(); ++i) {
    const std::uint32_t sym = ip[i];
    if (sym == SymbolTable::kNoSymbol) continue;  // element never interned
    if (std::find(out->begin(), out->end(), sym) == out->end()) {
      out->push_back(sym);
    }
  }
}

}  // namespace xroute

#include "router/broker.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "match/pub_match.hpp"
#include "router/match_scheduler.hpp"
#include "router/snapshot.hpp"

namespace xroute {

namespace {

/// Accrues the scope's wall-clock time into `*sink_ms`; inert (no clock
/// reads) when the sink is null. Instrumented regions are leaves — a
/// StageTimer scope never contains another — so stage times stay disjoint.
class StageTimer {
 public:
  explicit StageTimer(double* sink_ms) : sink_ms_(sink_ms) {
    if (sink_ms_) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (sink_ms_) {
      *sink_ms_ += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  double* sink_ms_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Broker::Broker(int id, Config config)
    : id_(id),
      config_(config),
      prt_(config.use_covering, config.track_covered) {
  if (std::string problem = config_.validate(); !problem.empty()) {
    throw std::invalid_argument("broker " + std::to_string(id) + ": " +
                                problem);
  }
  if (config_.match_threads > 1) {
    scheduler_ = std::make_unique<MatchScheduler>(MatchScheduler::Options{
        config_.match_threads, config_.effective_shards()});
  }
}

Broker::~Broker() = default;

Broker::Broker(Broker&& other)
    : id_(other.id_),
      config_(std::move(other.config_)),
      neighbors_(std::move(other.neighbors_)),
      clients_(std::move(other.clients_)),
      srt_(std::move(other.srt_)),
      prt_(std::move(other.prt_)),
      client_subs_(std::move(other.client_subs_)),
      forwarded_to_(std::move(other.forwarded_to_)),
      new_subs_since_merge_(other.new_subs_since_merge_),
      merges_applied_(other.merges_applied_),
      pending_syncs_(other.pending_syncs_),
      seen_publications_(std::move(other.seen_publications_)) {
  // The old worker pool (and its possibly in-flight pin) belongs to the
  // moved-from broker; tear it down and start a fresh pool and a fresh
  // snapshot store here.
  other.scheduler_.reset();
  if (config_.match_threads > 1) {
    scheduler_ = std::make_unique<MatchScheduler>(MatchScheduler::Options{
        config_.match_threads, config_.effective_shards()});
  }
  // This object's store starts empty: publish on the first refresh.
  edge_dirty_ = true;
}

void Broker::add_neighbor(IfaceId interface_id) {
  neighbors_.insert(interface_id);
}

void Broker::add_client(IfaceId interface_id) {
  clients_.insert(interface_id);
  edge_dirty_ = true;
}

void Broker::refresh_snapshot() {
  if (!scheduler_ || defer_refresh_) return;
  auto prev = snapshots_.current();
  // index() keeps the previous index itself when nothing is dirty or the
  // dirty buckets recompiled to identical content (control ops netted
  // out): with the edge state clean too, there is nothing to publish.
  const std::shared_ptr<const PrtIndex>& index = prt_.index();
  if (index == prev->index() && !edge_dirty_) return;
  auto edge = edge_dirty_ ? std::make_shared<const RoutingSnapshot::Edge>(
                                RoutingSnapshot::Edge{clients_, client_subs_})
                          : prev->edge();
  snapshots_.publish(std::make_shared<const RoutingSnapshot>(
      prev->version() + 1, index, std::move(edge), snapshots_.gauge()));
  edge_dirty_ = false;
}

void Broker::drop_interface(IfaceId interface_id, ForwardSink& sink) {
  // Route handback rides the ordinary withdrawal handlers, exactly as if
  // the departing peer had sent the unsubscribes/unadvertises itself:
  // covering re-issues orphaned children, unadvertise floods the
  // withdrawal, and neither ever forwards back toward `interface_id`.
  std::vector<Xpe> held;
  for (const auto& [xpe, hops] : prt_.entries_with_hops()) {
    if (hops.count(interface_id)) held.push_back(xpe);
  }
  HandleStatus ignored;
  for (const Xpe& xpe : held) {
    handle_unsubscribe(interface_id, UnsubscribeMsg{xpe}, sink, &ignored);
  }
  std::vector<Advertisement> advertised;
  for (const auto& entry : srt_.entries()) {
    if (entry->hops.count(interface_id)) {
      advertised.push_back(entry->advertisement);
    }
  }
  for (const Advertisement& adv : advertised) {
    handle_unadvertise(interface_id, UnadvertiseMsg{adv, /*origin=*/-1},
                       sink, &ignored);
  }
  neighbors_.erase(interface_id);
  clients_.erase(interface_id);
  client_subs_.erase(interface_id);
  edge_dirty_ = true;
  // Forwarding records may still name the interface (subscriptions we had
  // sent *to* the peer); scrub it so later unsubscriptions do not chase a
  // dead edge.
  for (auto it = forwarded_to_.begin(); it != forwarded_to_.end();) {
    it->second.erase(interface_id);
    it = it->second.empty() ? forwarded_to_.erase(it) : std::next(it);
  }
  refresh_snapshot();
}

const std::vector<Xpe>* Broker::client_subscriptions(
    IfaceId interface_id) const {
  auto it = client_subs_.find(interface_id);
  return it == client_subs_.end() ? nullptr : &it->second;
}

void Broker::restore_advertisement(const Advertisement& adv,
                                   const IfaceSet& hops) {
  for (IfaceId hop : hops) srt_.add(adv, hop);
}

void Broker::restore_subscription(const Xpe& xpe, const IfaceSet& hops) {
  for (IfaceId hop : hops) prt_.insert(xpe, hop);
}

void Broker::restore_merger(const Xpe& merger,
                            const std::vector<Xpe>& originals) {
  if (!prt_.covering()) return;
  if (SubscriptionTree::Node* node = prt_.tree()->find(merger)) {
    node->merger = true;
    node->merged_from = originals;
    node->shared_merged_from.reset();
    // Direct node surgery bypasses the tree's dirty tracking.
    prt_.mark_index_dirty();
  }
}

void Broker::restore_client_table(IfaceId interface_id,
                                  std::vector<Xpe> xpes) {
  client_subs_[interface_id] = std::move(xpes);
  edge_dirty_ = true;
}

void Broker::restore_forwarding(const Xpe& xpe, IfaceSet interfaces) {
  forwarded_to_[xpe] = std::move(interfaces);
}

void Broker::restore_forwarding_add(const Xpe& xpe, IfaceId interface_id) {
  forwarded_to_[xpe].insert(interface_id);
}

Broker::HandleStatus Broker::handle(IfaceId from_interface, const Message& msg,
                                    ForwardSink& sink, StageTimings* stages) {
  if (stages && scheduler_) {
    // Stage regions are scoped to the calling thread; with the pool active
    // the match stage runs on workers and the numbers would be garbage.
    throw std::logic_error(
        "stage timings are incompatible with match_threads > 1");
  }
  stages_ = stages;
  HandleStatus out;
  switch (msg.type()) {
    case MessageType::kAdvertise:
      handle_advertise(from_interface, std::get<AdvertiseMsg>(msg.payload),
                       sink, &out);
      break;
    case MessageType::kSubscribe:
      handle_subscribe(from_interface, std::get<SubscribeMsg>(msg.payload),
                       sink, &out);
      break;
    case MessageType::kUnsubscribe:
      handle_unsubscribe(from_interface,
                         std::get<UnsubscribeMsg>(msg.payload), sink, &out);
      break;
    case MessageType::kPublish:
      handle_publish(from_interface, msg, {}, sink, &out);
      break;
    case MessageType::kUnadvertise:
      handle_unadvertise(from_interface,
                         std::get<UnadvertiseMsg>(msg.payload), sink, &out);
      break;
    case MessageType::kSyncRequest:
      handle_sync_request(from_interface, sink);
      break;
    case MessageType::kSyncState:
      handle_sync_state(from_interface, std::get<SyncStateMsg>(msg.payload),
                        &out);
      break;
  }
  // Control messages mutated the live tables above; publish the next
  // snapshot now, *without* waiting for any in-flight match epoch — the
  // epoch keeps its pinned version, future epochs see this one. (No-op
  // for publish messages: matching already refreshed, and matching
  // itself dirties nothing.)
  refresh_snapshot();
  stages_ = nullptr;
  return out;
}

Broker::HandleResult Broker::handle(IfaceId from_interface, const Message& msg,
                                    StageTimings* stages) {
  HandleResult result;
  CollectingSink sink(&result.forwards);
  static_cast<HandleStatus&>(result) = handle(from_interface, msg, sink,
                                              stages);
  return result;
}

Broker::HandleStatus Broker::handle_batch(std::span<const Inbound> batch,
                                          ForwardSink& sink) {
  HandleStatus total;
  std::size_t i = 0;
  while (i < batch.size()) {
    if (batch[i].msg->type() != MessageType::kPublish) {
      total += handle(batch[i].from, *batch[i].msg, sink);
      ++i;
      continue;
    }
    if (!scheduler_) {
      HandleStatus out;
      handle_publish(batch[i].from, *batch[i].msg, batch[i].frame, sink,
                     &out);
      total += out;
      ++i;
      continue;
    }
    // A run of consecutive publications: one scheduler epoch for the
    // whole run, matched against the snapshot pinned here. While the
    // workers match, this thread processes the control messages that
    // follow the run — their table mutations cannot affect the pinned
    // snapshot, and their outgoing messages are buffered and replayed
    // after the run's forwards, so the sink sees exactly the sequential
    // emission order.
    std::size_t end = i;
    while (end < batch.size() &&
           batch[end].msg->type() == MessageType::kPublish) {
      ++end;
    }
    batch_pubs_.clear();
    batch_envelopes_.clear();
    batch_froms_.clear();
    batch_frames_.clear();
    batch_paths_.clear();
    batch_pubs_.reserve(end - i);
    for (std::size_t j = i; j < end; ++j) {
      const auto& pub = std::get<PublishMsg>(batch[j].msg->payload);
      // Duplicate suppression runs sequentially up front, exactly as the
      // per-message path would: later copies in the same batch are dropped
      // before any matching happens.
      if (!seen_publications_.insert(pub.doc_id, pub.path_id)) {
        continue;
      }
      batch_pubs_.push_back(&pub);
      batch_envelopes_.push_back(batch[j].msg);
      batch_froms_.push_back(batch[j].from);
      batch_frames_.push_back(batch[j].frame);
      batch_paths_.push_back(&pub.path);
    }
    if (batch_paths_.empty()) {
      i = end;
      continue;
    }
    refresh_snapshot();
    std::shared_ptr<const RoutingSnapshot> pinned = snapshots_.current();
    scheduler_->begin_batch(batch_paths_, pinned);
    // The pipelined control window: handle the control messages that
    // follow the publication run while the epoch is still in flight.
    // Each one completes — tables mutated, outgoing control traffic
    // emitted — without waiting for the workers (the no-quiesce-barrier
    // property). Snapshot publication is coalesced across the window
    // (defer_refresh_): no epoch can pin between these ops, so one
    // publish at the next pin covers them all, and ops that net out
    // inside the window (subscribe + unsubscribe of the same XPE) never
    // cost a bucket recompile at all.
    std::size_t next = end;
    window_sink_.clear();
    defer_refresh_ = true;
    while (next < batch.size() &&
           batch[next].msg->type() != MessageType::kPublish) {
      total += handle(batch[next].from, *batch[next].msg, window_sink_);
      ++next;
    }
    defer_refresh_ = false;
    scheduler_->finish_batch(&batch_results_);
    std::size_t comparisons = 0;
    for (std::size_t k = 0; k < batch_pubs_.size(); ++k) {
      HandleStatus out;
      out.publication_matched = !batch_results_[k].hops.empty();
      out.merger_false_matches = batch_results_[k].merger_false_matches;
      comparisons += batch_results_[k].comparisons;
      // Forward against the pinned view: the window's control ops may
      // already have changed the live edge state, but these publications
      // were matched before them.
      forward_publication(batch_froms_[k], *batch_envelopes_[k],
                          *batch_pubs_[k], batch_results_[k].hops,
                          batch_frames_[k], pinned.get(), sink, &out);
      total += out;
    }
    prt_.add_comparisons(comparisons);
    window_sink_.replay(sink);
    i = next;
  }
  return total;
}

void Broker::handle_advertise(IfaceId from, const AdvertiseMsg& msg,
                              ForwardSink& sink, HandleStatus* out) {
  (void)out;
  bool is_new;
  {
    StageTimer srt_timer(stages_ ? &stages_->srt_check_ms : nullptr);
    is_new = srt_.add(msg.advertisement, from);
  }
  if (!is_new) return;

  // Flood the advertisement to every other neighbour (paper §2.1:
  // "advertisements are flooded in the publish/subscribe overlay").
  {
    StageTimer forward_timer(stages_ ? &stages_->forward_ms : nullptr);
    for (IfaceId neighbor : neighbors_) {
      if (neighbor != from) {
        sink.on_forward(neighbor,
                        Message::advertise(msg.advertisement,
                                           msg.origin_broker));
      }
    }
  }

  // Route existing (top-level, uncovered) subscriptions toward the new
  // advertisement: publishers may connect after subscribers did. Only
  // relevant under advertisement-based routing and only over broker links
  // (an advertisement from a local publisher terminates here — this broker
  // is the root of its advertisement tree).
  if (!config_.use_advertisements || neighbors_.count(from) == 0) return;

  StageTimer srt_timer(stages_ ? &stages_->srt_check_ms : nullptr);
  const Srt::Entry* entry = srt_.find(msg.advertisement);
  if (!entry) return;

  for (const Xpe& xpe : prt_.top_level_xpes()) {
    if (!srt_.entry_overlaps(*entry, xpe)) continue;
    IfaceSet& sent = forwarded_to_[xpe];
    if (sent.insert(from).second) {
      sink.on_forward(from, Message::subscribe(xpe));
    }
  }
}

void Broker::handle_unadvertise(IfaceId from, const UnadvertiseMsg& msg,
                                ForwardSink& sink, HandleStatus* out) {
  (void)out;
  // Withdraw the advertisement for this hop; once no hop holds it the
  // withdrawal floods on, mirroring the advertisement flood. Forwarded
  // subscriptions are left in place: they become stale routing state, not
  // incorrect behaviour (publications simply stop flowing from there).
  if (!srt_.remove(msg.advertisement, from)) return;
  if (srt_.contains(msg.advertisement)) return;
  for (IfaceId neighbor : neighbors_) {
    if (neighbor != from) {
      sink.on_forward(neighbor, Message::unadvertise(msg.advertisement,
                                                     msg.origin_broker));
    }
  }
}

IfaceSet Broker::subscription_targets(const Xpe& xpe, IfaceId exclude) const {
  StageTimer srt_timer(stages_ ? &stages_->srt_check_ms : nullptr);
  IfaceSet targets;
  if (config_.use_advertisements) {
    for (IfaceId hop : srt_.hops_overlapping(xpe)) {
      // Only broker links: a hop can be a publisher client's interface
      // (the advertisement entered here); matching then happens locally.
      if (neighbors_.count(hop) && hop != exclude) targets.insert(hop);
    }
  } else {
    for (IfaceId neighbor : neighbors_) {
      if (neighbor != exclude) targets.insert(neighbor);
    }
  }
  return targets;
}

IfaceSet Broker::coverage_interfaces(const Xpe& xpe) const {
  IfaceSet out;
  if (!prt_.covering()) return out;
  const SubscriptionTree::Node* node = prt_.tree()->find(xpe);
  if (!node) return out;
  auto add_chain = [&](const SubscriptionTree::Node* start) {
    // Walk a coverer chain toward the root (every ancestor covers xpe by
    // transitivity); union the interfaces each coverer was forwarded to.
    for (const SubscriptionTree::Node* walk = start; walk && walk->parent;
         walk = walk->parent) {
      auto it = forwarded_to_.find(walk->xpe);
      if (it != forwarded_to_.end()) {
        out.insert(it->second.begin(), it->second.end());
      }
    }
  };
  add_chain(node->parent);
  for (const SubscriptionTree::Node* source : node->super_sources) {
    add_chain(source);
  }
  return out;
}

void Broker::forward_subscription(const Xpe& xpe, IfaceId exclude,
                                  ForwardSink& sink) {
  IfaceSet& sent = forwarded_to_[xpe];
  IfaceSet covered_on;
  if (config_.use_covering) covered_on = coverage_interfaces(xpe);
  // Every target is a neighbour other than `exclude`. When each of those
  // already has a coverer's route or this XPE, nothing can be sent: skip
  // the SRT overlap test. Covered subscribes and most orphan re-forwards
  // end here.
  const bool nothing_to_send =
      std::all_of(neighbors_.begin(), neighbors_.end(), [&](IfaceId n) {
        return n == exclude || covered_on.count(n) || sent.count(n);
      });
  if (nothing_to_send) {
    if (sent.empty()) forwarded_to_.erase(xpe);
    return;
  }
  IfaceSet targets = subscription_targets(xpe, exclude);
  StageTimer forward_timer(stages_ ? &stages_->forward_ms : nullptr);
  for (IfaceId target : targets) {
    if (covered_on.count(target)) continue;  // a coverer routes this way
    if (sent.insert(target).second) {
      sink.on_forward(target, Message::subscribe(xpe));
    }
  }
  if (sent.empty()) forwarded_to_.erase(xpe);
}

void Broker::unsubscribe_covered(const Xpe& covered, const IfaceSet& via,
                                 ForwardSink& sink) {
  StageTimer forward_timer(stages_ ? &stages_->forward_ms : nullptr);
  auto it = forwarded_to_.find(covered);
  if (it == forwarded_to_.end()) return;
  for (IfaceId target : via) {
    if (it->second.erase(target) > 0) {
      sink.on_forward(target, Message::unsubscribe(covered));
    }
  }
  if (it->second.empty()) forwarded_to_.erase(it);
}

void Broker::forward_unsubscription(const Xpe& xpe, IfaceId exclude,
                                    ForwardSink& sink) {
  StageTimer forward_timer(stages_ ? &stages_->forward_ms : nullptr);
  auto it = forwarded_to_.find(xpe);
  if (it == forwarded_to_.end()) return;
  for (IfaceId target : it->second) {
    if (target != exclude) {
      sink.on_forward(target, Message::unsubscribe(xpe));
    }
  }
  forwarded_to_.erase(it);
}

void Broker::handle_subscribe(IfaceId from, const SubscribeMsg& msg,
                              ForwardSink& sink, HandleStatus* out) {
  (void)out;
  if (clients_.count(from)) {
    client_subs_[from].push_back(msg.xpe);
    edge_dirty_ = true;
  }
  Prt::InsertOutcome outcome = [&] {
    StageTimer match_timer(stages_ ? &stages_->prt_match_ms : nullptr);
    return prt_.insert(msg.xpe, from);
  }();
  if (outcome.was_new) ++new_subs_since_merge_;

  if (!outcome.was_new) {
    // The same XPE held from another interface already forwarded almost
    // everywhere — except toward its own earlier arrival interfaces,
    // which until now had no reason to route publications our way. The
    // new holder changes that: re-run the forwarding decision, which
    // reaches exactly the interfaces not yet sent to (typically the
    // first arrival's) and nothing else. Without this, two identical
    // subscriptions on opposite sides of the overlay starve each other.
    forward_subscription(msg.xpe, from, sink);
    return;
  }

  if (outcome.was_new) {
    // Per-interface covering decision happens inside forward_subscription:
    // the newcomer goes wherever no coverer already provides a route.
    forward_subscription(msg.xpe, from, sink);
    // Withdraw the subscriptions the newcomer covers (paper §4.1) — but
    // only on interfaces the newcomer itself was forwarded to. On any
    // other interface (in particular the one it arrived from) the
    // newcomer provides no route, so the covered subscription must stay.
    if (config_.use_covering && !outcome.now_covered.empty()) {
      auto it = forwarded_to_.find(msg.xpe);
      if (it != forwarded_to_.end()) {
        for (const Xpe& covered : outcome.now_covered) {
          unsubscribe_covered(covered, it->second, sink);
        }
      }
    }
  }

  if (config_.merging_enabled && prt_.covering() &&
      config_.merge_interval > 0 &&
      new_subs_since_merge_ >= config_.merge_interval) {
    run_merge_pass(sink);
    new_subs_since_merge_ = 0;
  }
}

void Broker::handle_unsubscribe(IfaceId from, const UnsubscribeMsg& msg,
                                ForwardSink& sink, HandleStatus* out) {
  (void)out;
  if (clients_.count(from)) {
    auto it = client_subs_.find(from);
    if (it != client_subs_.end()) {
      auto& subs = it->second;
      auto pos = std::find(subs.begin(), subs.end(), msg.xpe);
      if (pos != subs.end()) {
        subs.erase(pos);
        edge_dirty_ = true;
      }
    }
  }

  // Subscriptions the departing one covered (tree children and super
  // targets) may have been absorbed on its account: re-issue them after
  // removal (forward_subscription skips interfaces where another coverer
  // still provides the route).
  std::vector<Xpe> orphaned;
  if (prt_.covering()) {
    if (const SubscriptionTree::Node* node = prt_.tree()->find(msg.xpe)) {
      if (node->hops.size() == 1 && node->hops.count(from)) {
        for (const auto& child : node->children) {
          orphaned.push_back(child->xpe);
        }
        for (const SubscriptionTree::Node* target : node->super) {
          orphaned.push_back(target->xpe);
        }
      }
    }
  }

  bool removed;
  {
    StageTimer match_timer(stages_ ? &stages_->prt_match_ms : nullptr);
    removed = prt_.remove(msg.xpe, from);
  }
  if (!removed) return;
  if (prt_.contains(msg.xpe)) return;  // other hops still hold it
  forward_unsubscription(msg.xpe, from, sink);

  for (const Xpe& xpe : orphaned) {
    forward_subscription(xpe, kNoIface, sink);
  }
}

std::vector<IfaceId> Broker::match_publication(const PublishMsg& msg,
                                               HandleStatus* out) {
  if (scheduler_) {
    // Match against the current snapshot (published here if any control
    // op changed the index or the edge state since the last publish).
    refresh_snapshot();
    MatchScheduler::MatchResult result =
        scheduler_->match_one(msg.path, snapshots_.current());
    out->merger_false_matches += result.merger_false_matches;
    prt_.add_comparisons(result.comparisons);
    return std::move(result.hops);
  }
  // Inline on this thread: the same compiled index and kernel, refreshed
  // here if control ops dirtied buckets since the last match.
  StageTimer match_timer(stages_ ? &stages_->prt_match_ms : nullptr);
  Prt::ShardMatch result;
  prt_.match(msg.path, &result);
  out->merger_false_matches += result.merger_false_matches;
  return std::move(result.hops);
}

void Broker::forward_publication(IfaceId from, const Message& envelope,
                                 const PublishMsg& msg,
                                 std::span<const IfaceId> hops,
                                 std::span<const std::uint8_t> frame,
                                 const RoutingSnapshot* view,
                                 ForwardSink& sink, HandleStatus* out) {
  // The hop list is sorted and deduplicated: several matching
  // subscriptions sharing a next hop yield one forwarded copy, and the
  // ascending order is the determinism anchor for the parallel engine.
  // Edge-exactness checks against the clients' original XPEs count as
  // forwarding work (stage attribution).
  StageTimer forward_timer(stages_ ? &stages_->forward_ms : nullptr);
  if (hops.empty() || (hops.size() == 1 && hops.front() == from)) return;
  // The caller's envelope is shared by every hop — no per-publication
  // Message copy; sinks that need ownership copy at the edge, and the
  // transport resends `frame` without touching the Message at all.
  for (IfaceId hop : hops) {
    if (hop == from) continue;
    const bool hop_is_client =
        view ? view->is_client(hop) : clients_.count(hop) > 0;
    if (hop_is_client) {
      // Edge exactness: deliver only if one of the client's original XPEs
      // matches; merged-entry surplus is a network-internal false positive
      // and is suppressed here (paper §4.3: "The false positives are not
      // delivered to subscribers").
      const std::vector<Xpe>* originals =
          view ? view->client_subscriptions(hop) : client_subscriptions(hop);
      bool exact = false;
      if (originals) {
        for (const Xpe& original : *originals) {
          if (matches(msg.path, original)) {
            exact = true;
            break;
          }
        }
      }
      if (exact) {
        sink.on_local_delivery_pub(hop, envelope, frame);
        ++out->deliveries;
      } else {
        // Count-only: no Message copy, no Message reference at all — the
        // suppression event names the client and nothing else.
        sink.on_suppressed(hop);
        ++out->suppressed_false_positives;
      }
    } else {
      sink.on_forward_pub(hop, envelope, frame);
    }
  }
}

void Broker::handle_publish(IfaceId from, const Message& envelope,
                            std::span<const std::uint8_t> frame,
                            ForwardSink& sink, HandleStatus* out) {
  const auto& msg = std::get<PublishMsg>(envelope.payload);
  // Duplicate suppression: on overlays with cycles the same publication
  // can arrive over several paths; processing it once keeps routing loop-
  // free and deliveries exact.
  if (!seen_publications_.insert(msg.doc_id, msg.path_id)) return;

  std::vector<IfaceId> hops = match_publication(msg, out);
  out->publication_matched = !hops.empty();
  // No view: nothing ran between match and forward, the live edge state
  // is the matched-against state.
  forward_publication(from, envelope, msg, hops, frame, nullptr, sink, out);
}

void Broker::handle_sync_request(IfaceId from, ForwardSink& sink) {
  // A neighbour restarted cold: replay the slice of our state that
  // concerns the shared link. Restoration on the other side is passive, so
  // the transfer is bounded by this link's state — no network-wide storm.
  sink.on_forward(from,
                  Message::sync_state(export_link_state(*this, from)));
}

void Broker::handle_sync_state(IfaceId from, const SyncStateMsg& msg,
                               HandleStatus* out) {
  import_link_state(*this, from, msg.state);
  if (pending_syncs_ > 0 && --pending_syncs_ == 0) {
    out->resync_completed = true;
  }
}

void Broker::run_merge_pass(ForwardSink& sink) {
  MergeEngine engine(config_.merge_universe, config_.merge_options);
  MergeReport report = [&] {
    StageTimer merge_timer(stages_ ? &stages_->merge_ms : nullptr);
    return engine.run(*prt_.tree());
  }();
  merges_applied_ += report.merges.size();
  for (const MergeRecord& record : report.merges) {
    // Subscribe the merger upstream first so no delivery gap opens, then
    // withdraw the originals — only where the merger provides coverage.
    forward_subscription(record.merger, kNoIface, sink);
    const IfaceSet& coverage = forwarded_to_[record.merger];
    for (const Xpe& original : record.originals) {
      unsubscribe_covered(original, coverage, sink);
    }
  }
}

}  // namespace xroute

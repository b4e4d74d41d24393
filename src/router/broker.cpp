#include "router/broker.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

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

/// The broker's one way into a sink: every decision is one DeliveryEvent.
/// A suppression is count-only: its event carries no message.
void emit(ForwardSink& sink, IfaceId iface, const Message& msg,
          std::span<const std::uint8_t> frame = {},
          DeliveryEvent::Kind kind = DeliveryEvent::Kind::kForward) {
  const bool suppressed = kind == DeliveryEvent::Kind::kSuppressed;
  sink.on_event(
      DeliveryEvent{kind, iface, suppressed ? nullptr : &msg, frame});
}

}  // namespace

Broker::Broker(int id, BrokerOptions config)
    : id_(id),
      config_(config),
      prt_(config.use_covering, config.track_covered) {
  if (std::string problem = config_.validate(); !problem.empty()) {
    throw std::invalid_argument("broker " + std::to_string(id) + ": " +
                                problem);
  }
  if (config_.match_threads > 1) {
    scheduler_ = std::make_unique<MatchScheduler>(config_.match_threads);
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
      forwarded_to_(std::move(other.forwarded_to_)),
      new_subs_since_merge_(other.new_subs_since_merge_),
      merges_applied_(other.merges_applied_),
      pending_syncs_(other.pending_syncs_),
      seen_publications_(std::move(other.seen_publications_)) {
  // The old worker pool (and its possibly in-flight pin) belongs to the
  // moved-from broker; tear it down and start a fresh pool here.
  other.scheduler_.reset();
  if (config_.match_threads > 1) {
    scheduler_ = std::make_unique<MatchScheduler>(config_.match_threads);
  }
}

void Broker::add_neighbor(IfaceId interface_id) {
  neighbors_.insert(interface_id);
}

void Broker::add_client(IfaceId interface_id) {
  clients_.insert(interface_id);
}

void Broker::drop_interface(IfaceId interface_id, ForwardSink& sink) {
  // Route handback rides the ordinary withdrawal handlers, exactly as if
  // the departing peer had sent the unsubscribes/unadvertises itself:
  // covering re-issues orphaned children, unadvertise floods the
  // withdrawal, and neither ever forwards back toward `interface_id`.
  // What mergers absorbed from the interface goes first: while a hop holds
  // such a pair, unsubscribing the merger's XPE keeps its route.
  if (prt_.covering()) prt_.tree()->drop_absorbed(interface_id);
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
  // Forwarding records may still name the interface (subscriptions we had
  // sent *to* the peer); scrub it so later unsubscriptions do not chase a
  // dead edge.
  for (auto it = forwarded_to_.begin(); it != forwarded_to_.end();) {
    it->second.erase(interface_id);
    it = it->second.empty() ? forwarded_to_.erase(it) : std::next(it);
  }
}

void Broker::restore_advertisement(const Advertisement& adv,
                                   const IfaceSet& hops) {
  for (IfaceId hop : hops) srt_.add(adv, hop);
}

void Broker::restore_subscription(const Xpe& xpe, const IfaceSet& hops) {
  for (IfaceId hop : hops) prt_.insert(xpe, hop);
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
      if (scheduler_) {
        // A batch of one: the same pinned epoch handle_batch runs.
        const Inbound inbound{from_interface, &msg};
        out = handle_batch(std::span<const Inbound>(&inbound, 1), sink);
      } else {
        handle_publish(from_interface, msg, {}, sink, &out);
      }
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
    // whole run, matched against the PRT index pinned here (compiled now
    // if control ops dirtied it). While the workers match, this thread
    // processes the control messages that follow the run — their table
    // mutations cannot affect the pinned index, and their outgoing
    // messages are buffered and replayed after the run's forwards, so the
    // sink sees exactly the sequential emission order.
    std::size_t end = i;
    while (end < batch.size() &&
           batch[end].msg->type() == MessageType::kPublish) {
      ++end;
    }
    batch_envelopes_.clear();
    batch_froms_.clear();
    batch_frames_.clear();
    batch_paths_.clear();
    for (std::size_t j = i; j < end; ++j) {
      const auto& pub = std::get<PublishMsg>(batch[j].msg->payload);
      // Duplicate suppression runs sequentially up front, exactly as the
      // per-message path would: later copies in the same batch are dropped
      // before any matching happens.
      if (!seen_publications_.insert(pub.doc_id, pub.path_id)) {
        continue;
      }
      batch_envelopes_.push_back(batch[j].msg);
      batch_froms_.push_back(batch[j].from);
      batch_frames_.push_back(batch[j].frame);
      batch_paths_.push_back(&pub.path);
    }
    if (batch_paths_.empty()) {
      i = end;
      continue;
    }
    scheduler_->begin_batch(batch_paths_, prt_.index());
    // The pipelined control window: handle the control messages that
    // follow the publication run while the epoch is still in flight.
    // Each one completes — tables mutated, outgoing control traffic
    // emitted — without waiting for the workers (the no-quiesce-barrier
    // property). They only mark index buckets dirty: the next epoch's pin
    // compiles them all at once, and ops that net out inside the window
    // (subscribe + unsubscribe of the same XPE) never cost a bucket
    // recompile at all.
    std::size_t next = end;
    window_forwards_.clear();
    CollectingSink window(&window_forwards_);
    while (next < batch.size() &&
           batch[next].msg->type() != MessageType::kPublish) {
      total += handle(batch[next].from, *batch[next].msg, window);
      ++next;
    }
    scheduler_->finish_batch(&batch_results_);
    std::size_t comparisons = 0;
    for (std::size_t k = 0; k < batch_paths_.size(); ++k) {
      HandleStatus out;
      out.publication_matched = !batch_results_[k].hops.empty();
      out.merger_false_matches = batch_results_[k].merger_false_matches;
      comparisons += batch_results_[k].comparisons;
      // The window's control ops may already have changed the tables, but
      // exactness came from the pinned index these publications matched.
      forward_publication(batch_froms_[k], *batch_envelopes_[k],
                          batch_results_[k], batch_frames_[k], sink, &out);
      total += out;
    }
    prt_.add_comparisons(comparisons);
    for (const Forward& forward : window_forwards_) {
      emit(sink, forward.interface, forward.message);
    }
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
        emit(sink, neighbor,
             Message::advertise(msg.advertisement, msg.origin_broker));
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
      emit(sink, from, Message::subscribe(xpe));
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
      emit(sink, neighbor,
           Message::unadvertise(msg.advertisement, msg.origin_broker));
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
  // Coverer chains toward the root, the parent's first, then each super
  // source's (every ancestor of a coverer covers xpe by transitivity):
  // union the interfaces each coverer was forwarded to. Callers read only
  // neighbours, so once `out` holds all of them no further coverer can
  // matter.
  std::size_t neighbours_in = 0;
  auto add_chain = [&](const SubscriptionTree::Node* start) {
    for (const SubscriptionTree::Node* walk = start;
         walk && walk->parent && neighbours_in < neighbors_.size();
         walk = walk->parent) {
      auto it = forwarded_to_.find(walk->xpe);
      if (it == forwarded_to_.end()) continue;
      for (IfaceId iface : it->second) {
        if (out.insert(iface).second) neighbours_in += neighbors_.count(iface);
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
      emit(sink, target, Message::subscribe(xpe));
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
      emit(sink, target, Message::unsubscribe(covered));
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
      emit(sink, target, Message::unsubscribe(xpe));
    }
  }
  forwarded_to_.erase(it);
}

void Broker::handle_subscribe(IfaceId from, const SubscribeMsg& msg,
                              ForwardSink& sink, HandleStatus* out) {
  (void)out;
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

void Broker::forward_publication(IfaceId from, const Message& envelope,
                                 const PrtMatch& match,
                                 std::span<const std::uint8_t> frame,
                                 ForwardSink& sink, HandleStatus* out) {
  // The hop list is sorted and deduplicated: several matching
  // subscriptions sharing a next hop yield one forwarded copy, and the
  // ascending order is the determinism anchor for the parallel engine.
  StageTimer forward_timer(stages_ ? &stages_->forward_ms : nullptr);
  const std::vector<IfaceId>& hops = match.hops;
  if (hops.empty() || (hops.size() == 1 && hops.front() == from)) return;
  const std::vector<IfaceId>& inexact = match.inexact_hops;
  // The caller's envelope is shared by every hop — no per-publication
  // Message copy; sinks that need ownership copy at the edge, and the
  // transport resends `frame` without touching the Message at all.
  for (IfaceId hop : hops) {
    if (hop == from) continue;
    if (!clients_.count(hop)) {
      emit(sink, hop, envelope, frame);
    } else if (!std::binary_search(inexact.begin(), inexact.end(), hop)) {
      emit(sink, hop, envelope, frame, DeliveryEvent::Kind::kLocalDelivery);
      ++out->deliveries;
    } else {
      // Edge exactness: an imperfect-merging false positive stays in the
      // network (paper §4.3: "The false positives are not delivered to
      // subscribers").
      emit(sink, hop, envelope, {}, DeliveryEvent::Kind::kSuppressed);
      ++out->suppressed_false_positives;
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

  // Sequential brokers only (a threaded one matches in handle_batch's
  // epochs): the compiled index, refreshed here if control ops dirtied
  // buckets since the last match, scanned inline on this thread.
  PrtMatch match;
  {
    StageTimer match_timer(stages_ ? &stages_->prt_match_ms : nullptr);
    prt_.match(msg.path, &match);
  }
  out->merger_false_matches += match.merger_false_matches;
  out->publication_matched = !match.hops.empty();
  forward_publication(from, envelope, match, frame, sink, out);
}

void Broker::handle_sync_request(IfaceId from, ForwardSink& sink) {
  // Link-state transfer runs between brokers only: a client's routes come
  // from its own subscribes, which edge exactness relies on.
  if (clients_.count(from)) return;
  // A neighbour restarted cold: replay the slice of our state that
  // concerns the shared link. Restoration on the other side is passive, so
  // the transfer is bounded by this link's state — no network-wide storm.
  emit(sink, from, Message::sync_state(export_link_state(*this, from)));
}

void Broker::handle_sync_state(IfaceId from, const SyncStateMsg& msg,
                               HandleStatus* out) {
  if (clients_.count(from)) return;  // as in handle_sync_request
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

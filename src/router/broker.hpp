// The XML content-based router ("broker", paper Fig. 1).
//
// A broker owns an SRT and a PRT, knows its neighbour links and locally
// attached clients (both addressed by strong IfaceId interface ids), and
// implements the routing strategies the paper evaluates:
//
//   * advertisement-based routing — advertisements flood; subscriptions
//     follow SRT entries whose publication sets overlap them; without
//     advertisements, subscriptions flood.
//   * covering-based routing — a subscription covered by an existing one
//     is absorbed (not forwarded); a subscription that covers existing
//     ones triggers upstream unsubscription of the covered ones.
//   * merging — a periodic merge pass compacts the PRT; the merger is
//     subscribed upstream and the originals unsubscribed.
//
// Edge exactness: a broker delivers a publication to a local client only
// if one of the client's own XPEs matches, so false positives from
// imperfect merging stay inside the network (paper §4.3/§5). The compiled
// PRT index decides it while matching (PrtMatch::inexact_hops): a hop
// reached only through mergers is exact only for what it subscribed and
// the mergers absorbed.
//
// The broker is a pure message transformer: handle() maps one incoming
// message to a stream of outgoing (interface, message) pairs pushed into a
// ForwardSink; the discrete-event simulator (src/net) and the TCP
// transport (src/transport) provide transport and timing. With
// match_threads > 1 in BrokerOptions, publication matching fans out over
// the scheduler's worker pool (router/match_scheduler.hpp), each
// publication matched whole against the compiled PRT index the epoch
// pinned; forwarding runs in arrival order on the calling thread, so the
// sink observes the exact forward sequence a sequential broker would
// emit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <unordered_map>
#include <vector>

#include "index/merging.hpp"
#include "router/broker_options.hpp"
#include "router/iface.hpp"
#include "router/match_scheduler.hpp"
#include "router/message.hpp"
#include "router/routing_tables.hpp"
#include "router/seen_window.hpp"

namespace xroute {

/// One outgoing routing decision, pushed into a ForwardSink the moment it
/// is made. Everything in the event is borrowed — valid only for the
/// duration of the on_event() call; sinks that need ownership copy at the
/// edge.
///
/// Invariants (the event contract, DESIGN.md "Delivery-sink events"):
///   * kForward / kLocalDelivery always carry `msg` (never null).
///   * kSuppressed never carries a message: the publication was absorbed
///     at the edge, nothing is sent, and materialising a Message copy
///     just to describe the non-delivery would be pure waste. Sinks that
///     care count it; `iface` still names the suppressed client.
///   * `frame` is the exact wire frame the publication arrived in, when
///     the broker still holds it; empty for control traffic and for
///     publications that entered through a frameless path (tests, the
///     simulator). A transport sink resends the bytes untouched instead
///     of re-encoding per hop.
struct DeliveryEvent {
  enum class Kind : std::uint8_t {
    /// An outgoing message on a neighbour link (or any non-edge send).
    kForward = 0,
    /// A publication that passed the edge-exactness check for the local
    /// client `iface`.
    kLocalDelivery = 1,
    /// A publication that matched a (merged) PRT entry pointing at local
    /// client `iface` but none of the client's own XPEs: suppressed at
    /// the edge, nothing is sent. Count-only: `msg` is null.
    kSuppressed = 2,
  };

  Kind kind = Kind::kForward;
  IfaceId iface = kNoIface;
  /// Borrowed; null iff kind == kSuppressed.
  const Message* msg = nullptr;
  /// Borrowed wire frame (header + payload) or empty; see contract above.
  std::span<const std::uint8_t> frame{};

  bool has_message() const { return msg != nullptr; }
  const Message& message() const { return *msg; }
};

/// Receiver of a broker's outgoing messages. handle() pushes one
/// DeliveryEvent per decision, in the exact order a sequential broker
/// emits them — transports can put frames on the wire without waiting for
/// the whole call to finish, and tests can byte-compare the event
/// sequence across thread counts.
class ForwardSink {
 public:
  virtual ~ForwardSink() = default;

  /// The single sink method: every outgoing decision lands here.
  virtual void on_event(const DeliveryEvent& event) = 0;
};

class Broker {
 public:
  struct Forward {
    IfaceId interface = kNoIface;
    Message message;
  };

  /// Collects every outgoing message into a vector, preserving emission
  /// order. The adapter behind the legacy HandleResult API and the
  /// pipelined window's buffer; also the natural sink for tests.
  class CollectingSink : public ForwardSink {
   public:
    explicit CollectingSink(std::vector<Forward>* out) : out_(out) {}
    void on_event(const DeliveryEvent& event) override {
      // Suppressions send nothing, so the forward list skips them.
      if (event.kind == DeliveryEvent::Kind::kSuppressed) return;
      out_->push_back(Forward{event.iface, event.message()});
    }

   private:
    std::vector<Forward>* out_;
  };

  /// Wall-clock milliseconds spent in each processing stage of one
  /// handle() call, for the tracer's stage sub-spans (obs/trace.hpp).
  /// The regions are disjoint (no nesting), so their sum never exceeds
  /// the call's total; whatever is not attributed here — message decode,
  /// dispatch, bookkeeping — shows up as the "parse" remainder computed
  /// by the simulator. Only filled when a sink is passed to handle(), so
  /// untraced runs pay no clock reads. Incompatible with match_threads > 1
  /// (stage regions would overlap across workers): handle() throws.
  struct StageTimings {
    double srt_check_ms = 0.0;  ///< SRT adds + overlap checks
    double prt_match_ms = 0.0;  ///< PRT inserts/removals + match walks
    double merge_ms = 0.0;      ///< merge-engine pass
    double forward_ms = 0.0;    ///< assembling outgoing forwards
  };

  /// Per-call counters; the messages themselves go to the ForwardSink.
  struct HandleStatus {
    /// Client hops a publication reached only as an imperfect-merging
    /// false positive (PrtMatch::inexact_hops): suppressed at the edge.
    std::size_t suppressed_false_positives = 0;
    /// Publications delivered to local clients in this call.
    std::size_t deliveries = 0;
    /// Publication matched at least one PRT entry here.
    bool publication_matched = false;
    /// Matches against merger entries not backed by any merged original:
    /// the paper's in-network false positives (Fig. 9).
    std::size_t merger_false_matches = 0;
    /// This message completed the crash-recovery handshake: the last
    /// outstanding SyncState arrived (the transport layer may now replay
    /// local-client control state).
    bool resync_completed = false;

    HandleStatus& operator+=(const HandleStatus& other) {
      suppressed_false_positives += other.suppressed_false_positives;
      deliveries += other.deliveries;
      publication_matched = publication_matched || other.publication_matched;
      merger_false_matches += other.merger_false_matches;
      resync_completed = resync_completed || other.resync_completed;
      return *this;
    }
  };

  /// Legacy value-returning shape: HandleStatus plus the collected
  /// forwards. Kept so callers that want the whole result as a value
  /// (tests, the simulator's tracing hooks) stay one call.
  struct HandleResult : HandleStatus {
    std::vector<Forward> forwards;
  };

  /// One queued inbound message, for handle_batch(). The message is
  /// borrowed, not owned — it must stay alive for the call. `frame` is
  /// the message's wire frame when the caller has it (the transport's
  /// read buffer); a publication's events carry it, so transports can
  /// resend the bytes untouched.
  struct Inbound {
    IfaceId from = kNoIface;
    const Message* msg = nullptr;
    std::span<const std::uint8_t> frame{};
  };

  /// Throws std::invalid_argument if `config.validate()` rejects the
  /// combination.
  Broker(int id, BrokerOptions config);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;
  /// Move tears down the old worker pool and starts a fresh one. Only
  /// legal whenever no handle() call is in flight — the broker's usual
  /// single-writer rule.
  Broker(Broker&& other);
  Broker& operator=(Broker&&) = delete;

  /// Declares `interface_id` as a link to a neighbouring broker.
  void add_neighbor(IfaceId interface_id);
  /// Declares `interface_id` as a locally attached client.
  void add_client(IfaceId interface_id);

  /// Withdraws everything routed through `interface_id` and forgets the
  /// interface: every subscription held via it is unsubscribed (covered
  /// children re-issued where still needed) and every advertisement that
  /// arrived through it is withdrawn, with the resulting control traffic
  /// pushed into `sink` toward the remaining interfaces. This is the
  /// routing half of a planned leave (peer said goodbye) or a confirmed
  /// failure (heartbeat down, no rejoin) — a transient disconnect keeps
  /// the state instead, betting on reconnection.
  void drop_interface(IfaceId interface_id, ForwardSink& sink);

  /// Processes one message arriving on `from_interface` (use the client's
  /// interface id for client-issued messages), pushing outgoing messages
  /// into `sink` in deterministic order. A non-null `stages` sink collects
  /// per-stage wall-clock time (traced sequential runs only; throws
  /// std::logic_error when combined with match_threads > 1).
  HandleStatus handle(IfaceId from_interface, const Message& msg,
                      ForwardSink& sink, StageTimings* stages = nullptr);

  /// Value-returning wrapper over a CollectingSink.
  HandleResult handle(IfaceId from_interface, const Message& msg,
                      StageTimings* stages = nullptr);

  /// Processes a queue of inbound messages in order, returning the summed
  /// status. Semantically identical to calling handle() per element —
  /// the sink sees the concatenation of the per-message sequences — but
  /// with match_threads > 1, runs of consecutive publications are matched
  /// as one scheduler epoch (one task per publication), which is where
  /// the parallel engine earns its throughput.
  HandleStatus handle_batch(std::span<const Inbound> batch, ForwardSink& sink);

  int id() const { return id_; }
  const BrokerOptions& config() const { return config_; }
  std::size_t prt_size() const { return prt_.size(); }
  std::size_t srt_size() const { return srt_.size(); }
  std::size_t comparisons() const {
    return prt_.comparisons() + srt_.comparisons();
  }
  std::size_t merges_applied() const { return merges_applied_; }
  const IfaceSet& neighbors() const { return neighbors_; }

  /// Interfaces on which some subscription covering `xpe` already
  /// provides a route: the union of the coverers' forwarding records.
  /// The walk stops once the union holds every neighbour, so it is exact
  /// on the neighbours, the only interfaces subscriptions go to.
  IfaceSet coverage_interfaces(const Xpe& xpe) const;

  /// The parallel engine, or nullptr when match_threads == 1 (metrics
  /// export and tests).
  const MatchScheduler* scheduler() const { return scheduler_.get(); }

  // -- Snapshot support (router/snapshot.h) --------------------------------
  const Srt& srt() const { return srt_; }
  const Prt& prt() const { return prt_; }
  Prt& prt() { return prt_; }
  const std::unordered_map<Xpe, IfaceSet, XpeHash>& forwarding_record()
      const {
    return forwarded_to_;
  }
  /// Restore-time mutators: rebuild state without emitting messages.
  void restore_advertisement(const Advertisement& adv, const IfaceSet& hops);
  void restore_subscription(const Xpe& xpe, const IfaceSet& hops);
  void restore_forwarding(const Xpe& xpe, IfaceSet interfaces);
  /// Adds one interface to a forwarding record (link resync restores the
  /// per-link slice without clobbering records from other links).
  void restore_forwarding_add(const Xpe& xpe, IfaceId interface_id);

  // -- Crash recovery (router/snapshot.h link-state transfer) --------------
  /// Arms the resync handshake after a cold restart: the broker expects
  /// `outstanding` SyncState replies (one per neighbour link); the handle()
  /// call processing the last one reports resync_completed.
  void begin_resync(std::size_t outstanding) { pending_syncs_ = outstanding; }
  std::size_t pending_syncs() const { return pending_syncs_; }

 private:
  void handle_advertise(IfaceId from, const AdvertiseMsg& msg,
                        ForwardSink& sink, HandleStatus* out);
  void handle_unadvertise(IfaceId from, const UnadvertiseMsg& msg,
                          ForwardSink& sink, HandleStatus* out);
  void handle_subscribe(IfaceId from, const SubscribeMsg& msg,
                        ForwardSink& sink, HandleStatus* out);
  void handle_unsubscribe(IfaceId from, const UnsubscribeMsg& msg,
                          ForwardSink& sink, HandleStatus* out);
  void handle_publish(IfaceId from, const Message& envelope,
                      std::span<const std::uint8_t> frame, ForwardSink& sink,
                      HandleStatus* out);
  void handle_sync_request(IfaceId from, ForwardSink& sink);
  void handle_sync_state(IfaceId from, const SyncStateMsg& msg,
                         HandleStatus* out);
  void run_merge_pass(ForwardSink& sink);

  /// The forward stage of a publication: per client hop, delivery or
  /// suppression as the match decided (`match.inexact_hops`); per
  /// neighbour hop, a plain forward. Identical for sequential, parallel
  /// and batched paths — determinism lives here (hop lists are sorted).
  /// `envelope` is the original message (no per-publication deep copy);
  /// `frame` is its wire frame or empty. The match came from the index
  /// the publication was pinned to, so control ops pipelined into the
  /// epoch cannot change how it is forwarded.
  void forward_publication(IfaceId from, const Message& envelope,
                           const PrtMatch& match,
                           std::span<const std::uint8_t> frame,
                           ForwardSink& sink, HandleStatus* out);

  /// Next-hop broker interfaces for a subscription: SRT overlap when
  /// advertisements are on, otherwise every neighbour. `exclude` is the
  /// arrival interface.
  IfaceSet subscription_targets(const Xpe& xpe, IfaceId exclude) const;

  /// Sends `subscribe(xpe)` to every target not yet holding it and records
  /// the forwarding. Under covering-based routing the decision is made
  /// per interface: a target is skipped only when some subscription
  /// covering `xpe` has already been forwarded there (a coverer provides
  /// no route on the interface it arrived from, so global absorption
  /// would lose deliveries).
  void forward_subscription(const Xpe& xpe, IfaceId exclude,
                            ForwardSink& sink);

  /// Sends `unsubscribe(xpe)` along the recorded forwarding paths.
  void forward_unsubscription(const Xpe& xpe, IfaceId exclude,
                              ForwardSink& sink);

  /// Withdraws a covered subscription, but only on interfaces in `via`
  /// (where the covering subscription provides a route); its forwarding
  /// record shrinks accordingly.
  void unsubscribe_covered(const Xpe& covered, const IfaceSet& via,
                           ForwardSink& sink);

  int id_;
  BrokerOptions config_;
  /// Stage sink of the handle() call in flight (null = untraced).
  StageTimings* stages_ = nullptr;
  IfaceSet neighbors_;
  /// Locally attached clients. Changed only by add_client and
  /// drop_interface, never inside handle_batch's window.
  IfaceSet clients_;
  Srt srt_;
  Prt prt_;
  /// Worker pool for parallel publication matching; null when
  /// match_threads == 1. Workers match against the immutable PRT index
  /// pinned at epoch launch, never the live tables — this (single-writer)
  /// broker mutates prt_/srt_ freely while an epoch runs (no quiesce
  /// barrier), and the next epoch's pin compiles what changed.
  std::unique_ptr<MatchScheduler> scheduler_;
  /// Control traffic of the messages handled while a batch epoch is in
  /// flight, replayed after the epoch's publications forward — preserving
  /// the sequential emission order (see handle_batch). Control messages
  /// emit plain forwards only: no suppression, no frame.
  std::vector<Forward> window_forwards_;
  /// Interfaces each subscription was forwarded to (for unsubscription).
  std::unordered_map<Xpe, IfaceSet, XpeHash> forwarded_to_;
  std::size_t new_subs_since_merge_ = 0;
  std::size_t merges_applied_ = 0;
  /// SyncState replies still outstanding after a cold restart (0 = not
  /// resyncing).
  std::size_t pending_syncs_ = 0;
  /// Publications already processed, for duplicate suppression on cyclic
  /// overlays (a publication can arrive over several paths; forwarding it
  /// again would loop). Bounded generational window — rationale and
  /// guarantees in router/seen_window.hpp.
  SeenWindow seen_publications_;
  // handle_batch staging scratch, reused across batches so the steady
  // state allocates nothing.
  std::vector<const Message*> batch_envelopes_;
  std::vector<IfaceId> batch_froms_;
  std::vector<std::span<const std::uint8_t>> batch_frames_;
  std::vector<const Path*> batch_paths_;
  /// Reused across batches: hop-vector capacity circulates between this
  /// buffer and the scheduler's per-slot buffers (see
  /// MatchScheduler::finish_batch), so the steady state allocates nothing.
  std::vector<PrtMatch> batch_results_;
};

}  // namespace xroute

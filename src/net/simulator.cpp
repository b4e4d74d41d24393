#include "net/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <variant>

#include "router/snapshot.hpp"
#include "xml/paths.hpp"

namespace xroute {

namespace {
/// Profile for endpoints without faults installed (clean link).
const FaultProfile kCleanLink{};
}  // namespace

Simulator::Simulator() : Simulator(Options{}) {}

Simulator::Simulator(Options options) : options_(options) {}

int Simulator::new_endpoint() {
  endpoints_.emplace_back();
  endpoint_faults_.emplace_back();
  channels_.emplace_back();
  return static_cast<int>(endpoints_.size()) - 1;
}

int Simulator::add_broker(const BrokerOptions& config) {
  if (config.match_threads > 1) {
    // The simulator folds wall-clock processing time into simulated time;
    // a worker pool would perturb that measurement and the deterministic
    // event order. Parallel matching runs under the real transport
    // (transport/broker_node) instead.
    throw std::invalid_argument(
        "simulator brokers are single-threaded for determinism; "
        "match_threads must be 1");
  }
  int id = static_cast<int>(brokers_.size());
  brokers_.push_back(std::make_unique<Broker>(id, config));
  broker_configs_.push_back(config);
  incarnations_.push_back(0);
  resync_started_.push_back(-1.0);
  return id;
}

void Simulator::restart_broker(int broker, const std::string& snapshot,
                               bool resync) {
  // Invalidate events still in flight toward the dead instance: a message
  // addressed to the old incarnation must not reach the replacement as if
  // nothing happened (it is lost with the crash; the reliable transport or
  // the resync handshake recovers what can be recovered).
  ++incarnations_[static_cast<std::size_t>(broker)];
  stats_.count_broker_restart();

  auto fresh = std::make_unique<Broker>(broker, broker_configs_.at(
                                                    static_cast<std::size_t>(broker)));
  // Re-declare the interfaces from the wiring records, and reset the
  // transport state of adjacent broker links on both sides: the crashed
  // node's link stacks died with it, and the surviving peers' flows toward
  // it are meaningless against a fresh instance. Unacked frames are
  // permanent losses (counted), recovered only by the resync handshake.
  std::vector<int> neighbor_endpoints;
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    const Endpoint& endpoint = endpoints_[e];
    if (endpoint.is_client || endpoint.broker != broker) continue;
    if (endpoint.client >= 0) {
      fresh->add_client(IfaceId{static_cast<int>(e)});
    } else {
      neighbor_endpoints.push_back(static_cast<int>(e));
      fresh->add_neighbor(IfaceId{static_cast<int>(e)});
      if (fault_rng_) {
        stats_.count_frames_lost_to_crash(
            channels_[e].in_flight() +
            channels_[static_cast<std::size_t>(endpoint.peer)].in_flight());
        channels_[e].reset();
        channels_[static_cast<std::size_t>(endpoint.peer)].reset();
      }
    }
  }
  if (!snapshot.empty()) snapshot_from_string(*fresh, snapshot);
  brokers_[static_cast<std::size_t>(broker)] = std::move(fresh);

  if (resync && snapshot.empty()) {
    brokers_[static_cast<std::size_t>(broker)]->begin_resync(
        neighbor_endpoints.size());
    resync_started_[static_cast<std::size_t>(broker)] = now_;
    if (neighbor_endpoints.empty()) {
      finish_resync(broker);
    } else {
      for (int endpoint : neighbor_endpoints) {
        Message msg = Message::sync_request();
        trace_inject(&msg, /*client=*/-1, broker);
        transmit(endpoint, std::move(msg), now_);
      }
    }
  }
}

void Simulator::connect(int broker_a, int broker_b, const LinkConfig& link) {
  int end_a = new_endpoint();
  int end_b = new_endpoint();
  endpoints_[end_a] = Endpoint{false, broker_a, -1, end_b, link};
  endpoints_[end_b] = Endpoint{false, broker_b, -1, end_a, link};
  brokers_[broker_a]->add_neighbor(IfaceId{end_a});
  brokers_[broker_b]->add_neighbor(IfaceId{end_b});
}

void Simulator::build(const Topology& topology, const BrokerOptions& config,
                      LatencyProfile profile, Rng& rng) {
  for (std::size_t i = 0; i < topology.num_brokers; ++i) add_broker(config);
  for (auto [a, b] : topology.edges) {
    connect(a, b, sample_link(profile, rng));
  }
}

int Simulator::attach_client(int broker, const LinkConfig& link) {
  int client_id = static_cast<int>(clients_.size());
  int client_end = new_endpoint();
  int broker_end = new_endpoint();
  endpoints_[client_end] = Endpoint{true, -1, client_id, broker_end, link};
  endpoints_[broker_end] = Endpoint{false, broker, client_id, client_end, link};
  brokers_[broker]->add_client(IfaceId{broker_end});
  clients_.push_back(Client{broker, client_end, broker_end, {}, {}, {}, {}});
  return client_id;
}

// -- Causal tracing ----------------------------------------------------------

void Simulator::enable_tracing() {
#if XROUTE_TRACING_ENABLED
  if (!tracer_) tracer_ = std::make_unique<Tracer>();
#else
  throw std::logic_error(
      "enable_tracing: tracing compiled out (-DXROUTE_TRACING=OFF)");
#endif
}

void Simulator::trace_inject(Message* msg, int client, int broker) {
#if XROUTE_TRACING_ENABLED
  if (!tracer_) return;
  Span root;
  root.trace = tracer_->new_trace();
  root.kind = SpanKind::kInject;
  root.start_ms = now_;
  root.end_ms = now_;
  root.client = client;
  root.broker = broker;
  root.msg_type = static_cast<unsigned char>(msg->type());
  root.bytes = msg->wire_bytes();
  if (const auto* pub = std::get_if<PublishMsg>(&msg->payload)) {
    root.doc_id = pub->doc_id;
    root.path_id = pub->path_id;
  }
  msg->trace = TraceContext{root.trace, tracer_->add(root)};
#else
  (void)msg;
  (void)client;
  (void)broker;
#endif
}

void Simulator::trace_flush(const Message& msg, double time) {
#if XROUTE_TRACING_ENABLED
  if (!tracer_ || !msg.trace) return;
  Span span;
  span.trace = msg.trace.trace;
  span.parent = msg.trace.parent;
  span.kind = SpanKind::kLink;
  span.start_ms = time;
  span.end_ms = time;
  span.msg_type = static_cast<unsigned char>(msg.type());
  span.bytes = msg.wire_bytes();
  span.dropped = true;
  tracer_->add(span);
#else
  (void)msg;
  (void)time;
#endif
}

// -- Fault injection ---------------------------------------------------------

void Simulator::enable_fault_injection(std::uint64_t seed,
                                       const ReliabilityOptions& options) {
  fault_rng_ = std::make_unique<Rng>(seed);
  reliability_ = options;
}

void Simulator::set_default_link_faults(const FaultProfile& profile) {
  if (!fault_rng_) {
    throw std::logic_error("set_default_link_faults: call "
                           "enable_fault_injection first");
  }
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    const Endpoint& endpoint = endpoints_[e];
    if (endpoint.is_client || endpoint.client >= 0) continue;  // broker links only
    endpoint_faults_[e] = profile;
    schedule_link_up_nudges(static_cast<int>(e), profile);
  }
}

void Simulator::set_link_faults(int broker_a, int broker_b,
                                const FaultProfile& profile) {
  if (!fault_rng_) {
    throw std::logic_error("set_link_faults: call enable_fault_injection "
                           "first");
  }
  bool found = false;
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    const Endpoint& endpoint = endpoints_[e];
    if (endpoint.is_client || endpoint.client >= 0) continue;
    const Endpoint& peer = endpoints_[static_cast<std::size_t>(endpoint.peer)];
    if ((endpoint.broker == broker_a && peer.broker == broker_b) ||
        (endpoint.broker == broker_b && peer.broker == broker_a)) {
      endpoint_faults_[e] = profile;
      schedule_link_up_nudges(static_cast<int>(e), profile);
      found = true;
    }
  }
  if (!found) {
    throw std::logic_error("set_link_faults: no link between the brokers");
  }
}

void Simulator::apply_fault_plan(const FaultPlan& plan) {
  enable_fault_injection(plan.seed);
  set_default_link_faults(plan.default_profile);
  for (const auto& [pair, profile] : plan.link_profiles) {
    set_link_faults(pair.first, pair.second, profile);
  }
  for (const CrashEvent& event : plan.crashes) {
    queue_.schedule(event.time, [this, event]() {
      switch (event.mode) {
        case RestartMode::kCold:
          restart_broker(event.broker);
          break;
        case RestartMode::kColdResync:
          restart_broker(event.broker, "", /*resync=*/true);
          break;
        case RestartMode::kSnapshot:
          // Durable state: the snapshot reflects the broker at the moment
          // it went down.
          restart_broker(event.broker,
                         snapshot_to_string(*brokers_[static_cast<std::size_t>(
                             event.broker)]));
          break;
      }
    });
  }
}

void Simulator::schedule_link_up_nudges(int endpoint,
                                        const FaultProfile& profile) {
  for (const auto& [from, to] : profile.down_windows) {
    if (to <= now_) continue;
    queue_.schedule(to, [this, endpoint]() {
      // The link is back: retransmit everything still pending immediately
      // instead of waiting out the backed-off timers.
      for (std::uint64_t seq : channels_[endpoint].pending_seqs()) {
        stats_.count_retransmit(endpoint);
        send_frame(endpoint, seq,
                   channels_[endpoint].retries(seq), now_,
                   /*retransmission=*/true);
      }
    });
  }
}

const FaultProfile& Simulator::faults_of(int endpoint) const {
  return fault_rng_ ? endpoint_faults_[static_cast<std::size_t>(endpoint)]
                    : kCleanLink;
}

// -- Client actions ----------------------------------------------------------

void Simulator::send_from_client(int client, Message msg) {
  const Client& c = clients_.at(client);
  transmit(c.endpoint, std::move(msg), now_);
}

void Simulator::subscribe(int client, const Xpe& xpe) {
  clients_.at(client).subscriptions.push_back(xpe);
  Message msg = Message::subscribe(xpe);
  trace_inject(&msg, client, clients_.at(client).broker);
  send_from_client(client, std::move(msg));
}

void Simulator::unsubscribe(int client, const Xpe& xpe) {
  auto& subs = clients_.at(client).subscriptions;
  auto pos = std::find(subs.begin(), subs.end(), xpe);
  if (pos != subs.end()) subs.erase(pos);
  Message msg = Message::unsubscribe(xpe);
  trace_inject(&msg, client, clients_.at(client).broker);
  send_from_client(client, std::move(msg));
}

void Simulator::advertise(int client, const Advertisement& adv) {
  clients_.at(client).advertisements.push_back(adv);
  Message msg = Message::advertise(adv, clients_.at(client).broker);
  trace_inject(&msg, client, clients_.at(client).broker);
  send_from_client(client, std::move(msg));
}

void Simulator::unadvertise(int client, const Advertisement& adv) {
  auto& advs = clients_.at(client).advertisements;
  auto pos = std::find(advs.begin(), advs.end(), adv);
  if (pos != advs.end()) advs.erase(pos);
  Message msg = Message::unadvertise(adv, clients_.at(client).broker);
  trace_inject(&msg, client, clients_.at(client).broker);
  send_from_client(client, std::move(msg));
}

std::uint64_t Simulator::publish(int client, const XmlDocument& doc) {
  return publish_paths(client, extract_paths(doc), doc.byte_size());
}

std::uint64_t Simulator::publish_paths(int client,
                                       const std::vector<Path>& paths,
                                       std::size_t doc_bytes) {
  std::uint64_t doc_id = next_doc_id_++;
  std::uint32_t path_id = 0;
  for (const Path& path : paths) {
    PublishMsg msg;
    msg.path = path;
    msg.doc_id = doc_id;
    msg.path_id = path_id++;
    msg.doc_bytes = doc_bytes;
    msg.paths_in_doc = static_cast<std::uint32_t>(paths.size());
    msg.publish_time = now_;
    Message message{std::move(msg)};
    trace_inject(&message, client, clients_.at(client).broker);
    send_from_client(client, std::move(message));
  }
  return doc_id;
}

// -- Transport ---------------------------------------------------------------

void Simulator::transmit(int from_endpoint, Message msg,
                         double departure_time) {
  const Endpoint& from = endpoints_.at(from_endpoint);
  if (from.peer < 0) throw std::logic_error("endpoint has no peer");
  const Endpoint& to = endpoints_.at(static_cast<std::size_t>(from.peer));
  // Client links stay perfect (a client and its edge broker are one
  // administrative unit); broker links go through the reliable transport
  // once fault injection is on.
  if (!fault_rng_ || from.is_client || to.is_client) {
    transmit_direct(from_endpoint, std::move(msg), departure_time);
    return;
  }
  std::uint64_t seq = channels_[from_endpoint].stage(std::move(msg));
  send_frame(from_endpoint, seq, /*attempt=*/0, departure_time);
}

void Simulator::transmit_direct(int from_endpoint, Message msg,
                                double departure_time) {
  const Endpoint& from = endpoints_.at(from_endpoint);
  int peer = from.peer;
  const Endpoint& to = endpoints_.at(static_cast<std::size_t>(peer));
  double arrival = departure_time + from.link.latency_ms +
                   static_cast<double>(msg.wire_bytes()) / from.link.bytes_per_ms;
#if XROUTE_TRACING_ENABLED
  if (tracer_ && msg.trace) {
    Span span;
    span.trace = msg.trace.trace;
    span.parent = msg.trace.parent;
    span.kind = SpanKind::kLink;
    span.start_ms = departure_time;
    span.end_ms = arrival;
    span.endpoint = from_endpoint;
    span.msg_type = static_cast<unsigned char>(msg.type());
    span.bytes = msg.wire_bytes();
    msg.trace.parent = tracer_->add(span);
  }
#endif
  // A message addressed to a broker that crashes before arrival dies with
  // the old incarnation: the replacement must not receive pre-crash
  // traffic as if nothing happened.
  std::uint64_t incarnation =
      to.is_client ? 0 : incarnations_[static_cast<std::size_t>(to.broker)];
  queue_.schedule(arrival, [this, peer, to, incarnation,
                            msg = std::move(msg)]() mutable {
    if (to.is_client) {
      deliver_to_client(to.client, std::move(msg));
    } else {
      if (incarnations_[static_cast<std::size_t>(to.broker)] != incarnation) {
        stats_.count_event_flushed_on_crash();
        trace_flush(msg, now_);
        return;
      }
      deliver_to_broker(to.broker, peer, std::move(msg));
    }
  });
}

double Simulator::link_rto(int from_endpoint, int attempt) const {
  const Endpoint& from = endpoints_[static_cast<std::size_t>(from_endpoint)];
  return reliability_.retransmit_policy(from.link.latency_ms).delay_ms(attempt);
}

void Simulator::send_frame(int from_endpoint, std::uint64_t seq, int attempt,
                           double departure_time, bool retransmission) {
  ReliableChannel& channel = channels_[static_cast<std::size_t>(from_endpoint)];
  const Message* pending = channel.pending_message(seq);
  if (!pending) return;  // acked or abandoned in the meantime
  const Endpoint& from = endpoints_[static_cast<std::size_t>(from_endpoint)];
  const Endpoint& to = endpoints_[static_cast<std::size_t>(from.peer)];
  const FaultProfile& faults = faults_of(from_endpoint);

  double base_arrival =
      departure_time + from.link.latency_ms +
      static_cast<double>(pending->wire_bytes()) / from.link.bytes_per_ms;

  // Fault draws, one transmission attempt at a time (deterministic: the
  // draws happen in event order from the dedicated fault Rng).
  int copies = 1;
  if (!faults.link_up(departure_time)) {
    stats_.count_frame_dropped();
    copies = 0;
  } else if (faults.drop_prob > 0.0 && fault_rng_->chance(faults.drop_prob)) {
    stats_.count_frame_dropped();
    copies = 0;
  } else if (faults.dup_prob > 0.0 && fault_rng_->chance(faults.dup_prob)) {
    stats_.count_frame_duplicated();
    copies = 2;
  }
  // Draw the per-copy arrival times first (keeping the Rng call order of
  // the untraced code path), so the attempt span below can close at the
  // latest arrival before any receive event is scheduled.
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(copies));
  for (int copy = 0; copy < copies; ++copy) {
    double arrival = base_arrival + 0.01 * copy;
    if (faults.reorder_prob > 0.0 && fault_rng_->chance(faults.reorder_prob)) {
      stats_.count_reorder_injected();
      arrival += fault_rng_->uniform() * faults.reorder_jitter_ms;
    }
    arrivals.push_back(arrival);
  }

  // One link span per transmission attempt (not per duplicated copy), so
  // retransmit-flagged spans count exactly what stats_.retransmits() does.
  TraceContext attempt_ctx = pending->trace;
#if XROUTE_TRACING_ENABLED
  if (tracer_ && pending->trace) {
    Span span;
    span.trace = pending->trace.trace;
    span.parent = pending->trace.parent;
    span.kind = SpanKind::kLink;
    span.start_ms = departure_time;
    span.end_ms = arrivals.empty()
                      ? departure_time
                      : *std::max_element(arrivals.begin(), arrivals.end());
    span.endpoint = from_endpoint;
    span.msg_type = static_cast<unsigned char>(pending->type());
    span.bytes = pending->wire_bytes();
    span.retransmit = retransmission;
    span.dropped = arrivals.empty();
    attempt_ctx.parent = tracer_->add(span);
  }
#else
  (void)retransmission;
#endif

  std::uint64_t epoch = channel.epoch();
  std::uint64_t incarnation = incarnations_[static_cast<std::size_t>(to.broker)];
  for (double arrival : arrivals) {
    Message copy = *pending;
    copy.trace = attempt_ctx;
    queue_.schedule(arrival, [this, from_endpoint, seq, epoch, incarnation,
                              msg = std::move(copy)]() mutable {
      receive_frame(from_endpoint, seq, epoch, incarnation, std::move(msg));
    });
  }

  // Retransmission timer with exponential backoff and a retry cap. The
  // timer cannot be cancelled (the queue holds closures), so it re-checks
  // the channel when it fires: acked or stale-epoch timers are no-ops.
  double rto = link_rto(from_endpoint, attempt);
  queue_.schedule(departure_time + rto, [this, from_endpoint, seq, epoch,
                                         attempt]() {
    ReliableChannel& ch = channels_[static_cast<std::size_t>(from_endpoint)];
    if (ch.epoch() != epoch || !ch.unacked(seq)) return;
    if (attempt >= reliability_.max_retries) {
      ch.abandon(seq);
      stats_.count_retransmit_failure();
      return;
    }
    ch.bump_retries(seq);
    stats_.count_retransmit(from_endpoint);
    send_frame(from_endpoint, seq, attempt + 1, now_, /*retransmission=*/true);
  });
}

void Simulator::receive_frame(int from_endpoint, std::uint64_t seq,
                              std::uint64_t epoch,
                              std::uint64_t target_incarnation, Message msg) {
  ReliableChannel& sender = channels_[static_cast<std::size_t>(from_endpoint)];
  if (sender.epoch() != epoch) {
    // The flow this frame belonged to was reset (an adjacent broker
    // crashed): the frame is part of the wreckage.
    stats_.count_frames_lost_to_crash(1);
    trace_flush(msg, now_);
    return;
  }
  const Endpoint& from = endpoints_[static_cast<std::size_t>(from_endpoint)];
  int to_endpoint = from.peer;
  const Endpoint& to = endpoints_[static_cast<std::size_t>(to_endpoint)];
  if (incarnations_[static_cast<std::size_t>(to.broker)] !=
      target_incarnation) {
    stats_.count_event_flushed_on_crash();
    trace_flush(msg, now_);
    return;
  }

  ReliableChannel::Arrival arrival =
      channels_[static_cast<std::size_t>(to_endpoint)].accept(seq,
                                                              std::move(msg));
  if (arrival.duplicate) stats_.count_link_duplicate_suppressed();
  if (arrival.out_of_order) stats_.count_out_of_order_delivery();
  for (Message& released : arrival.deliver) {
    deliver_to_broker(to.broker, to_endpoint, std::move(released));
  }
  send_ack(to_endpoint, arrival.cumulative_ack);
}

void Simulator::send_ack(int from_endpoint, std::uint64_t cumulative) {
  const Endpoint& from = endpoints_[static_cast<std::size_t>(from_endpoint)];
  int peer = from.peer;
  const FaultProfile& faults = faults_of(from_endpoint);
  stats_.count_ack(reliability_.ack_bytes);
  // Acks traverse the same lossy link; a lost ack is repaired by the data
  // sender's retransmission, whose duplicate re-triggers the ack.
  if (!faults.link_up(now_) ||
      (faults.drop_prob > 0.0 && fault_rng_->chance(faults.drop_prob))) {
    stats_.count_frame_dropped();
    return;
  }
  double arrival = now_ + from.link.latency_ms +
                   static_cast<double>(reliability_.ack_bytes) /
                       from.link.bytes_per_ms;
  std::uint64_t epoch = channels_[static_cast<std::size_t>(peer)].epoch();
  queue_.schedule(arrival, [this, peer, cumulative, epoch]() {
    ReliableChannel& ch = channels_[static_cast<std::size_t>(peer)];
    if (ch.epoch() != epoch) return;
    ch.ack_up_to(cumulative);
  });
}

// -- Delivery ----------------------------------------------------------------

void Simulator::deliver_to_broker(int broker, int at_endpoint, Message msg) {
  stats_.count_broker_message(msg.type(), msg.wire_bytes(), broker);
  last_activity_ = now_;
  if (trace_) trace_(broker, at_endpoint, msg);

#if XROUTE_TRACING_ENABLED
  Broker::StageTimings stages;
  Broker::StageTimings* stage_sink = (tracer_ && msg.trace) ? &stages : nullptr;
#else
  Broker::StageTimings* stage_sink = nullptr;
#endif
  auto started = std::chrono::steady_clock::now();
  Broker::HandleResult result =
      brokers_[broker]->handle(IfaceId{at_endpoint}, msg, stage_sink);
  auto finished = std::chrono::steady_clock::now();
  double processing_ms =
      std::chrono::duration<double, std::milli>(finished - started).count() *
      options_.processing_scale;
  stats_.add_processing_time(processing_ms);
  stats_.count_suppressed_false_positive(result.suppressed_false_positives);
  if (result.publication_matched) stats_.count_publication_match();
  stats_.count_merger_false_matches(result.merger_false_matches);

  double departure = now_ + processing_ms;
#if XROUTE_TRACING_ENABLED
  std::uint64_t broker_span = 0;
  if (stage_sink) {
    Span span;
    span.trace = msg.trace.trace;
    span.parent = msg.trace.parent;
    span.kind = SpanKind::kBroker;
    span.start_ms = now_;
    span.end_ms = departure;
    span.broker = broker;
    span.endpoint = at_endpoint;
    span.msg_type = static_cast<unsigned char>(msg.type());
    span.bytes = msg.wire_bytes();
    if (const auto* pub = std::get_if<PublishMsg>(&msg.payload)) {
      span.doc_id = pub->doc_id;
      span.path_id = pub->path_id;
    }
    broker_span = tracer_->add(span);

    // Stage sub-spans: the timed leaf regions scaled like processing_ms,
    // laid back to back under the broker span; the unattributed remainder
    // (decode, dispatch, bookkeeping) leads as the "parse" stage. With
    // processing_scale = 0 they collapse to zero-width markers, still in
    // causal order.
    double scale = options_.processing_scale;
    double srt = stages.srt_check_ms * scale;
    double prt = stages.prt_match_ms * scale;
    double merge = stages.merge_ms * scale;
    double fwd_ms = stages.forward_ms * scale;
    double parse = std::max(0.0, processing_ms - (srt + prt + merge + fwd_ms));
    const std::pair<SpanKind, double> layout[] = {
        {SpanKind::kStageParse, parse},
        {SpanKind::kStageSrtCheck, srt},
        {SpanKind::kStagePrtMatch, prt},
        {SpanKind::kStageMerge, merge},
        {SpanKind::kStageForward, fwd_ms},
    };
    double cursor = now_;
    for (const auto& [kind, width] : layout) {
      Span stage;
      stage.trace = msg.trace.trace;
      stage.parent = broker_span;
      stage.kind = kind;
      stage.start_ms = cursor;
      cursor = std::min(departure, cursor + width);
      stage.end_ms = cursor;
      stage.broker = broker;
      tracer_->add(stage);
    }
  }
#endif
  for (Broker::Forward& fwd : result.forwards) {
#if XROUTE_TRACING_ENABLED
    if (stage_sink) {
      Span enq;
      enq.trace = msg.trace.trace;
      enq.parent = broker_span;
      enq.kind = SpanKind::kEnqueue;
      enq.start_ms = now_;
      enq.end_ms = departure;
      enq.broker = broker;
      enq.endpoint = fwd.interface.value();
      enq.msg_type = static_cast<unsigned char>(fwd.message.type());
      enq.bytes = fwd.message.wire_bytes();
      fwd.message.trace = TraceContext{msg.trace.trace, tracer_->add(enq)};
    }
#endif
    transmit(fwd.interface.value(), std::move(fwd.message), departure);
  }
  if (result.resync_completed) finish_resync(broker);
}

void Simulator::finish_resync(int broker) {
  double started = resync_started_[static_cast<std::size_t>(broker)];
  stats_.record_resync(started >= 0 ? now_ - started : 0.0);
  resync_started_[static_cast<std::size_t>(broker)] = -1.0;
  // The broker's link state is back; its own clients now replay their
  // control state (a real client re-issues interests on reconnect). The
  // restored forwarding records keep the replays local: anything the
  // neighbours already hold is not forwarded again.
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    const Client& client = clients_[ci];
    if (client.broker != broker) continue;
    for (const Advertisement& adv : client.advertisements) {
      Message msg = Message::advertise(adv, broker);
      trace_inject(&msg, static_cast<int>(ci), broker);
      transmit(client.endpoint, std::move(msg), now_);
    }
    for (const Xpe& xpe : client.subscriptions) {
      Message msg = Message::subscribe(xpe);
      trace_inject(&msg, static_cast<int>(ci), broker);
      transmit(client.endpoint, std::move(msg), now_);
    }
  }
}

void Simulator::deliver_to_client(int client, Message msg) {
  if (msg.type() != MessageType::kPublish) return;
  last_activity_ = now_;
  const PublishMsg& pub = std::get<PublishMsg>(msg.payload);
  Client& c = clients_.at(client);
  auto [it, first] = c.first_arrival.emplace(pub.doc_id, now_);
  if (first) {
    stats_.count_notification(now_ - pub.publish_time);
    c.delays.push_back(now_ - pub.publish_time);
  } else {
    stats_.count_duplicate_notification();
  }
#if XROUTE_TRACING_ENABLED
  if (tracer_ && msg.trace) {
    Span span;
    span.trace = msg.trace.trace;
    span.parent = msg.trace.parent;
    span.kind = SpanKind::kDeliver;
    span.start_ms = now_;
    span.end_ms = now_;
    span.client = client;
    span.msg_type = static_cast<unsigned char>(msg.type());
    span.doc_id = pub.doc_id;
    span.path_id = pub.path_id;
    span.bytes = msg.wire_bytes();
    span.duplicate = !first;
    tracer_->add(span);
  }
#endif
}

// -- Execution ---------------------------------------------------------------

std::size_t Simulator::run() { return run_limited(0); }

std::size_t Simulator::run_limited(std::size_t max_events) {
  std::size_t processed = 0;
  while (!queue_.empty()) {
    if (max_events != 0 && processed >= max_events) break;
    double time = now_;
    EventQueue::Action action = queue_.pop(&time);
    now_ = time;
    action();
    ++processed;
  }
  return processed;
}

Simulator::QuiesceReport Simulator::run_until_quiescent(
    std::size_t max_events) {
  QuiesceReport report;
  report.processed = run_limited(max_events);
  report.quiesced = queue_.empty();
  report.completed_at = now_;
  report.last_activity = last_activity_;
  return report;
}

std::size_t Simulator::notifications_of(int client) const {
  return clients_.at(client).first_arrival.size();
}

std::set<std::uint64_t> Simulator::delivered_docs(int client) const {
  std::set<std::uint64_t> docs;
  for (const auto& [doc_id, time] : clients_.at(client).first_arrival) {
    docs.insert(doc_id);
  }
  return docs;
}

const std::vector<double>& Simulator::delays_of(int client) const {
  return clients_.at(client).delays;
}

}  // namespace xroute

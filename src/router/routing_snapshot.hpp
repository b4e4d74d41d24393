// RCU-style routing-state snapshots: the lock-free control plane.
//
// Since PR 5 the broker's control plane (subscribe/unsubscribe/advertise/
// merge, plus membership route handback) mutated the live routing tables
// and relied on the MatchScheduler's epoch barrier for safety: every
// control op had to wait for the worker pool to drain before touching
// anything workers might read. At high churn the barrier itself becomes
// the bottleneck — each quiesce stalls matching for a full epoch.
//
// This module removes the barrier. The single writer (the broker's
// control thread) publishes an immutable RoutingSnapshot into a
// SnapshotStore with one atomic swap and keeps mutating the live tables
// freely: workers never see those tables at all. Each match epoch pins
// the current snapshot via shared_ptr at staging time and matches against
// it with zero locks; a snapshot retired by a later publish stays alive
// until the last pinning epoch drains and drops its reference (plain
// shared_ptr refcounting — the RCU grace period is the pointer's
// lifetime).
//
// A snapshot is two shared pointers: the PRT's compiled index
// (Prt::index(), the same immutable bucket map a sequential broker
// matches inline, refreshed with structural sharing so only dirty
// buckets recompile) and the edge state the forward stage reads. A
// publish that changes only one of them shares the other.
//
// Single-writer invariant: snapshots are only ever built and published
// by the broker's control thread. Readers (match workers) only ever call
// SnapshotStore::current() and read the pinned snapshot. The
// publish/current pair is release/acquire, so a reader that observes a
// snapshot pointer observes the fully built snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "router/iface.hpp"
#include "router/routing_tables.hpp"
#include "xpath/xpe.hpp"

namespace xroute {

/// One immutable, epoch-versioned view of everything publication
/// matching and forwarding read: the compiled PRT index plus the edge
/// state (client set and per-client original XPEs) the forward stage's
/// edge-exactness check consults. Snapshots never mutate after publish.
class RoutingSnapshot {
 public:
  struct Edge {
    IfaceSet clients;
    std::map<IfaceId, std::vector<Xpe>> client_subs;
  };

  /// `gauge` counts live snapshots (constructed minus destroyed) for the
  /// retirement tests: an unbounded chain under churn is a leak even
  /// when ASan sees every byte eventually freed.
  RoutingSnapshot(std::uint64_t version, std::shared_ptr<const PrtIndex> index,
                  std::shared_ptr<const Edge> edge,
                  std::shared_ptr<std::atomic<std::int64_t>> gauge);
  ~RoutingSnapshot();
  RoutingSnapshot(const RoutingSnapshot&) = delete;
  RoutingSnapshot& operator=(const RoutingSnapshot&) = delete;

  std::uint64_t version() const { return version_; }
  const std::shared_ptr<const PrtIndex>& index() const { return index_; }
  const std::shared_ptr<const Edge>& edge() const { return edge_; }

  /// Edge state for the deferred forward stage: with the control window
  /// pipelined into the match epoch, forwarding must read the membership
  /// as of the epoch's pin, not the live (possibly already mutated) maps.
  bool is_client(IfaceId interface_id) const {
    return edge_->clients.count(interface_id) > 0;
  }
  const std::vector<Xpe>* client_subscriptions(IfaceId interface_id) const {
    auto it = edge_->client_subs.find(interface_id);
    return it == edge_->client_subs.end() ? nullptr : &it->second;
  }

 private:
  std::uint64_t version_;
  std::shared_ptr<const PrtIndex> index_;
  std::shared_ptr<const Edge> edge_;
  std::shared_ptr<std::atomic<std::int64_t>> gauge_;
};

/// Holder of the current snapshot. publish() is the writer's single
/// atomic swap; current() is the readers' acquire load. The store never
/// blocks either side: retirement of the swapped-out snapshot is plain
/// shared_ptr refcounting, deferred until the last pinning epoch drops
/// its reference.
class SnapshotStore {
 public:
  SnapshotStore();
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  std::shared_ptr<const RoutingSnapshot> current() const {
    return current_.load(std::memory_order_acquire);
  }
  /// Single writer only.
  void publish(std::shared_ptr<const RoutingSnapshot> next) {
    current_.store(std::move(next), std::memory_order_release);
  }

  std::uint64_t version() const { return current()->version(); }
  /// Snapshots currently alive (current + any still pinned by epochs).
  std::int64_t live() const {
    return gauge_->load(std::memory_order_relaxed);
  }
  const std::shared_ptr<std::atomic<std::int64_t>>& gauge() const {
    return gauge_;
  }

 private:
  std::shared_ptr<std::atomic<std::int64_t>> gauge_;
  std::atomic<std::shared_ptr<const RoutingSnapshot>> current_;
};

}  // namespace xroute

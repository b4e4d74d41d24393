#include "router/routing_snapshot.hpp"

namespace xroute {

RoutingSnapshot::RoutingSnapshot(
    std::uint64_t version, std::shared_ptr<const PrtIndex> index,
    std::shared_ptr<const Edge> edge,
    std::shared_ptr<std::atomic<std::int64_t>> gauge)
    : version_(version),
      index_(std::move(index)),
      edge_(std::move(edge)),
      gauge_(std::move(gauge)) {
  if (gauge_) gauge_->fetch_add(1, std::memory_order_relaxed);
}

RoutingSnapshot::~RoutingSnapshot() {
  if (gauge_) gauge_->fetch_sub(1, std::memory_order_relaxed);
}

SnapshotStore::SnapshotStore()
    : gauge_(std::make_shared<std::atomic<std::int64_t>>(0)),
      current_(std::make_shared<const RoutingSnapshot>(
          0, std::make_shared<const PrtIndex>(),
          std::make_shared<const RoutingSnapshot::Edge>(), gauge_)) {}

}  // namespace xroute

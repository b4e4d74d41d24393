#include "router/match_scheduler.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace xroute {

namespace {

/// Calms the pipeline inside spin loops (PAUSE on x86); elsewhere a
/// plain compiler barrier keeps the load in the loop honest.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  asm volatile("" ::: "memory");
#endif
}

/// This thread's CPU time. Immune to preemption: when workers outnumber
/// cores, wall-clock "busy" intervals would include time spent
/// descheduled and overstate the work.
inline std::uint64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Spin iterations before a waiter gives up and parks on the condvar.
/// Epochs arrive back to back under batch load, so the spin almost
/// always wins there; an idle broker costs at most this much busy-wait
/// per epoch before the pool sleeps.
constexpr int kSpinIterations = 8192;

/// grid_ descriptor layout: epoch<<32 | batch-bit | task count.
constexpr std::uint64_t kGridBatchBit = 1ull << 31;
constexpr std::uint64_t kGridCountMask = kGridBatchBit - 1;

constexpr std::uint32_t epoch_tag(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

}  // namespace

MatchScheduler::MatchScheduler(Options options) : options_(options) {
  if (options_.threads < 1) options_.threads = 1;
  if (options_.shards < 1) options_.shards = 1;
  // Spinning for the next epoch only pays when the pool and the control
  // thread can actually run at once; on a core-starved machine a spinning
  // waiter steals the very core the work needs, so park immediately.
  const unsigned cores = std::thread::hardware_concurrency();
  spin_iterations_ =
      cores > options_.threads ? kSpinIterations : 0;
  queues_.reserve(options_.threads);
  stats_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
    stats_.push_back(std::make_unique<AtomicWorkerStats>());
  }
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

MatchScheduler::~MatchScheduler() {
  // A batch left in flight must drain before the pool is torn down (the
  // workers still hold the epoch's task pointers).
  if (batch_pending_ && pending_count_ > 0) wait_epoch();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void MatchScheduler::worker_loop(std::size_t worker_index) {
  AtomicWorkerStats& stats = *stats_[worker_index];
  std::uint64_t seen_generation = 0;
  // Private scratch, reused across every epoch this worker serves: the
  // interned symbols, the distinct-symbol list and the match cell all
  // keep their capacity, so a steady-state batch task allocates only its
  // exact-size result vector.
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint32_t> distinct;
  Prt::ShardMatch cell;
  for (;;) {
    // Wait for the next epoch: spin first (under batch load the next grid
    // is published within microseconds of the last one draining), then
    // park. idle_workers_ counts parked workers only; a spinning worker
    // touches nothing but this atomic, which is why the control thread
    // may stage the next grid while workers are still waking up.
    std::uint64_t gen;
    int spins = 0;
    while ((gen = generation_.load(std::memory_order_acquire)) ==
               seen_generation &&
           !shutdown_.load(std::memory_order_relaxed)) {
      if (++spins < spin_iterations_) {
        cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_workers_;
      work_cv_.wait(lock, [&] {
        return shutdown_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) != seen_generation;
      });
      --idle_workers_;
      spins = 0;
    }
    if (shutdown_.load(std::memory_order_relaxed)) return;
    seen_generation = gen;

    // The grid descriptor is epoch-tagged: if this worker woke so late
    // that the epoch it observed is already over (or was reclaimed for
    // staging), the tag mismatch sends it back to the wait loop instead
    // of letting it read a half-staged grid.
    const std::uint64_t grid = grid_.load(std::memory_order_relaxed);
    if (epoch_tag(grid) != static_cast<std::uint32_t>(gen)) continue;
    const bool batch = (grid & kGridBatchBit) != 0;
    const std::size_t shards = options_.shards;
    const std::size_t queue_count = queues_.size();

    // Drain the queues: own queue first (uncontended CAS on a private
    // cache line), then steal round-robin from the others. Queues never
    // refill inside an epoch, so one pass over all of them is complete.
    // Accounting is per drain, not per task: a task can be tiny, so
    // per-task clock reads would rival the work itself.
    //
    // epoch_snapshot_ is a plain member, fetched lazily after the first
    // successful claim: a claim for `gen` can only succeed after staging
    // for `gen` restamped the cursors (the CAS is an RMW and sees the
    // latest value in modification order, so stale-generation claims
    // always fail), and the control thread set epoch_snapshot_ strictly
    // before publishing `gen` — so the read below never overlaps a write.
    const PrtIndex* index = nullptr;
    std::uint64_t claimed = 0;
    std::uint64_t stolen = 0;
    const std::uint64_t cpu_start = thread_cpu_ns();
    for (std::size_t offset = 0; offset < queue_count; ++offset) {
      WorkQueue& queue = *queues_[(worker_index + offset) % queue_count];
      const std::uint32_t queue_end = queue.end.load(std::memory_order_relaxed);
      std::uint64_t word = queue.cursor.load(std::memory_order_relaxed);
      while (epoch_tag(word) == static_cast<std::uint32_t>(gen)) {
        const std::uint32_t task = static_cast<std::uint32_t>(word);
        if (task >= queue_end) break;
        if (!queue.cursor.compare_exchange_weak(word, word + 1,
                                                std::memory_order_relaxed)) {
          continue;  // word was reloaded by the failed CAS
        }
        if (!index) index = epoch_snapshot_->index().get();
        if (batch) {
          // One publication: intern into worker scratch (the symbol table
          // only grows and its lookups take a shared lock), match against
          // the whole pinned index in a single call — the very routine a
          // sequential broker runs inline — and merge in place, all off
          // the control thread.
          Pub& pub = pubs_[task];
          index->match(intern_path(*pub.src, symbols), &distinct, &cell);
          pub.result.hops.assign(cell.hops.begin(), cell.hops.end());
          pub.result.merger_false_matches = cell.merger_false_matches;
          pub.result.comparisons = cell.comparisons;
        } else {
          // One shard of the single staged publication: latency-parallel
          // matching for the per-message path.
          Pub& pub = pubs_.front();
          pub.per_shard[task].clear();
          index->match_shard(pub.ip->view(), pub.distinct_symbols, task,
                             shards, &pub.per_shard[task]);
        }
        ++claimed;
        if (offset != 0) ++stolen;
        word = queue.cursor.load(std::memory_order_relaxed);
      }
    }
    if (claimed > 0) {
      const std::uint64_t busy = thread_cpu_ns() - cpu_start;
      stats.tasks.fetch_add(claimed, std::memory_order_relaxed);
      stats.busy_ns.fetch_add(busy, std::memory_order_relaxed);
      if (stolen > 0) stats.steals.fetch_add(stolen, std::memory_order_relaxed);
      stats.epoch_busy_ns.store(busy, std::memory_order_relaxed);
      // The release add publishes this drain's result writes (and the
      // epoch busy figure) to the control thread's acquire in run_epoch.
      const std::size_t count =
          static_cast<std::size_t>(grid & kGridCountMask);
      if (tasks_done_.fetch_add(claimed, std::memory_order_release) +
              claimed ==
          count) {
        // Last task of the epoch: the control thread may be parked.
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_one();
      }
    }
  }
}

std::uint64_t MatchScheduler::begin_staging() {
  // The previous epoch's completion wait saw tasks_done_ == task_count_
  // (acquire), so every claim was processed and no claim below a queue's
  // end can succeed again; restamping the cursors with the next epoch's
  // tag then voids stale claim attempts entirely. After this, pubs_ and
  // the routing tables are exclusively the control thread's.
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed) + 1;
  for (auto& queue : queues_) {
    queue->cursor.store(gen << 32, std::memory_order_relaxed);
    queue->end.store(0, std::memory_order_relaxed);
  }
  // pubs_ slots are recycled across epochs (only the first task_count_
  // are ever staged or read), so their hop/scratch capacity survives —
  // the steady-state epoch performs no allocation and, crucially, no
  // cross-thread free of worker-written result vectors.
  for (auto& stats : stats_) {
    stats->epoch_busy_ns.store(0, std::memory_order_relaxed);
  }
  return gen;
}

void MatchScheduler::stage_queues(std::uint64_t gen, std::size_t count) {
  task_count_ = count;
  const std::size_t queue_count = queues_.size();
  const std::size_t base = count / queue_count;
  const std::size_t extra = count % queue_count;
  std::size_t start = 0;
  for (std::size_t w = 0; w < queue_count; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    queues_[w]->cursor.store(gen << 32 | start, std::memory_order_relaxed);
    queues_[w]->end.store(static_cast<std::uint32_t>(start + len),
                          std::memory_order_relaxed);
    start += len;
  }
}

void MatchScheduler::launch_epoch(std::uint64_t gen) {
  // epoch_snapshot_ was set by the caller; the generation release store
  // is what publishes it (and the staged grid) to the waking workers.
  tasks_done_.store(0, std::memory_order_relaxed);
  generation_.store(gen, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (idle_workers_ > 0) work_cv_.notify_all();
  }
}

void MatchScheduler::wait_epoch() {
  // Completion: spin briefly (an epoch is typically tens to hundreds of
  // microseconds), then park on done_cv until the last worker signals.
  const std::size_t count = task_count_;
  int spins = 0;
  while (tasks_done_.load(std::memory_order_acquire) != count) {
    if (++spins < spin_iterations_) {
      cpu_relax();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return tasks_done_.load(std::memory_order_relaxed) == count;
    });
    spins = 0;
  }
  epochs_.fetch_add(1, std::memory_order_relaxed);
  // The busiest worker's CPU time is this epoch's contribution to the
  // match stage's critical path (workers are quiescent now; their final
  // epoch_busy_ns stores were published by the tasks_done_ release).
  std::uint64_t max_busy = 0;
  for (const auto& stats : stats_) {
    max_busy = std::max(
        max_busy, stats->epoch_busy_ns.load(std::memory_order_relaxed));
  }
  critical_path_ns_.fetch_add(max_busy, std::memory_order_relaxed);
  // Drop the pin: every worker finished its drain before the last
  // tasks_done_ release, so nobody reads epoch_snapshot_ any more. If
  // newer snapshots were published mid-epoch, this release is what
  // retires the old one.
  epoch_snapshot_.reset();
}

MatchScheduler::MatchResult MatchScheduler::merge_pub(const Pub& pub) const {
  // Concatenate in shard order, then canonicalize: the sorted result is
  // independent of which worker ran which shard.
  MatchResult out;
  std::size_t total = 0;
  for (const Prt::ShardMatch& shard : pub.per_shard) total += shard.hops.size();
  out.hops.reserve(total);
  for (const Prt::ShardMatch& shard : pub.per_shard) {
    out.hops.insert(out.hops.end(), shard.hops.begin(), shard.hops.end());
    out.merger_false_matches += shard.merger_false_matches;
    out.comparisons += shard.comparisons;
  }
  PrtIndex::canonicalize_hops(&out.hops);
  return out;
}

MatchScheduler::MatchResult MatchScheduler::match_one(
    const Path& path, std::shared_ptr<const RoutingSnapshot> snapshot) {
  const std::uint64_t gen = begin_staging();
  if (pubs_.empty()) pubs_.resize(1);
  Pub& pub = pubs_.front();
  pub.src = &path;
  pub.ip.emplace(path);
  PrtIndex::distinct_symbols(pub.ip->view(), &pub.distinct_symbols);
  pub.per_shard.resize(options_.shards);
  stage_queues(gen, options_.shards);
  grid_.store(gen << 32 | static_cast<std::uint64_t>(task_count_),
              std::memory_order_relaxed);
  epoch_snapshot_ = std::move(snapshot);
  launch_epoch(gen);
  wait_epoch();
  return merge_pub(pubs_.front());
}

void MatchScheduler::begin_batch(
    const std::vector<const Path*>& paths,
    std::shared_ptr<const RoutingSnapshot> snapshot) {
  if (batch_pending_) {
    throw std::logic_error("begin_batch: batch already in flight");
  }
  batch_pending_ = true;
  pending_count_ = paths.size();
  if (paths.empty()) return;
  const std::uint64_t gen = begin_staging();
  if (pubs_.size() < paths.size()) pubs_.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) pubs_[i].src = paths[i];
  stage_queues(gen, paths.size());
  grid_.store(gen << 32 | kGridBatchBit |
                  static_cast<std::uint64_t>(task_count_),
              std::memory_order_relaxed);
  epoch_snapshot_ = std::move(snapshot);
  launch_epoch(gen);
}

void MatchScheduler::finish_batch(std::vector<MatchResult>* out) {
  if (!batch_pending_) {
    throw std::logic_error("finish_batch: no batch in flight");
  }
  batch_pending_ = false;
  const std::size_t count = pending_count_;
  pending_count_ = 0;
  if (count == 0) {
    out->clear();
    return;
  }
  wait_epoch();
  out->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    MatchResult& dst = (*out)[i];
    Pub& pub = pubs_[i];
    // Swap, don't move: the slot inherits the caller's previous hop
    // buffer, so capacity circulates between the two sides and neither
    // thread frees memory the other allocated.
    dst.hops.swap(pub.result.hops);
    dst.merger_false_matches = pub.result.merger_false_matches;
    dst.comparisons = pub.result.comparisons;
  }
}

std::uint64_t MatchScheduler::total_tasks() const {
  std::uint64_t total = 0;
  for (const auto& stats : stats_) {
    total += stats->tasks.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t MatchScheduler::total_steals() const {
  std::uint64_t total = 0;
  for (const auto& stats : stats_) {
    total += stats->steals.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<MatchScheduler::WorkerStats> MatchScheduler::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(stats_.size());
  for (const auto& stats : stats_) {
    out.push_back(WorkerStats{stats->tasks.load(std::memory_order_relaxed),
                              stats->busy_ns.load(std::memory_order_relaxed),
                              stats->steals.load(std::memory_order_relaxed)});
  }
  return out;
}

}  // namespace xroute

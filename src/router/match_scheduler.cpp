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

/// grid_ descriptor layout: epoch<<32 | task count.
constexpr std::uint64_t kGridCountMask = (1ull << 32) - 1;

constexpr std::uint32_t epoch_tag(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

}  // namespace

MatchScheduler::MatchScheduler(std::size_t threads) {
  if (threads < 1) threads = 1;
  // Spinning for the next epoch only pays when the pool and the control
  // thread can actually run at once; on a core-starved machine a spinning
  // waiter steals the very core the work needs, so park immediately.
  const unsigned cores = std::thread::hardware_concurrency();
  spin_iterations_ = cores > threads ? kSpinIterations : 0;
  queues_.reserve(threads);
  stats_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
    stats_.push_back(std::make_unique<AtomicWorkerStats>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
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
  // keep their capacity.
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint32_t> distinct;
  PrtMatch cell;
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
    const std::size_t queue_count = queues_.size();

    // Drain the queues: own queue first (uncontended CAS on a private
    // cache line), then steal round-robin from the others. Queues never
    // refill inside an epoch, so one pass over all of them is complete.
    // Accounting is per drain, not per task: a task can be tiny, so
    // per-task clock reads would rival the work itself.
    //
    // epoch_index_ is a plain member, fetched lazily after the first
    // successful claim: a claim for `gen` can only succeed after staging
    // for `gen` restamped the cursors (the CAS is an RMW and sees the
    // latest value in modification order, so stale-generation claims
    // always fail), and the control thread set epoch_index_ strictly
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
        if (!index) index = epoch_index_.get();
        // One publication: intern into worker scratch (the symbol table
        // only grows and its lookups take a shared lock) and match it
        // against the whole pinned index in a single call — the very
        // routine a sequential broker runs inline — all off the control
        // thread. The scan writes the private cell; the slot array,
        // whose neighbouring slots other workers fill, is written once.
        index->match(intern_path(*paths_[task], symbols), &distinct, &cell);
        PrtMatch& slot = results_[task];
        slot.hops.assign(cell.hops.begin(), cell.hops.end());
        slot.inexact_hops.assign(cell.inexact_hops.begin(),
                                 cell.inexact_hops.end());
        slot.merger_false_matches = cell.merger_false_matches;
        slot.comparisons = cell.comparisons;
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
  // tag then voids stale claim attempts entirely. After this, the slots
  // are exclusively the control thread's.
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed) + 1;
  for (auto& queue : queues_) {
    queue->cursor.store(gen << 32, std::memory_order_relaxed);
    queue->end.store(0, std::memory_order_relaxed);
  }
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
  // epoch_index_ was set by the caller; the generation release store
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
  // tasks_done_ release, so nobody reads epoch_index_ any more. If the
  // table refreshed its index mid-epoch, this release is what frees the
  // old one.
  epoch_index_.reset();
}

void MatchScheduler::begin_batch(const std::vector<const Path*>& paths,
                                 std::shared_ptr<const PrtIndex> index) {
  if (batch_pending_) {
    throw std::logic_error("begin_batch: batch already in flight");
  }
  batch_pending_ = true;
  pending_count_ = paths.size();
  if (paths.empty()) return;
  const std::uint64_t gen = begin_staging();
  paths_.assign(paths.begin(), paths.end());
  if (results_.size() < paths.size()) results_.resize(paths.size());
  stage_queues(gen, paths.size());
  grid_.store(gen << 32 | static_cast<std::uint64_t>(task_count_),
              std::memory_order_relaxed);
  epoch_index_ = std::move(index);
  launch_epoch(gen);
}

void MatchScheduler::finish_batch(std::vector<PrtMatch>* out) {
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
    // Swap, don't move: the slot inherits the caller's previous hop
    // buffer, so capacity circulates between the two sides and neither
    // thread frees memory the other allocated.
    std::swap((*out)[i], results_[i]);
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

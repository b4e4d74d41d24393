// MatchScheduler — the parallel publication-matching engine.
//
// Publication matching is the broker's hot path and is embarrassingly
// parallel across publications: each one is matched whole against the
// PRT's compiled index (PrtIndex), the same immutable bucket map and the
// same kernel a sequential broker runs inline — no locks, no shared
// mutable state, identical comparison counts.
//
// The scheduler owns a fixed pool of worker threads and runs *epochs*: the
// control thread (the broker's single writer) stages a batch of
// publications, pins the compiled index it took from Prt::index() (a
// shared_ptr), and wakes the pool. Workers match against the pinned index
// only — never the live routing tables — so the control thread is free to
// keep mutating those tables *while the epoch runs*; there is no quiesce
// barrier on the control path. The pinned index stays alive (plain
// shared_ptr refcounting) until the epoch's completion wait drops the
// pin. Tasks are distributed via per-worker run queues:
// the control thread splits the batch into one contiguous chunk per
// worker, each worker drains its own queue (an uncontended CAS on its own
// cache line), and a worker that runs dry steals from the other queues —
// so a skewed batch (one expensive publication) still finishes at the
// speed of the pool, not of the unluckiest worker, and the common case
// never bounces a shared claim word between cores. Workers spin briefly
// for the next epoch before parking on the condvar: under batch load
// epochs arrive back to back, and futex wake/park latency would otherwise
// rival the matching work itself.
//
// Each worker keeps private scratch (symbol buffers, a match cell) across
// epochs and copies each result into the publication's slot, whose hop
// storage circulates with the caller's (finish_batch), so the
// steady-state batch path performs no heap allocation.
//
// Determinism: each publication's hop list comes out of PrtIndex::match
// sorted and deduplicated, and the broker's forward loop iterates it in
// that order — so the emitted forward sequence is byte-identical at any
// thread count (tests/parallel_test).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "router/iface.hpp"
#include "router/routing_tables.hpp"
#include "xml/paths.hpp"

namespace xroute {

class MatchScheduler {
 public:
  /// Monotonic per-worker counters (metrics export; relaxed reads).
  /// busy_ns is thread-CPU time (CLOCK_THREAD_CPUTIME_ID), not wall
  /// clock, so it stays honest when workers outnumber cores.
  struct WorkerStats {
    std::uint64_t tasks = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t steals = 0;
  };

  /// `threads >= 1` (BrokerOptions::validate() enforces it upstream).
  explicit MatchScheduler(std::size_t threads);
  ~MatchScheduler();
  MatchScheduler(const MatchScheduler&) = delete;
  MatchScheduler& operator=(const MatchScheduler&) = delete;

  /// Launches a batch epoch (one task per publication) pinned to `index`
  /// and returns immediately: the control thread is free to mutate the
  /// routing tables while the workers match — the pinned index itself
  /// never changes. Pair with finish_batch().
  void begin_batch(const std::vector<const Path*>& paths,
                   std::shared_ptr<const PrtIndex> index);

  /// Blocks until the epoch launched by begin_batch() drains, then fills
  /// `out` ((*out)[i] corresponds to paths[i]) and drops the index
  /// pin. `out` is resized to the batch and its entries' hop storage is
  /// recycled via swap with the internal per-slot buffers, so a caller
  /// that reuses the same vector across batches reaches a steady state
  /// with no allocation — and no cross-thread free of worker-allocated
  /// hop vectors on the control thread, which showed up as malloc arena
  /// traffic per publication.
  void finish_batch(std::vector<PrtMatch>* out);

  /// Epochs run since construction.
  std::uint64_t epochs() const {
    return epochs_.load(std::memory_order_relaxed);
  }
  /// Tasks (publications) matched since construction.
  std::uint64_t total_tasks() const;
  std::vector<WorkerStats> worker_stats() const;
  /// Tasks claimed from another worker's queue since construction.
  std::uint64_t total_steals() const;
  /// Sum over epochs of the busiest worker's CPU time in that epoch —
  /// the match stage's critical path. On a core-starved machine (cores <
  /// workers) wall-clock scaling is unmeasurable; this figure is what an
  /// unloaded machine's epoch wall time would be dominated by, and
  /// bench/parallel_match builds its labelled projection from it.
  std::uint64_t critical_path_ns() const {
    return critical_path_ns_.load(std::memory_order_relaxed);
  }

 private:
  /// One per worker, cache-line isolated: the owner claims with an
  /// uncontended CAS; thieves CAS the same word only after their own
  /// queue is dry. The epoch tag embedded in `cursor` makes claims from
  /// a finished epoch fail harmlessly instead of poaching the next
  /// grid's tasks.
  struct alignas(64) WorkQueue {
    /// epoch<<32 | next unclaimed task index.
    std::atomic<std::uint64_t> cursor{0};
    /// One past this queue's last task index. Atomic only so a stale
    /// worker's read during restaging is defined; relaxed everywhere.
    std::atomic<std::uint32_t> end{0};
  };

  void worker_loop(std::size_t worker_index);
  /// Publishes the staged queues as epoch `gen` and wakes the pool.
  /// epoch_index_ must be set before this call: the generation store
  /// is the release that makes it visible to the workers.
  void launch_epoch(std::uint64_t gen);
  /// Blocks until every task of the running epoch is done and drops the
  /// index pin. Afterwards the slots and the queues are exclusively the
  /// control thread's again.
  void wait_epoch();
  /// Restamps the queues for the upcoming epoch; returns the new epoch
  /// number. Call before staging.
  std::uint64_t begin_staging();
  /// Splits [0, count) contiguously across the worker queues.
  void stage_queues(std::uint64_t gen, std::size_t count);

  // Epoch state. The control thread stages the slots and the queues
  // between epochs (no claim can succeed then), publishes the grid
  // descriptor, and finally bumps generation_. Task i is publication i:
  // the claiming worker interns and matches paths_[i] in its private
  // scratch and fills results_[i], so the control thread's staging cost
  // per publication is one pointer. Slots are recycled across epochs
  // (only the first task_count_ are staged or read), so their hop
  // capacity survives.
  std::vector<const Path*> paths_;
  std::vector<PrtMatch> results_;
  std::size_t task_count_ = 0;  ///< control thread only
  /// The index this epoch matches against. Written by the control
  /// thread strictly before the generation_ release store; read by
  /// workers only after a successful task claim for that generation (a
  /// claim can only succeed after staging restamped the cursors, and the
  /// control thread never restages before the completion wait returns) —
  /// so plain, non-atomic access is race-free. Reset at wait_epoch() end;
  /// between begin_batch and finish_batch it carries the pin that keeps
  /// the index alive while control ops refresh the table's own.
  std::shared_ptr<const PrtIndex> epoch_index_;
  bool batch_pending_ = false;    ///< control thread only
  std::size_t pending_count_ = 0; ///< control thread only
  std::vector<std::unique_ptr<WorkQueue>> queues_;
  /// epoch<<32 | task count — the grid descriptor workers read instead
  /// of racing on plain members.
  std::atomic<std::uint64_t> grid_{0};
  std::atomic<std::size_t> tasks_done_{0};

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers park here between epochs
  std::condition_variable done_cv_;  ///< control thread blocks here
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> shutdown_{false};
  std::size_t idle_workers_ = 0;  ///< guarded by mutex_ (park accounting)

  struct AtomicWorkerStats {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> steals{0};
    /// This epoch's drain CPU time; zeroed by the control thread during
    /// staging, published by the worker's tasks_done_ release.
    std::atomic<std::uint64_t> epoch_busy_ns{0};
  };
  std::vector<std::unique_ptr<AtomicWorkerStats>> stats_;
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> critical_path_ns_{0};
  /// Spin budget before parking; 0 on machines with too few cores for
  /// the pool (spinning there steals the core the work needs).
  int spin_iterations_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace xroute

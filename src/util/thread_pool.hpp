// A persistent worker pool with a blocking parallel_for, in the OpenMP
// "parallel for" idiom: the caller thread participates, work is split into
// contiguous index ranges, and the call returns only when every range is
// done. Used by the tensor kernels; the communicator layer has its own
// dedicated rank threads and does not go through this pool.
//
// Wake and join spin before they park: after a region, workers poll for
// the next one, and the caller polls for the workers to leave its task,
// for a bounded time on the clock (kSpin in thread_pool.cpp) before they
// block on a condvar. Back-to-back regions, as a training step issues
// them, then fork and join without a futex round trip. A worker that
// wakes after the caller finished every chunk never touches the task:
// the caller unpublishes it and waits only for workers already inside.
//
// Compute shares: in-process rank threads (`comm::run_ranks`, the elastic
// supervisor's attempt workers) and the step loops each install a
// ComputeShare, which gives the rank a fixed, disjoint slice of the
// hardware — inline execution when the world fills the cores, a private
// pool when it leaves spare cores per rank, and the global pool at world
// 1 with no loader workers. A step loop's loader workers leave its share:
// they render on cores of their own instead of preempting kernel workers,
// which a spinning pool would make costly. The free parallel_for runs on
// the calling thread's share.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace geofm {

class ThreadPool {
 public:
  /// Creates `n_workers` persistent threads. n_workers == 0 means run
  /// everything inline on the caller (useful for debugging).
  explicit ThreadPool(int n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int n_workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(begin, end) over disjoint subranges of [0, n) across the pool
  /// plus the calling thread; blocks until all subranges complete.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  ///
  /// `grain` is a minimum chunk size hint: no dispatched subrange is
  /// smaller than `grain` indices (except the final remainder), and when
  /// n <= grain the whole range runs inline on the caller — the
  /// single-chunk bypass — without touching the dispatch lock, so small
  /// kernels don't pay fan-out overhead. grain == 0 keeps the legacy
  /// heuristic (inline below 512 indices, ~4 chunks per participant).
  ///
  /// One region owns the pool at a time: a concurrent caller runs its
  /// whole range inline, and a region nested inside a chunk (on the
  /// caller or on a worker) runs inline too. Rank threads do not contend
  /// here at all: each uses its own ComputeShare.
  void parallel_for(i64 n, const std::function<void(i64, i64)>& fn,
                    i64 grain = 0);

  /// Process-wide pool of hardware_participants() - 1 workers; created on
  /// first use.
  static ThreadPool& global();

  /// Compute participants of this process (caller included):
  /// GEOFM_NUM_THREADS when set, else the hardware concurrency; >= 1.
  static int hardware_participants();

  /// The pool the calling thread's parallel_for runs on: its installed
  /// ComputeShare, else global().
  static ThreadPool& current();

 private:
  struct Task {
    const std::function<void(i64, i64)>* fn = nullptr;
    i64 n = 0;
    i64 chunk = 0;
    std::atomic<i64> next_index{0};
  };

  void worker_loop();
  static void run_chunks(Task& task);

  std::vector<std::thread> threads_;
  std::mutex dispatch_mu_;  // serializes parallel regions; busy => inline
  std::mutex mu_;           // parking, and first_error_
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::atomic<Task*> current_{nullptr};  // published region, or none
  std::atomic<u64> generation_{0};       // bumped once per region
  std::atomic<int> in_flight_{0};        // workers that may touch current_
  std::atomic<int> parked_{0};           // workers blocked on cv_start_
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> stop_{false};
  std::exception_ptr first_error_;
};

/// RAII: runs the calling thread's parallel_for on `pool` until
/// destruction, then restores the previous pool. Pins a participant count
/// (pool.n_workers() + 1) for tests and benchmarks; ranks use
/// ComputeShare.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool& pool);
  ~ScopedPool();

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* saved_ = nullptr;
};

/// Participants (caller included) each rank of an in-process world of
/// `world` ranks may use out of `hw`, after the rank's own
/// `loader_workers` take a core each: hw / world - loader_workers, at
/// least 1 (inline).
int compute_share(int world, int hw, int loader_workers = 0);

/// RAII: installs the calling thread's compute share for a rank of a
/// world of `world` ranks that feeds on `loader_workers` loader threads
/// (hardware_participants() as `hw`), and restores the previous one on
/// destruction. Share 1 runs the thread's parallel_for inline, a share of
/// all of `hw` keeps the global pool, and any other share s gives the
/// thread a private pool of s - 1 workers, or keeps the enclosing share's
/// pool when that already has s participants (a step loop inside the
/// elastic attempt that installed the same share). The checkpoint writer,
/// the telemetry sampler and the serving threads are not counted.
class ComputeShare {
 public:
  explicit ComputeShare(int world, int loader_workers = 0);
  ~ComputeShare();

  ComputeShare(const ComputeShare&) = delete;
  ComputeShare& operator=(const ComputeShare&) = delete;

  /// Participants this thread's regions ran with, the thread included:
  /// this share's, or the fewest of a share installed inside it and
  /// already gone (the step loop's, after its loader took cores).
  int threads() const { return threads_; }

 private:
  int threads_ = 1;
  // Declared before scope_, so the previous pool is back in place before
  // the private pool joins its workers.
  std::unique_ptr<ThreadPool> own_;
  std::optional<ScopedPool> scope_;  // empty: the enclosing pool is kept
  ComputeShare* parent_ = nullptr;   // the enclosing share on this thread
};

/// Convenience wrapper over the calling thread's pool (ThreadPool::current).
/// `grain` as in ThreadPool::parallel_for: minimum chunk size, n <= grain
/// runs inline.
void parallel_for(i64 n, const std::function<void(i64, i64)>& fn,
                  i64 grain = 0);

}  // namespace geofm

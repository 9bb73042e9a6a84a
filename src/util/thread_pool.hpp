// A persistent worker pool with a blocking parallel_for, in the OpenMP
// "parallel for" idiom: the caller thread participates, work is split into
// contiguous index ranges, and the call returns only when every range is
// done. Used by the tensor kernels; the communicator layer has its own
// dedicated rank threads and does not go through this pool.
//
// Compute shares: in-process rank threads (`comm::run_ranks`, the elastic
// supervisor's attempt workers) each install a ComputeShare, which gives
// the rank a fixed, disjoint slice of the hardware — inline execution
// when the world fills the cores, a private pool when it leaves spare
// cores per rank, and the global pool at world 1. The free parallel_for
// runs on the calling thread's share.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
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
    std::atomic<int> remaining{0};
  };

  void worker_loop();
  static void run_chunks(Task& task);

  std::vector<std::thread> threads_;
  std::mutex dispatch_mu_;  // serializes parallel regions; busy => inline
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Task* current_ = nullptr;
  u64 generation_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Participants (caller included) each rank of an in-process world of
/// `world` ranks may use out of `hw`: all of `hw` at world 1, else an
/// equal share hw / world, at least 1 (inline).
int compute_share(int world, int hw);

/// RAII: installs the calling rank thread's compute share for a world of
/// `world` ranks (hardware_participants() as `hw`) and restores the
/// previous one on destruction. Share 1 runs the rank's parallel_for
/// inline, share s > 1 gives the rank a private pool of s - 1 workers,
/// and world 1 keeps the global pool. Loader workers and other helper
/// threads are not counted against the shares.
class ComputeShare {
 public:
  explicit ComputeShare(int world);
  ~ComputeShare();

  ComputeShare(const ComputeShare&) = delete;
  ComputeShare& operator=(const ComputeShare&) = delete;

  /// Participants of this rank, the calling thread included.
  int threads() const { return threads_; }

 private:
  int threads_ = 1;
  std::unique_ptr<ThreadPool> own_;  // the private pool of share > 1
  ThreadPool* saved_ = nullptr;
};

/// Convenience wrapper over the calling thread's pool (ThreadPool::current).
/// `grain` as in ThreadPool::parallel_for: minimum chunk size, n <= grain
/// runs inline.
void parallel_for(i64 n, const std::function<void(i64, i64)>& fn,
                  i64 grain = 0);

}  // namespace geofm

#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace geofm {
namespace {

// The calling thread's pool; nullptr means ThreadPool::global().
thread_local ThreadPool* t_pool = nullptr;

// Zero workers: every region runs inline on its caller, lock-free.
ThreadPool& inline_pool() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(int n_workers) {
  GEOFM_CHECK(n_workers >= 0);
  threads_.reserve(static_cast<size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_chunks(Task& task) {
  for (;;) {
    const i64 begin = task.next_index.fetch_add(task.chunk);
    if (begin >= task.n) break;
    const i64 end = std::min<i64>(begin + task.chunk, task.n);
    (*task.fn)(begin, end);
  }
}

void ThreadPool::worker_loop() {
  // Regions nested inside a chunk run inline on this worker.
  t_pool = &inline_pool();
  u64 seen = 0;
  for (;;) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = current_;
    }
    if (task == nullptr) continue;
    try {
      run_chunks(*task);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (task->remaining.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(i64 n, const std::function<void(i64, i64)>& fn,
                              i64 grain) {
  GEOFM_CHECK(grain >= 0, "parallel_for grain must be non-negative");
  if (n <= 0) return;
  const int workers = n_workers();
  // Single-chunk bypass: loops at or below the grain (or the legacy 512
  // threshold when no grain is given) never pay dispatch or fan-out cost.
  if (workers == 0 || (grain > 0 ? n <= grain : n < 512)) {
    fn(0, n);
    return;
  }

  // Only one parallel region may own the pool at a time: a concurrent
  // caller runs its whole range inline while the first one holds every
  // worker. Rank threads avoid that race by each using its own
  // ComputeShare instead of this pool.
  std::unique_lock<std::mutex> dispatch(dispatch_mu_, std::try_to_lock);
  if (!dispatch.owns_lock()) {
    fn(0, n);
    return;
  }

  Task task;
  task.fn = &fn;
  task.n = n;
  // Aim for ~4 chunks per participant for dynamic balance without
  // excessive atomics traffic, but never carve chunks below the grain.
  task.chunk = std::max<i64>(std::max<i64>(1, grain),
                             n / (static_cast<i64>(workers + 1) * 4));
  task.remaining.store(workers);

  {
    std::lock_guard<std::mutex> lk(mu_);
    first_error_ = nullptr;
    current_ = &task;
    ++generation_;
  }
  cv_start_.notify_all();

  // The caller participates instead of idling; regions nested inside
  // its chunks run inline, as on the workers.
  std::exception_ptr caller_error;
  ThreadPool* const outer = t_pool;
  t_pool = &inline_pool();
  try {
    run_chunks(task);
  } catch (...) {
    caller_error = std::current_exception();
  }
  t_pool = outer;

  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return task.remaining.load() == 0; });
    current_ = nullptr;
    if (caller_error) std::rethrow_exception(caller_error);
    if (first_error_) std::rethrow_exception(first_error_);
  }
}

int ThreadPool::hardware_participants() {
  static const int hw = [] {
    if (const char* env = std::getenv("GEOFM_NUM_THREADS")) {
      return std::max(1, std::atoi(env));
    }
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }();
  return hw;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(hardware_participants() - 1);
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_pool != nullptr ? *t_pool : global();
}

int compute_share(int world, int hw) {
  GEOFM_CHECK(world >= 1 && hw >= 1,
              "compute_share(world " << world << ", hw " << hw << ")");
  return world == 1 ? hw : std::max(1, hw / world);
}

ComputeShare::ComputeShare(int world)
    : threads_(compute_share(world, ThreadPool::hardware_participants())),
      saved_(t_pool) {
  if (world == 1) {
    t_pool = nullptr;  // the global pool, as for any unranked thread
  } else if (threads_ == 1) {
    t_pool = &inline_pool();
  } else {
    own_ = std::make_unique<ThreadPool>(threads_ - 1);
    t_pool = own_.get();
  }
}

ComputeShare::~ComputeShare() { t_pool = saved_; }

void parallel_for(i64 n, const std::function<void(i64, i64)>& fn, i64 grain) {
  ThreadPool::current().parallel_for(n, fn, grain);
}

}  // namespace geofm

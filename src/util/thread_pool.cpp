#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

namespace geofm {
namespace {

// The calling thread's pool; nullptr means ThreadPool::global().
thread_local ThreadPool* t_pool = nullptr;

// The innermost ComputeShare installed on this thread, if any.
thread_local ComputeShare* t_share = nullptr;

// Zero workers: every region runs inline on its caller, lock-free.
ThreadPool& inline_pool() {
  static ThreadPool pool(0);
  return pool;
}

// How long a worker polls for the next region, and a caller for its
// workers to finish, before blocking on a condvar. Measured on the clock
// so it means the same time on any core. Long enough to span the serial
// gaps between a training step's regions (tens of microseconds), short
// enough that an idle pool stops polling almost at once.
constexpr std::chrono::microseconds kSpin{100};

// Polls `ready` for up to kSpin; true once it holds. Each poll yields, so
// a spinning thread gives its core to any runnable thread there (another
// process's, on a loaded box) instead of holding it for its time slice.
template <class Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
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
  stop_.store(true);
  {
    // Orders the store before a parking worker's predicate check.
    std::lock_guard<std::mutex> lk(mu_);
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
  const auto fresh = [&] { return stop_.load() || generation_.load() != seen; };
  for (;;) {
    if (!spin_until(fresh)) {
      // parked_ is raised before the predicate reads generation_, and the
      // caller bumps generation_ before it reads parked_: one of the two
      // sees the other, so a region is never published past a sleeper.
      std::unique_lock<std::mutex> lk(mu_);
      parked_.fetch_add(1);
      cv_start_.wait(lk, fresh);
      parked_.fetch_sub(1);
    }
    if (stop_.load()) return;
    seen = generation_.load();
    // Announce before looking: a caller that unpublished its task either
    // is seen here as nullptr or waits for this worker to leave.
    in_flight_.fetch_add(1);
    if (Task* task = current_.load()) {
      try {
        run_chunks(*task);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    if (in_flight_.fetch_sub(1) == 1 && caller_parked_.load()) {
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
  {
    std::lock_guard<std::mutex> lk(mu_);
    first_error_ = nullptr;
  }
  current_.store(&task);
  generation_.fetch_add(1);
  if (parked_.load() > 0) {
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_start_.notify_all();
  }

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

  // Every chunk is claimed: unpublish, then wait only for the workers
  // that got in before that.
  current_.store(nullptr);
  const auto drained = [&] { return in_flight_.load() == 0; };
  if (!spin_until(drained)) {
    std::unique_lock<std::mutex> lk(mu_);
    caller_parked_.store(true);
    cv_done_.wait(lk, drained);
    caller_parked_.store(false);
  }
  if (caller_error) std::rethrow_exception(caller_error);
  std::lock_guard<std::mutex> lk(mu_);
  if (first_error_) std::rethrow_exception(first_error_);
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

ScopedPool::ScopedPool(ThreadPool& pool) : saved_(t_pool) { t_pool = &pool; }

ScopedPool::~ScopedPool() { t_pool = saved_; }

int compute_share(int world, int hw, int loader_workers) {
  GEOFM_CHECK(world >= 1 && hw >= 1 && loader_workers >= 0,
              "compute_share(world " << world << ", hw " << hw
                                     << ", loader workers " << loader_workers
                                     << ")");
  return std::max(1, hw / world - loader_workers);
}

ComputeShare::ComputeShare(int world, int loader_workers) : parent_(t_share) {
  const int hw = ThreadPool::hardware_participants();
  threads_ = compute_share(world, hw, loader_workers);
  if (threads_ == hw) {
    scope_.emplace(ThreadPool::global());
  } else if (threads_ == 1) {
    scope_.emplace(inline_pool());
  } else if (t_pool == nullptr || t_pool->n_workers() + 1 != threads_) {
    own_ = std::make_unique<ThreadPool>(threads_ - 1);
    scope_.emplace(*own_);
  }
  t_share = this;
}

ComputeShare::~ComputeShare() {
  t_share = parent_;
  if (parent_ != nullptr) {
    parent_->threads_ = std::min(parent_->threads_, threads_);
  }
}

void parallel_for(i64 n, const std::function<void(i64, i64)>& fn, i64 grain) {
  ThreadPool::current().parallel_for(n, fn, grain);
}

}  // namespace geofm

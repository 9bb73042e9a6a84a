#include "comm/communicator.hpp"

#include <algorithm>
#include <numeric>
#include <thread>

#include "comm/fault.hpp"
#include "comm/watchdog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_context.hpp"
#include "util/thread_pool.hpp"

namespace geofm::comm {
namespace {

// Static span names per collective kind (trace names must be literals).
const char* post_name(detail::PendingOp::Kind k) {
  using Kind = detail::PendingOp::Kind;
  switch (k) {
    case Kind::kAllReduce: return "comm.post.all_reduce";
    case Kind::kAllGather: return "comm.post.all_gather";
    case Kind::kReduceScatter: return "comm.post.reduce_scatter";
    case Kind::kBroadcast: return "comm.post.broadcast";
  }
  return "comm.post";
}

const char* wait_name(detail::PendingOp::Kind k) {
  using Kind = detail::PendingOp::Kind;
  switch (k) {
    case Kind::kAllReduce: return "comm.wait.all_reduce";
    case Kind::kAllGather: return "comm.wait.all_gather";
    case Kind::kReduceScatter: return "comm.wait.reduce_scatter";
    case Kind::kBroadcast: return "comm.wait.broadcast";
  }
  return "comm.wait";
}

const char* execute_name(detail::PendingOp::Kind k) {
  using Kind = detail::PendingOp::Kind;
  switch (k) {
    case Kind::kAllReduce: return "comm.execute.all_reduce";
    case Kind::kAllGather: return "comm.execute.all_gather";
    case Kind::kReduceScatter: return "comm.execute.reduce_scatter";
    case Kind::kBroadcast: return "comm.execute.broadcast";
  }
  return "comm.execute";
}

const char* op_label(detail::PendingOp::Kind k) {
  using Kind = detail::PendingOp::Kind;
  switch (k) {
    case Kind::kAllReduce: return "all_reduce";
    case Kind::kAllGather: return "all_gather";
    case Kind::kReduceScatter: return "reduce_scatter";
    case Kind::kBroadcast: return "broadcast";
  }
  return "collective";
}

}  // namespace

namespace detail {

LeaderBarrier::LeaderBarrier(int n)
    : n_(n), in_(static_cast<size_t>(n), 0) {
  GEOFM_CHECK(n > 0);
}

void LeaderBarrier::arrive(int rank, const std::function<void()>& leader) {
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) throw Aborted("communicator aborted: " + abort_reason_);
  if (arrived_ == 0) round_start_ = std::chrono::steady_clock::now();
  in_[static_cast<size_t>(rank)] = 1;
  if (++arrived_ == n_) {
    if (leader) leader();
    arrived_ = 0;
    std::fill(in_.begin(), in_.end(), 0);
    ++generation_;
    cv_.notify_all();
  } else {
    const u64 gen = generation_;
    cv_.wait(lk, [&] { return generation_ != gen || aborted_; });
    if (generation_ == gen && aborted_) {
      throw Aborted("communicator aborted: " + abort_reason_);
    }
  }
}

void LeaderBarrier::abort(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!aborted_) {
      aborted_ = true;
      abort_reason_ = reason;
    }
  }
  cv_.notify_all();
}

LeaderBarrier::Status LeaderBarrier::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  Status s;
  s.arrived = arrived_;
  if (arrived_ > 0) {
    s.oldest_wait_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      round_start_)
            .count();
    for (int r = 0; r < n_; ++r) {
      if (!in_[static_cast<size_t>(r)]) s.missing.push_back(r);
    }
  }
  return s;
}

PendingOp::PendingOp(Kind k, ReduceOp r, int n_ranks)
    : kind(k),
      red(r),
      n(n_ranks),
      src(static_cast<size_t>(n_ranks), nullptr),
      dst(static_cast<size_t>(n_ranks), nullptr),
      counts(static_cast<size_t>(n_ranks), 0),
      joined(static_cast<size_t>(n_ranks), 0) {}

CommGroup::CommGroup(int n)
    : size(n),
      barrier(n),
      global_ranks(static_cast<size_t>(n)),
      next_ticket(static_cast<size_t>(n), 0),
      heartbeat(std::make_unique<RankClock[]>(static_cast<size_t>(n))),
      colors(static_cast<size_t>(n), 0),
      keys(static_cast<size_t>(n), 0) {
  std::iota(global_ranks.begin(), global_ranks.end(), 0);
}

CommGroup::~CommGroup() { stop_watchdog(*this); }

// Recursively poisons a group and every subgroup split from it. The
// aborted flag is published under async_mu (post checks it there before
// inserting a new op), so no op can join the inflight map after the sweep
// below misses it; the barrier is poisoned last so a rank released from a
// collective cannot re-block on a rendezvous that will never fill.
void abort_group(CommGroup& g, const std::string& reason,
                 const char* flight_kind) {
  std::vector<std::shared_ptr<PendingOp>> ops;
  std::vector<u64> tickets;
  std::vector<int> suspects;
  bool first_abort = false;
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (!g.aborted) {
      g.aborted = true;
      g.abort_reason = reason;
      first_abort = true;
    }
    ops.reserve(g.inflight.size());
    for (auto& [ticket, op] : g.inflight) {
      ops.push_back(op);
      tickets.push_back(ticket);
    }
    suspects = g.suspects;
  }
  // Flight recorder: the first abort of a cascade freezes the rendezvous
  // state — who joined each in-flight op, who is missing, how long the
  // oldest waiter has been stuck — *before* the poisoning below destroys
  // it. The capture itself happens after the sweep so blocked ranks are
  // released first (evidence gathering must never delay the abort).
  const bool flight =
      first_abort && obs::FlightRecorder::instance().enabled();
  std::vector<obs::InflightOpState> frozen;
  std::vector<obs::BarrierState> frozen_barriers;
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ops.size(); ++i) {
    auto& op = ops[i];
    std::lock_guard<std::mutex> lk(op->mu);
    if (flight && !op->complete && op->arrived > 0 && op->arrived < op->n) {
      obs::InflightOpState st;
      st.ticket = tickets[i];
      st.op = op_label(op->kind);
      st.arrived = op->arrived;
      st.size = op->n;
      st.age_seconds =
          std::chrono::duration<double>(now - op->first_join_tp).count();
      for (int r = 0; r < op->n; ++r) {
        if (!op->joined[static_cast<size_t>(r)]) {
          st.missing.push_back(g.global_ranks[static_cast<size_t>(r)]);
        }
      }
      frozen.push_back(std::move(st));
    }
    if (!op->error) {
      op->error =
          std::make_exception_ptr(Aborted("communicator aborted: " + reason));
    }
    if (!op->complete) {
      op->complete = true;
      op->complete_tp = std::chrono::steady_clock::now();
    }
    op->cv.notify_all();
  }
  if (flight) {
    const auto bs = g.barrier.status();
    if (bs.arrived > 0) {
      obs::BarrierState st;
      st.arrived = bs.arrived;
      st.size = g.size;
      st.oldest_wait_seconds = bs.oldest_wait_seconds;
      for (const int r : bs.missing) {
        st.missing.push_back(g.global_ranks[static_cast<size_t>(r)]);
      }
      frozen_barriers.push_back(std::move(st));
    }
  }
  g.barrier.abort(reason);
  if (flight) {
    obs::FlightRecorder::instance().capture(flight_kind, reason, suspects,
                                            std::move(frozen),
                                            std::move(frozen_barriers));
  }
  std::vector<std::shared_ptr<CommGroup>> children;
  {
    std::lock_guard<std::mutex> lk(g.split_mu);
    children.reserve(g.subgroups.size());
    for (auto& [key, sub] : g.subgroups) children.push_back(sub);
  }
  for (auto& sub : children) abort_group(*sub, reason, flight_kind);
}

namespace {

void install_injector(CommGroup& g,
                      const std::shared_ptr<FaultInjector>& injector) {
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    g.injector = injector;
  }
  std::vector<std::shared_ptr<CommGroup>> children;
  {
    std::lock_guard<std::mutex> lk(g.split_mu);
    children.reserve(g.subgroups.size());
    for (auto& [key, sub] : g.subgroups) children.push_back(sub);
  }
  for (auto& sub : children) install_injector(*sub, injector);
}

// Executes a fully-joined op on the calling (last-arriving) thread. All
// reductions run in rank order into op-owned scratch, so results are
// bitwise deterministic and identical on every rank. Throws on cross-rank
// shape mismatches; the caller converts that into an op error.
void execute_op(PendingOp& op) {
  const i64 n0 = op.counts[0];
  switch (op.kind) {
    case PendingOp::Kind::kAllReduce: {
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "all_reduce size mismatch across ranks");
      }
      // src may alias dst (in-place), so reduce into scratch first.
      std::vector<float> scratch(static_cast<size_t>(n0));
      if (op.red == ReduceOp::kMax) {
        std::copy_n(op.src[0], n0, scratch.data());
        for (int r = 1; r < op.n; ++r) {
          const float* s = op.src[static_cast<size_t>(r)];
          for (i64 i = 0; i < n0; ++i) {
            scratch[static_cast<size_t>(i)] =
                std::max(scratch[static_cast<size_t>(i)], s[i]);
          }
        }
      } else {
        std::fill(scratch.begin(), scratch.end(), 0.f);
        for (int r = 0; r < op.n; ++r) {
          const float* s = op.src[static_cast<size_t>(r)];
          for (i64 i = 0; i < n0; ++i) scratch[static_cast<size_t>(i)] += s[i];
        }
        if (op.red == ReduceOp::kAvg) {
          const float inv = 1.f / static_cast<float>(op.n);
          for (float& v : scratch) v *= inv;
        }
      }
      for (int r = 0; r < op.n; ++r) {
        std::copy_n(scratch.data(), n0, op.dst[static_cast<size_t>(r)]);
      }
      break;
    }
    case PendingOp::Kind::kAllGather: {
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "all_gather shard size mismatch across ranks");
      }
      for (int d = 0; d < op.n; ++d) {
        float* out = op.dst[static_cast<size_t>(d)];
        for (int r = 0; r < op.n; ++r) {
          std::copy_n(op.src[static_cast<size_t>(r)], n0,
                      out + static_cast<i64>(r) * n0);
        }
      }
      break;
    }
    case PendingOp::Kind::kReduceScatter: {
      GEOFM_CHECK(op.red != ReduceOp::kMax,
                  "reduce_scatter kMax not supported");
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "reduce_scatter input size mismatch across ranks");
      }
      GEOFM_CHECK(n0 % op.n == 0, "reduce_scatter size not divisible");
      const i64 chunk = n0 / op.n;
      std::vector<float> scratch(static_cast<size_t>(chunk));
      for (int d = 0; d < op.n; ++d) {
        const i64 offset = static_cast<i64>(d) * chunk;
        std::fill(scratch.begin(), scratch.end(), 0.f);
        for (int r = 0; r < op.n; ++r) {
          const float* s = op.src[static_cast<size_t>(r)] + offset;
          for (i64 i = 0; i < chunk; ++i) scratch[static_cast<size_t>(i)] += s[i];
        }
        if (op.red == ReduceOp::kAvg) {
          const float inv = 1.f / static_cast<float>(op.n);
          for (float& v : scratch) v *= inv;
        }
        std::copy_n(scratch.data(), chunk, op.dst[static_cast<size_t>(d)]);
      }
      break;
    }
    case PendingOp::Kind::kBroadcast: {
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "broadcast size mismatch across ranks");
      }
      const float* root_src = op.src[static_cast<size_t>(op.root)];
      for (int d = 0; d < op.n; ++d) {
        if (d == op.root) continue;
        std::copy_n(root_src, n0, op.dst[static_cast<size_t>(d)]);
      }
      break;
    }
  }
}

}  // namespace
}  // namespace detail

bool CollectiveHandle::test() const {
  if (!op_) return true;
  std::lock_guard<std::mutex> lk(op_->mu);
  return op_->complete;
}

void CollectiveHandle::wait(CommStats* stats) {
  if (!op_) return;
  // Unaccounted waits (no stats sink, tracing off) take the bare fast
  // path: the comm.* metrics below mirror the CommStats accounting, so
  // traffic nobody measures costs no clock reads and no shared-cache-line
  // atomics (the micro-collective benches hammer exactly this path).
  if (stats == nullptr && !obs::trace_enabled()) {
    {
      std::unique_lock<std::mutex> lk(op_->mu);
      op_->cv.wait(lk, [&] { return op_->complete; });
    }
    std::exception_ptr err = op_->error;
    op_.reset();
    if (err) std::rethrow_exception(err);
    return;
  }

  // Category "comm.exposed" marks spans whose summed duration per rank is
  // the same quantity CommStats::exposed_wait_seconds accumulates (waits
  // called without stats are plain "comm" spans and belong to no one's
  // overlap accounting). The span wraps exactly the [t0, t1] clock reads,
  // so a preemption in the accounting below lands in neither sum.
  std::chrono::steady_clock::time_point t0, t1;
  bool was_complete;
  {
    obs::TraceScope span(wait_name(op_->kind),
                         stats != nullptr ? "comm.exposed" : "comm", "bytes",
                         count_ * static_cast<i64>(sizeof(float)));
    t0 = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lk(op_->mu);
      was_complete = op_->complete;
      op_->cv.wait(lk, [&] { return op_->complete; });
    }
    t1 = std::chrono::steady_clock::now();
  }
  const double blocked = std::chrono::duration<double>(t1 - t0).count();
  if (stats != nullptr) {
    ++stats->waits;
    if (was_complete) ++stats->completed_before_wait;
    stats->exposed_wait_seconds += blocked;
    const double busy =
        std::chrono::duration<double>(op_->complete_tp - issued_).count();
    stats->busy_seconds += busy > 0 ? busy : 0;
  }
  {
    static auto& waits = obs::MetricsRegistry::instance().counter("comm.waits");
    static auto& bytes = obs::MetricsRegistry::instance().counter("comm.bytes");
    static auto& exposed =
        obs::MetricsRegistry::instance().counter("comm.exposed_wait_seconds");
    static auto& hist =
        obs::MetricsRegistry::instance().histogram("comm.wait_seconds");
    waits.add(1);
    bytes.add(static_cast<double>(count_) * sizeof(float));
    if (stats != nullptr) exposed.add(blocked);
    hist.observe(blocked);
  }
  std::exception_ptr err = op_->error;
  op_.reset();
  if (err) std::rethrow_exception(err);
}

bool CollectiveHandle::wait_for(double seconds, CommStats* stats) {
  if (!op_) return true;
  const auto t0 = std::chrono::steady_clock::now();
  bool was_complete;
  {
    std::unique_lock<std::mutex> lk(op_->mu);
    was_complete = op_->complete;
    if (!op_->cv.wait_for(lk, std::chrono::duration<double>(seconds),
                          [&] { return op_->complete; })) {
      return false;  // still in flight; the handle stays pending
    }
  }
  if (stats != nullptr) {
    ++stats->waits;
    if (was_complete) ++stats->completed_before_wait;
    stats->exposed_wait_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double busy =
        std::chrono::duration<double>(op_->complete_tp - issued_).count();
    stats->busy_seconds += busy > 0 ? busy : 0;
  }
  std::exception_ptr err = op_->error;
  op_.reset();
  if (err) std::rethrow_exception(err);
  return true;
}

Communicator::Communicator(std::shared_ptr<detail::CommGroup> group, int rank)
    : group_(std::move(group)), rank_(rank) {
  GEOFM_CHECK(group_ != nullptr);
  GEOFM_CHECK(rank_ >= 0 && rank_ < group_->size, "rank out of range");
}

int Communicator::global_rank() const {
  return group_->global_ranks[static_cast<size_t>(rank_)];
}

void Communicator::barrier() {
  group_->heartbeat[static_cast<size_t>(rank_)].last_ns.store(
      static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count()),
      std::memory_order_relaxed);
  group_->barrier.arrive(rank_);
}

CollectiveHandle Communicator::post(detail::PendingOp::Kind kind, ReduceOp red,
                                    int root, const float* src, float* dst,
                                    i64 count) {
  using detail::PendingOp;
  auto& g = *group_;
  obs::TraceScope span(post_name(kind), "comm", "bytes",
                       count * static_cast<i64>(sizeof(float)), "ranks",
                       g.size);
  const auto issued = std::chrono::steady_clock::now();
  g.heartbeat[static_cast<size_t>(rank_)].last_ns.store(
      static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           issued.time_since_epoch())
                           .count()),
      std::memory_order_relaxed);

  std::shared_ptr<PendingOp> op;
  std::shared_ptr<FaultInjector> injector;
  u64 ticket;
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (g.aborted) {
      throw Aborted("communicator aborted: " + g.abort_reason);
    }
    ticket = g.next_ticket[static_cast<size_t>(rank_)]++;
    injector = g.injector;
    if (!injector) {
      auto it = g.inflight.find(ticket);
      if (it == g.inflight.end()) {
        op = std::make_shared<PendingOp>(kind, red, g.size);
        g.inflight.emplace(ticket, op);
      } else {
        op = it->second;
      }
    }
  }

  if (injector) {
    // Fault boundary: may delay this rank (stall/slow), corrupt its
    // contribution in place (simulated wire corruption — the buffer is
    // plain heap storage, const only through the collective's signature),
    // or kill the rank: abort peers, then unwind.
    const int grank = g.global_ranks[static_cast<size_t>(rank_)];
    const auto fault = injector->before_post(grank, op_label(kind),
                                             const_cast<float*>(src), count);
    if (fault.kill) {
      abort(fault.kill_reason, "fault_kill");
      throw RankKilled(fault.kill_reason, grank);
    }
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (g.aborted) {  // a peer may have died during our injected delay
      throw Aborted("communicator aborted: " + g.abort_reason);
    }
    auto it = g.inflight.find(ticket);
    if (it == g.inflight.end()) {
      op = std::make_shared<PendingOp>(kind, red, g.size);
      g.inflight.emplace(ticket, op);
    } else {
      op = it->second;
    }
  }

  bool execute = false;
  {
    std::lock_guard<std::mutex> lk(op->mu);
    // Join: publish buffers, detect cross-rank call mismatches (same group,
    // same ticket, different collective) without deadlocking anyone.
    if (op->kind != kind || (kind != PendingOp::Kind::kBroadcast &&
                             op->red != red)) {
      if (!op->error) {
        op->error = std::make_exception_ptr(
            Error("mismatched collective calls on communicator: ranks "
                  "disagree on the operation for the same ticket"));
      }
    }
    if (kind == PendingOp::Kind::kBroadcast) {
      if (op->root == -1) {
        op->root = root;
      } else if (op->root != root && !op->error) {
        op->error = std::make_exception_ptr(
            Error("broadcast root mismatch across ranks"));
      }
    }
    op->src[static_cast<size_t>(rank_)] = src;
    op->dst[static_cast<size_t>(rank_)] = dst;
    op->counts[static_cast<size_t>(rank_)] = count;
    if (op->arrived == 0) op->first_join_tp = issued;
    op->joined[static_cast<size_t>(rank_)] = 1;
    execute = (++op->arrived == op->n);
  }

  if (execute) {
    {
      // Fully joined: retire the ticket so the registry stays bounded.
      std::lock_guard<std::mutex> lk(g.async_mu);
      g.inflight.erase(ticket);
    }
    if (!op->error) {
      try {
        obs::TraceScope exec(execute_name(kind), "comm", "bytes",
                             count * static_cast<i64>(sizeof(float)));
        detail::execute_op(*op);
      } catch (...) {
        op->error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lk(op->mu);
      op->complete = true;
      op->complete_tp = std::chrono::steady_clock::now();
    }
    op->cv.notify_all();
  }
  return CollectiveHandle(std::move(op), issued, count);
}

CollectiveHandle Communicator::iall_reduce(Tensor& t, ReduceOp op) {
  return post(detail::PendingOp::Kind::kAllReduce, op, -1, t.data(), t.data(),
              t.numel());
}

CollectiveHandle Communicator::iall_gather(const Tensor& shard, Tensor& out) {
  GEOFM_CHECK(out.numel() == shard.numel() * group_->size,
              "all_gather output size mismatch");
  return post(detail::PendingOp::Kind::kAllGather, ReduceOp::kSum, -1,
              shard.data(), out.data(), shard.numel());
}

CollectiveHandle Communicator::ireduce_scatter(const Tensor& in, Tensor& shard,
                                               ReduceOp op) {
  GEOFM_CHECK(in.numel() == shard.numel() * group_->size,
              "reduce_scatter size mismatch");
  return post(detail::PendingOp::Kind::kReduceScatter, op, -1, in.data(),
              shard.data(), in.numel());
}

CollectiveHandle Communicator::ibroadcast(Tensor& t, int root) {
  GEOFM_CHECK(root >= 0 && root < group_->size,
              "broadcast root out of range");
  return post(detail::PendingOp::Kind::kBroadcast, ReduceOp::kSum, root,
              t.data(), t.data(), t.numel());
}

void Communicator::all_reduce(Tensor& t, ReduceOp op) {
  iall_reduce(t, op).wait();
}

void Communicator::all_gather(const Tensor& shard, Tensor& out) {
  iall_gather(shard, out).wait();
}

void Communicator::reduce_scatter(const Tensor& in, Tensor& shard,
                                  ReduceOp op) {
  ireduce_scatter(in, shard, op).wait();
}

void Communicator::broadcast(Tensor& t, int root) {
  ibroadcast(t, root).wait();
}

void Communicator::abort(const std::string& reason,
                         const char* flight_kind) {
  obs::trace_instant("comm.abort", "comm");
  detail::abort_group(*group_, reason, flight_kind);
}

bool Communicator::aborted() const {
  std::lock_guard<std::mutex> lk(group_->async_mu);
  return group_->aborted;
}

std::string Communicator::abort_reason() const {
  std::lock_guard<std::mutex> lk(group_->async_mu);
  return group_->abort_reason;
}

std::vector<int> Communicator::abort_suspects() const {
  std::lock_guard<std::mutex> lk(group_->async_mu);
  return group_->suspects;
}

void Communicator::install_fault_injector(
    std::shared_ptr<FaultInjector> injector) {
  detail::install_injector(*group_, injector);
}

Communicator Communicator::split(int color, int key) {
  auto& g = *group_;
  g.colors[static_cast<size_t>(rank_)] = color;
  g.keys[static_cast<size_t>(rank_)] = key;

  u64 seq = 0;
  g.barrier.arrive(rank_, [&] {
    // Subgroups inherit the parent's injector and map their ranks back to
    // root identities, so fault plans and watchdog diagnoses stay in
    // world-rank terms at every level of the hierarchy.
    std::shared_ptr<FaultInjector> injector;
    {
      std::lock_guard<std::mutex> alk(g.async_mu);
      injector = g.injector;
    }
    std::lock_guard<std::mutex> lk(g.split_mu);
    const u64 this_seq = g.split_seq++;
    // Group ranks by color, order by (key, old rank).
    std::map<int, std::vector<int>> by_color;
    for (int r = 0; r < g.size; ++r) {
      by_color[g.colors[static_cast<size_t>(r)]].push_back(r);
    }
    for (auto& [c, ranks] : by_color) {
      std::stable_sort(ranks.begin(), ranks.end(), [&](int a, int b) {
        return g.keys[static_cast<size_t>(a)] < g.keys[static_cast<size_t>(b)];
      });
      auto sub =
          std::make_shared<detail::CommGroup>(static_cast<int>(ranks.size()));
      for (size_t i = 0; i < ranks.size(); ++i) {
        sub->global_ranks[i] =
            g.global_ranks[static_cast<size_t>(ranks[i])];
      }
      sub->injector = injector;  // not yet published; no lock needed
      g.subgroups[{this_seq, c}] = sub;
      g.members[{this_seq, c}] = ranks;
    }
  });

  {
    // Every rank observes the same sequence number: it is the value the
    // leader consumed, i.e. split_seq - 1 after exactly one split.
    std::lock_guard<std::mutex> lk(g.split_mu);
    seq = g.split_seq - 1;
  }

  std::shared_ptr<detail::CommGroup> sub;
  int sub_rank = -1;
  {
    std::lock_guard<std::mutex> lk(g.split_mu);
    sub = g.subgroups.at({seq, color});
    const auto& ranks = g.members.at({seq, color});
    for (size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] == rank_) sub_rank = static_cast<int>(i);
    }
  }
  GEOFM_CHECK(sub_rank >= 0, "split bookkeeping failure");
  g.barrier.arrive(rank_);  // keep registries alive until everyone resolves
  return Communicator(sub, sub_rank);
}

std::shared_ptr<detail::CommGroup> make_group(int n_ranks) {
  GEOFM_CHECK(n_ranks > 0);
  return std::make_shared<detail::CommGroup>(n_ranks);
}

void run_ranks(int n_ranks, const std::function<void(Communicator&)>& fn) {
  auto group = make_group(n_ranks);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n_ranks));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < n_ranks; ++r) {
    threads.emplace_back([&, r] {
      set_thread_rank(r);
      obs::set_thread_label("rank");
      const ComputeShare share(n_ranks);
      obs::TraceScope span("rank.run", "runtime", "world", n_ranks, "threads",
                           share.threads());
      Communicator comm(group, r);
      try {
        fn(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // A step loop inside fn narrows the share by its loader workers.
      span.set_arg2(share.threads());
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace geofm::comm

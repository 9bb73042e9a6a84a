// In-process collective communication over thread ranks.
//
// This is geofm's stand-in for RCCL/NCCL: each "GPU rank" is a thread, and
// collectives are implemented over shared per-group progress state.
// Semantics match MPI/NCCL:
//   * every rank of a communicator must call the same collectives in the
//     same order (mismatched calls raise an error on every participant);
//   * reductions are performed in rank order, so results are deterministic
//     and identical on every rank.
//
// The engine is *nonblocking*: `iall_reduce` / `iall_gather` /
// `ireduce_scatter` / `ibroadcast` post the rank's buffers into a pending
// operation and return a `CollectiveHandle` immediately, so the rank thread
// keeps computing while the collective is in flight. Operations are matched
// across ranks by issue order on the communicator (rank r's k-th post pairs
// with every peer's k-th post); the last rank to join an operation executes
// the data movement and wakes all waiters. Any number of operations may be
// in flight per rank, and `wait()`s may complete out of issue order.
// Blocking collectives (`all_reduce`, ...) are post+wait wrappers.
//
// Sub-communicators (`split`, in the MPI_Comm_split idiom) provide the
// hierarchical process groups HYBRID_SHARD requires (intra-node sharding
// group x inter-node replication group); each group has its own matching
// sequence, so parent and child collectives interleave freely.
//
// Failure handling: `abort()` poisons a group (and its subgroups) so every
// blocked rendezvous — collective waits AND plain barriers — throws
// `Aborted` instead of deadlocking. A `FaultInjector`
// (`comm/fault.hpp`) can be installed under the communicator to replay a
// deterministic schedule of rank kills, stalls, latency, and payload
// corruption at the collective boundary, and a watchdog
// (`comm/watchdog.hpp`) monitors rendezvous progress and aborts the group
// with a diagnosis when a rank stalls past its deadline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/tensor.hpp"

namespace geofm::comm {

class FaultInjector;    // comm/fault.hpp
struct WatchdogOptions;  // comm/watchdog.hpp

enum class ReduceOp { kSum, kAvg, kMax };

/// Thrown by every rendezvous (post, wait, barrier, split) on a group that
/// has been aborted — by `Communicator::abort`, by the watchdog, or by a
/// fault-plan kill on a peer. Derives from Error so existing catch sites
/// keep working; catch Aborted specifically to tell "a peer died" from a
/// local programming error (the elastic supervisor does exactly that).
class Aborted : public Error {
 public:
  using Error::Error;
};

/// Per-rank accounting of nonblocking-collective cost, accumulated by
/// `CollectiveHandle::wait(&stats)`. `busy_seconds` is the wall time each
/// operation was in flight (issue -> completion); `exposed_wait_seconds` is
/// the part the rank actually spent blocked in wait(). The difference is
/// communication that was hidden behind compute.
struct CommStats {
  int waits = 0;
  int completed_before_wait = 0;  // handle was done before wait() was called
  double busy_seconds = 0;        // sum of per-op (completion - issue)
  double exposed_wait_seconds = 0;  // time blocked inside wait()

  double overlapped_seconds() const {
    const double d = busy_seconds - exposed_wait_seconds;
    return d > 0 ? d : 0;
  }
  void reset() { *this = CommStats{}; }
};

namespace detail {

struct CommGroup;

/// Sense-reversing N-party barrier. The last rank to arrive runs the
/// (optional) leader section before anyone is released. Abort-aware:
/// `abort()` releases every waiter (and fails every future arrival) with
/// `Aborted`, and `status()` exposes who is missing from an in-progress
/// round so the watchdog can diagnose a stalled rank.
class LeaderBarrier {
 public:
  explicit LeaderBarrier(int n);

  /// `rank` identifies the arriving rank for stall diagnosis.
  void arrive(int rank, const std::function<void()>& leader = {});

  /// Poisons the barrier: current and future arrivals throw Aborted.
  void abort(const std::string& reason);

  struct Status {
    int arrived = 0;               // ranks waiting in the current round
    double oldest_wait_seconds = 0;  // age of the round's first arrival
    std::vector<int> missing;      // ranks not yet arrived (when arrived > 0)
  };
  Status status() const;

 private:
  const int n_;
  int arrived_ = 0;
  u64 generation_ = 0;
  bool aborted_ = false;
  std::string abort_reason_;
  std::vector<char> in_;  // per-rank arrived flag for the current round
  std::chrono::steady_clock::time_point round_start_{};
  mutable std::mutex mu_;
  std::condition_variable cv_;
};

/// One in-flight collective: the rendezvous record every participating rank
/// posts its buffers into. The last rank to arrive executes the operation
/// (reductions in rank order, into op-owned scratch) and publishes
/// completion; waiters block on the op's condition variable. Validation
/// failures (size/kind/root mismatch across ranks) complete the op with an
/// error that every waiter rethrows, instead of deadlocking.
struct PendingOp {
  enum class Kind { kAllReduce, kAllGather, kReduceScatter, kBroadcast };

  PendingOp(Kind k, ReduceOp r, int n_ranks);

  const Kind kind;
  const ReduceOp red;
  const int n;
  int root = -1;  // broadcast only

  std::vector<const float*> src;
  std::vector<float*> dst;
  std::vector<i64> counts;
  std::vector<char> joined;  // which ranks have posted (stall diagnosis)
  std::chrono::steady_clock::time_point first_join_tp{};

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool complete = false;
  std::exception_ptr error;
  std::chrono::steady_clock::time_point complete_tp;
};

/// Cache-line-padded per-rank progress clock (watchdog heartbeat). Padded
/// so the relaxed store each rank makes on every post never shares a line
/// with a peer's — an unpadded array costs measurable hot-path time.
struct alignas(64) RankClock {
  std::atomic<u64> last_ns{0};  // steady_clock ns of the rank's last post
};

struct WatchdogState;  // comm/watchdog.hpp (monitor thread + stop flag)

/// Shared state of one communicator (all ranks of the group point here).
struct CommGroup {
  explicit CommGroup(int n);
  ~CommGroup();  // stops the watchdog monitor, if one was started

  const int size;
  LeaderBarrier barrier;

  // Identity of each group rank in the *root* communicator (the group
  // run_ranks / make_group created). Subgroups map through their parent,
  // so watchdog diagnoses and fault plans always name world ranks.
  std::vector<int> global_ranks;

  // Nonblocking engine: per-group progress state. `next_ticket[r]` is rank
  // r's issue counter; ticket k on this group names the k-th collective,
  // matched across all ranks. `inflight` maps tickets to their pending op
  // until every rank has joined.
  std::mutex async_mu;
  std::vector<u64> next_ticket;
  std::map<u64, std::shared_ptr<PendingOp>> inflight;

  // Abort state (Communicator::abort): once set, every in-flight op has
  // been completed with an error and every future post throws. `suspects`
  // carries the watchdog's diagnosis (global ranks that stalled) for the
  // elastic supervisor. Guarded by async_mu.
  bool aborted = false;
  std::string abort_reason;
  std::vector<int> suspects;

  // Fault injection (comm/fault.hpp): when set, every post on this group
  // consults the injector first. Propagated to subgroups at split() and by
  // install_fault_injector. Guarded by async_mu.
  std::shared_ptr<FaultInjector> injector;

  // Watchdog heartbeats: per-rank steady-clock timestamp of the last post,
  // stored relaxed from the hot path, read by the monitor for diagnosis.
  std::unique_ptr<RankClock[]> heartbeat;

  // Watchdog monitor (comm/watchdog.hpp), started at most once per group.
  std::unique_ptr<WatchdogState> watchdog;

  // split() publication slots + registry: (split sequence number, color) ->
  // subgroup + the member world-ranks in key order.
  std::vector<int> colors;
  std::vector<int> keys;
  std::mutex split_mu;
  u64 split_seq = 0;
  std::map<std::pair<u64, int>, std::shared_ptr<CommGroup>> subgroups;
  std::map<std::pair<u64, int>, std::vector<int>> members;
};

/// Recursively poisons `g` and every subgroup split from it: in-flight ops
/// complete with Aborted, barriers release, future posts throw. Idempotent.
/// Exposed for the watchdog; user code goes through Communicator::abort.
/// `flight_kind` labels the flight-recorder capture this abort freezes
/// when the recorder is enabled ("watchdog_abort" / "fault_kill" /
/// "comm_abort"); the first abort of a cascade wins the capture and
/// freezes the in-flight op + barrier state *before* poisoning it.
void abort_group(CommGroup& g, const std::string& reason,
                 const char* flight_kind = "comm_abort");

/// Joins and destroys the group's watchdog monitor (no-op if none).
void stop_watchdog(CommGroup& g);

}  // namespace detail

/// Request object for one nonblocking collective (MPI_Request idiom).
/// Movable and cheap; an empty handle (default-constructed, moved-from, or
/// already waited) is complete. The posting rank must not touch the
/// operation's buffers between post and wait(); wait() is idempotent and
/// rethrows any cross-rank matching error.
class CollectiveHandle {
 public:
  CollectiveHandle() = default;

  /// True once the collective has executed (never blocks). An empty handle
  /// reports true.
  bool test() const;

  /// True if this handle still refers to an un-waited operation.
  bool pending() const { return op_ != nullptr; }

  /// Blocks until the collective completes; optionally accumulates timing
  /// into `stats`. Rethrows if the operation failed validation. After
  /// wait() the handle is empty.
  void wait(CommStats* stats = nullptr);

  /// Bounded wait: true (and the handle empties, rethrowing any op error)
  /// if the collective completed within `seconds`; false if it is still in
  /// flight — the handle stays pending and may be waited again. A per-op
  /// deadline for callers that want to poll or time out without a
  /// group-wide watchdog.
  bool wait_for(double seconds, CommStats* stats = nullptr);

 private:
  friend class Communicator;
  CollectiveHandle(std::shared_ptr<detail::PendingOp> op,
                   std::chrono::steady_clock::time_point issued, i64 count)
      : op_(std::move(op)), issued_(issued), count_(count) {}

  std::shared_ptr<detail::PendingOp> op_;
  std::chrono::steady_clock::time_point issued_{};
  i64 count_ = 0;  // this rank's element count (trace span sizing)
};

/// Per-rank handle to a communicator. Cheap to copy.
class Communicator {
 public:
  Communicator(std::shared_ptr<detail::CommGroup> group, int rank);

  int rank() const { return rank_; }
  int size() const { return group_->size; }

  /// This rank's identity in the root communicator (== rank() on a root
  /// group; subgroup ranks map through their parents). Watchdog diagnoses
  /// and FaultPlan events are expressed in global ranks.
  int global_rank() const;

  /// Blocks until every rank of this communicator has arrived. Throws
  /// Aborted (without deadlocking) if the group is aborted while waiting.
  void barrier();

  // ----- nonblocking collectives -----------------------------------------
  // Buffers must stay valid and untouched until the returned handle's
  // wait() (the MPI nonblocking contract). Results are bitwise identical
  // to the blocking forms.

  /// In-place all-reduce of `t` (same numel on every rank).
  CollectiveHandle iall_reduce(Tensor& t, ReduceOp op = ReduceOp::kSum);

  /// Gathers equal-size shards: out.numel() == shard.numel() * size().
  /// Rank r's shard lands at offset r * shard.numel().
  CollectiveHandle iall_gather(const Tensor& shard, Tensor& out);

  /// Reduces `in` (same numel everywhere) and scatters equal chunks:
  /// shard.numel() * size() == in.numel(); rank r receives chunk r.
  CollectiveHandle ireduce_scatter(const Tensor& in, Tensor& shard,
                                   ReduceOp op = ReduceOp::kSum);

  /// Copies root's tensor to every rank (same numel everywhere).
  CollectiveHandle ibroadcast(Tensor& t, int root);

  // ----- blocking wrappers (post + wait) ----------------------------------
  void all_reduce(Tensor& t, ReduceOp op = ReduceOp::kSum);
  void all_gather(const Tensor& shard, Tensor& out);
  void reduce_scatter(const Tensor& in, Tensor& shard,
                      ReduceOp op = ReduceOp::kSum);
  void broadcast(Tensor& t, int root);

  /// Collective split: ranks with equal `color` form a new communicator;
  /// ranks are ordered by `key` (ties broken by old rank). Every rank of
  /// this communicator must call split with some color. Subgroups inherit
  /// the parent's fault injector and global-rank identities.
  Communicator split(int color, int key);

  /// Fatal-error propagation (the fault-injection / crash path): poisons
  /// this communicator and, recursively, every sub-communicator created
  /// from it via split(). Every blocked rendezvous — in-flight collective
  /// waits and plain barrier() calls alike — completes with an `Aborted`
  /// error instead of deadlocking on a rank that died, and every
  /// subsequent post or barrier throws immediately. Aborting is idempotent
  /// and may be called from any rank or thread. `flight_kind` labels the
  /// postmortem capture when the flight recorder is enabled.
  void abort(const std::string& reason,
             const char* flight_kind = "comm_abort");

  /// True once this group has been aborted (by abort(), the watchdog, or a
  /// fault-plan kill).
  bool aborted() const;

  /// The first abort's reason ("" if not aborted).
  std::string abort_reason() const;

  /// Global ranks the watchdog diagnosed as stalled when it aborted this
  /// group (empty for plain aborts). The elastic supervisor quarantines
  /// these.
  std::vector<int> abort_suspects() const;

  /// Installs a fault injector under this communicator: every subsequent
  /// post on this group and (recursively) its sub-communicators consults
  /// the plan. Replaces any previous injector; nullptr uninstalls.
  void install_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Starts the group's watchdog monitor (comm/watchdog.hpp) if not
  /// already running: a background thread that aborts the whole group with
  /// a per-rank diagnosis when any rendezvous stalls past the deadline.
  /// The first call wins; later calls are no-ops. The monitor covers this
  /// group and every sub-communicator split from it, and is joined when
  /// the group is destroyed.
  void start_watchdog(const WatchdogOptions& opts);

 private:
  CollectiveHandle post(detail::PendingOp::Kind kind, ReduceOp red, int root,
                        const float* src, float* dst, i64 count);

  std::shared_ptr<detail::CommGroup> group_;
  int rank_;
};

/// Creates a root communicator group for `n_ranks`. Hand
/// `Communicator(group, r)` to each participating thread. `run_ranks` does
/// this plus thread management; the elastic supervisor
/// (`train/elastic.hpp`) uses make_group directly so it can re-form groups
/// over surviving threads.
std::shared_ptr<detail::CommGroup> make_group(int n_ranks);

/// Launches `n_ranks` threads, each running fn(comm) with a communicator
/// over all ranks and its ComputeShare of the kernel threads installed,
/// and joins them. Each rank's `rank.run` span records the share its
/// regions ran with as `threads` (narrower when a step loop in fn gave
/// cores to its loader workers). The first exception (if any) is rethrown
/// on the caller after all threads complete.
void run_ranks(int n_ranks, const std::function<void(Communicator&)>& fn);

}  // namespace geofm::comm

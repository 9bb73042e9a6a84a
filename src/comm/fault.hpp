// Deterministic fault injection under the communicator.
//
// A `FaultPlan` is a seeded, declarative schedule of faults — rank kills,
// stalls, slow-rank latency, payload corruption — that a `FaultInjector`
// replays at two well-defined trigger points:
//
//   * the *collective boundary*: `Communicator::post` consults the
//     installed injector before each rendezvous, counting the rank's posts
//     across the root group and all of its sub-communicators (one global
//     deterministic sequence per rank), so `after_posts`-triggered events
//     fire at exactly the same collective on every run;
//   * the *driver step point*: `pretrain_mae_distributed` calls
//     `at_step_point(comm, step)` once per step between backward and the
//     optimizer step, where `step`-triggered events fire.
//
// Because thread-rank collectives execute in rank order and the injector's
// triggers depend only on (rank, post index | step), the same plan replays
// *bitwise* across runs: a corruption flips the same bit of the same
// element, a kill unwinds at the same collective, and survivors observe
// identical aborted state. That determinism is what lets the elastic
// recovery tests assert exact loss trajectories around a fault.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"

namespace geofm::comm {

/// Thrown on the rank a FaultPlan kills: the injector aborts the group
/// (so peers unblock with `Aborted`) and then throws RankKilled to unwind
/// the rank's stack — the in-process analogue of a node dying. The elastic
/// supervisor treats RankKilled ranks as dead and Aborted ranks as
/// survivors.
class RankKilled : public Error {
 public:
  RankKilled(const std::string& what, int global_rank)
      : Error(what), global_rank_(global_rank) {}
  int global_rank() const { return global_rank_; }

 private:
  int global_rank_;
};

/// Storage-path trigger points (comm faults test the network path; IO
/// faults test the checkpoint storage path the same way). The ckpt layer
/// consults the installed injector at three seams: every primary shard
/// write (`kWrite`, counted per writing rank), every shard-record read at
/// restore (`kRead`, counted per restoring rank), and every file copy the
/// checkpoint uploader performs (`kUpload`, counted on rank 0 — there is
/// one uploader per run). `kRender` is the data-path seam: the dataloader
/// consults the injector before every batch render, triggered by the
/// *global batch ordinal* (epoch * batches_per_epoch + batch index) —
/// ordinal-keyed rather than counter-keyed so a watchdog re-render or a
/// respawned worker never shifts later triggers.
enum class IoPath { kNone, kWrite, kRead, kUpload, kRender };

/// One scheduled fault. Triggers are exact: `step` matches the driver's
/// per-step fault point, `after_posts` matches the target rank's N-th
/// collective post, and `after_io` matches the rank's N-th IO operation
/// on `io_path` (all 0-based, counted from injector construction). Ranks
/// are *global* (root-communicator) ranks; under `run_elastic` they are
/// the persistent rank identities of the initial world.
struct FaultEvent {
  enum class Kind {
    kKill,      // abort the group and unwind the rank with RankKilled
    kStall,     // one-shot sleep of `seconds` (a hang the watchdog catches)
    kSlowRank,  // add `seconds` latency to each of `posts_affected` posts
    kCorrupt,   // flip one deterministic payload bit at the post boundary
    kCallback,  // invoke `callback(comm, step)` at the step point
    // ----- storage-path faults (consulted by src/ckpt/) -----------------
    kIoFail,        // the IO op throws before any bytes land
    kIoTorn,        // a short write: truncated bytes land, then the op fails
    kIoSlow,        // add `seconds` latency to each of `ops_affected` ops
    kIoUnreadable,  // a read refuses the shard (unreadable at restore)
    // ----- data-path faults (consulted by data::DataLoader) --------------
    kLoaderWorkerKill,  // the worker rendering this batch dies (respawned)
    kLoaderSlowRender,  // add `seconds` latency to `ops_affected` renders
    kLoaderPoison,      // one sample of this batch renders non-finite
  };

  Kind kind = Kind::kKill;
  int rank = 0;         // target global rank; -1 = every rank (kCallback,
                        // and IO events matched on any rank's counter)
  i64 step = -1;        // trigger at the driver step point of this step...
  i64 after_posts = -1;  // ...or at the rank's N-th collective post
  double seconds = 0;   // kStall: sleep length; kSlowRank/kIoSlow: per-op
  i64 posts_affected = 0;  // kSlowRank: posts slowed from trigger (0 = all)
  std::function<void(Communicator&, i64)> callback;  // kCallback only
                                                     // (every step if
                                                     // step == -1)
  // IO-kind trigger: the rank's `after_io`-th op on `io_path`.
  IoPath io_path = IoPath::kNone;
  i64 after_io = -1;
  i64 ops_affected = 1;  // kIoFail/kIoSlow: ops hit from trigger (0 = all)

  static FaultEvent kill_at_step(int rank, i64 step);
  static FaultEvent kill_at_post(int rank, i64 after_posts);
  static FaultEvent stall_at_step(int rank, i64 step, double seconds);
  static FaultEvent stall_at_post(int rank, i64 after_posts, double seconds);
  static FaultEvent slow_rank(int rank, i64 after_posts, double seconds,
                              i64 posts_affected = 0);
  static FaultEvent corrupt_at_post(int rank, i64 after_posts);
  static FaultEvent callback_every_step(
      std::function<void(Communicator&, i64)> fn);
  // Storage-path factories. Write faults name the saving rank; restore
  // faults may use rank -1 (whichever rank's read counter hits `after_io`
  // first — use explicit ranks when replay determinism matters); upload
  // faults always target the run's single uploader (rank 0's).
  static FaultEvent io_fail_write(int rank, i64 after_io,
                                  i64 ops_affected = 1);
  static FaultEvent io_torn_write(int rank, i64 after_io);
  static FaultEvent io_slow_write(int rank, i64 after_io, double seconds,
                                  i64 ops_affected = 1);
  static FaultEvent io_unreadable_at_restore(int rank, i64 after_io);
  static FaultEvent io_fail_upload(i64 after_io, i64 ops_affected = 1);
  static FaultEvent io_torn_upload(i64 after_io);
  static FaultEvent io_slow_upload(i64 after_io, double seconds,
                                   i64 ops_affected = 1);
  // Data-path factories. `batch` is the global batch ordinal (epoch *
  // batches_per_epoch + batch index) of the rank's loader; rank -1 = any.
  static FaultEvent loader_worker_kill(int rank, i64 batch);
  static FaultEvent loader_slow_render(int rank, i64 batch, double seconds,
                                       i64 ops_affected = 1);
  static FaultEvent loader_poison(int rank, i64 batch);

  bool is_io() const {
    return kind == Kind::kIoFail || kind == Kind::kIoTorn ||
           kind == Kind::kIoSlow || kind == Kind::kIoUnreadable;
  }
  bool is_loader() const {
    return kind == Kind::kLoaderWorkerKill ||
           kind == Kind::kLoaderSlowRender || kind == Kind::kLoaderPoison;
  }
};

/// A seeded schedule of faults. The seed feeds corruption-site selection;
/// the event list is replayed exactly.
struct FaultPlan {
  u64 seed = 0;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

/// Thread-safe replayer of one FaultPlan. Install on a communicator with
/// `Communicator::install_fault_injector` (covers the group and all of its
/// sub-communicators) and/or hand to the training driver via
/// `DistributedPretrainConfig::fault_injector`. One injector instance holds
/// the per-rank post counters and fired state for one run (or one elastic
/// attempt); reuse across runs would shift `after_posts` triggers.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Driver integration: every rank calls this once per training step at
  /// the mid-step fault point. Executes `step`-triggered events targeting
  /// `comm.global_rank()`: kStall sleeps, kCallback invokes the hook, and
  /// kKill aborts `comm` and throws RankKilled.
  void at_step_point(Communicator& comm, i64 step);

  /// Comm integration (called by Communicator::post with the group lock
  /// released): advances `global_rank`'s post counter, applies any
  /// triggered stall/slow delays (sleeping inline) and payload corruption
  /// (in place on the rank's contribution), and reports whether the rank
  /// must die at this post. On a kill the communicator aborts the group
  /// and throws RankKilled with the returned reason.
  struct PostFault {
    bool kill = false;
    std::string kill_reason;
  };
  PostFault before_post(int global_rank, const char* op_label, float* payload,
                        i64 count);

  /// Storage integration (called by src/ckpt at each IO seam): advances
  /// `rank`'s op counter on `path`, sleeps inline for any triggered
  /// kIoSlow delay (reported in `delay_seconds` for accounting), and
  /// reports faults the *caller* applies at its own seam: throw on
  /// `fail`/`unreadable`, or land a truncated file before throwing on
  /// `torn`. Events with rank -1 match any rank's counter on the path.
  struct IoFault {
    bool fail = false;
    bool torn = false;
    bool unreadable = false;
    double delay_seconds = 0;
    std::string reason;
    bool any() const { return fail || torn || unreadable; }
  };
  IoFault before_io(IoPath path, int rank);

  /// Data-path integration (called by data::DataLoader before each batch
  /// render): matches loader events against `(rank, batch_ordinal)` —
  /// the global batch ordinal, not an op counter, so re-renders after a
  /// worker death or a watchdog requeue never shift later triggers.
  /// Sleeps inline for any triggered kLoaderSlowRender delay; the caller
  /// applies `kill_worker` (unwind + respawn the worker thread) and
  /// `poison` (render one sample non-finite, site picked by
  /// `poison_site`) at its own seam.
  struct LoaderFault {
    bool kill_worker = false;
    bool poison = false;
    u64 poison_site = 0;  // hash selecting the poisoned sample row
    double delay_seconds = 0;
    std::string reason;
    bool any() const { return kill_worker || poison || delay_seconds > 0; }
  };
  LoaderFault before_render(int rank, i64 batch_ordinal);

  /// True iff the plan holds any loader-path event — lets the dataloader
  /// skip the seam (and the per-sample poison scan) entirely on clean runs.
  bool has_loader_events() const { return has_loader_events_; }

  /// fired()[i] is true once plan().events[i] has triggered (one-shot
  /// events only; an every-step kCallback never reports fired). The
  /// elastic supervisor uses this to carry the un-fired remainder of a
  /// plan into the next attempt.
  std::vector<bool> fired() const;

  /// The subset of plan().events that actually fired, as a plan that
  /// replays them (same seed, same triggers). Feed to `plan_to_json` to
  /// capture a run's realized fault schedule.
  FaultPlan fired_plan() const;

 private:
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::vector<bool> fired_;
  bool has_io_events_ = false;
  bool has_loader_events_ = false;
  std::map<int, u64> posts_;  // per-global-rank post counter
  std::map<std::pair<int, int>, u64> io_ops_;  // (path, rank) op counter
};

/// Serialize a plan to a JSON trace (stable field names, doubles printed
/// round-trip exact) and parse one back, so the fault schedule realized by
/// one run — `FaultInjector::fired_plan()` — can be replayed bitwise in
/// another. kCallback events hold code and cannot be serialized (throws
/// `Error`); every other kind round-trips exactly.
std::string plan_to_json(const FaultPlan& plan);
FaultPlan plan_from_json(const std::string& json);

}  // namespace geofm::comm

// Multi-worker prefetching data loader, in the PyTorch DataLoader idiom
// the paper uses (4 workers per rank): worker threads render/decode
// batches ahead of the training loop into a bounded reorder buffer, and
// the consumer receives batches in a deterministic order regardless of
// worker scheduling. The workers live as long as the loader, and the
// prefetch window runs across the epoch boundary: once epoch e is fully
// claimed they render the head of epoch e+1, which start_epoch(e+1)
// adopts.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "data/datasets.hpp"
#include "data/transforms.hpp"

namespace geofm::comm {
class FaultInjector;
}

namespace geofm::data {

struct Batch {
  Tensor images;             // [B, C, H, W]
  std::vector<i64> labels;   // size B
  i64 index = 0;             // batch ordinal within the epoch
  std::vector<i64> sample_indices;  // dataset indices composing the batch
};

class DataLoader {
 public:
  struct Options {
    i64 batch_size = 32;
    int n_workers = 4;       // 0 = synchronous rendering in next()
    bool shuffle = true;
    bool drop_last = true;
    u64 seed = 0;
    /// Per-sample augmentation (training only). Deterministic given
    /// (seed, epoch, dataset index) regardless of worker scheduling.
    bool enable_augment = false;
    AugmentOptions augment;
    /// Worker-side batch slicing (distributed SPMD): when slice_count >=
    /// 0, only rows [slice_offset, slice_offset + slice_count) of every
    /// global batch are rendered and returned, clipped to the batch.
    /// Sample identity, shuffling, and augmentation draws are unchanged
    /// (each sample renders independently, keyed by dataset index), so a
    /// slice is bitwise identical to the same rows of the full batch —
    /// but each rank's loader does only its share of the render work
    /// instead of the whole world's.
    i64 slice_offset = 0;
    i64 slice_count = -1;  // -1 = the whole batch
    /// Data-path fault seam (chaos campaigns): when set, every batch
    /// render first consults `fault_injector->before_render(rank,
    /// ordinal)` with the *global* batch ordinal (epoch *
    /// batches_per_epoch + batch index). Injected worker deaths requeue
    /// the claimed batch and respawn a replacement thread (bounded by
    /// `kMaxWorkerRespawns` per epoch); injected render delays are
    /// absorbed by the watchdog below; injected poison renders one
    /// sample row non-finite.
    comm::FaultInjector* fault_injector = nullptr;
    /// Consumer-side stall watchdog: if next() has waited longer than
    /// this for the wanted batch (a hung or killed-without-respawn
    /// worker), the consumer renders the batch itself and any late
    /// duplicate render is discarded — renders are bitwise
    /// deterministic, so either copy is the same batch. 0 disables.
    double watchdog_seconds = 0;
    /// Poisoned-sample quarantine: scan each rendered sample row for
    /// non-finite values; offending rows are zeroed (the batch survives)
    /// and their dataset indices recorded — a bad shard degrades
    /// throughput instead of killing the run. Off by default: the scan
    /// touches every pixel, so enable it only under chaos campaigns or
    /// untrusted data.
    bool quarantine_poisoned = false;
  };

  /// Replacement threads per epoch for workers killed by the fault seam;
  /// past it the surviving workers, or the consumer once none is left,
  /// render the orphaned batches.
  static constexpr int kMaxWorkerRespawns = 4;

  DataLoader(const SceneDataset& dataset, Split split, Options options);
  ~DataLoader();

  DataLoader(const DataLoader&) = delete;
  DataLoader& operator=(const DataLoader&) = delete;

  i64 batches_per_epoch() const;

  /// Begins (or restarts) an epoch: builds the index permutation from
  /// (seed, epoch) and starts the workers on first use. Must be called
  /// before next(). `first_batch` fast-forwards mid-epoch (checkpoint
  /// resume): batches before it are neither rendered nor returned, and the
  /// first next() yields batch `first_batch` exactly as an un-resumed
  /// epoch would. Batches of `epoch` already rendered ahead (the head
  /// of the epoch after the previous one) from `first_batch` on are kept;
  /// every other rendered-but-unconsumed batch is discarded
  /// (`loader.discarded_renders`).
  void start_epoch(i64 epoch, i64 first_batch = 0);

  /// Next batch of the running epoch, in order; nullopt once exhausted.
  std::optional<Batch> next();

  /// Dataset indices quarantined so far (sorted; persists across epochs).
  std::vector<i64> quarantined_samples() const;

 private:
  using Permutation = std::shared_ptr<const std::vector<i64>>;

  /// One batch to render, named by its global ordinal (epoch *
  /// batches_per_epoch + batch index): the key of the reorder buffer and
  /// of the fault seam. `perm` is that epoch's permutation.
  struct Job {
    i64 ordinal = 0;
    i64 epoch = 0;
    i64 batch = 0;
    Permutation perm;
  };

  Permutation make_permutation(i64 epoch) const;
  /// The job for `ordinal`, which lies in the running epoch or the next.
  /// Requires mu_ (workers) or the consumer thread with no workers.
  Job job_for(i64 ordinal) const;
  /// End of the claimable range: the prefetch window may cross into the
  /// next epoch but not past it.
  i64 claim_limit() const { return (epoch_ + 2) * n_batches_; }
  void worker_loop();
  void spawn_worker();  // requires mu_
  Batch render_batch(const Job& job) const;
  Batch render_batch_traced(const Job& job) const;
  /// render_batch_traced plus the fault seam's side effects: applies an
  /// injected poison to one sample row, then (when quarantine is on)
  /// scans rows for non-finite values, zeroing and recording offenders.
  Batch render_faulted(const Job& job, bool apply_poison, u64 poison_site);

  const SceneDataset& dataset_;
  Split split_;
  Options options_;
  // Rank of the thread that built the loader: workers adopt it so their
  // trace activity groups under the owning rank's timeline.
  int owner_rank_ = -1;
  i64 n_batches_ = 0;

  // Loader state shared with workers. Batch positions are global
  // ordinals, so a batch rendered ahead for the next epoch keeps its key
  // when that epoch starts.
  std::mutex mu_;
  std::condition_variable cv_produce_;
  std::condition_variable cv_consume_;
  i64 epoch_ = -1;         // the running epoch; -1 before start_epoch
  Permutation perm_;       // its permutation
  Permutation next_perm_;  // the next epoch's (workers only)
  std::map<i64, Batch> ready_;
  i64 next_to_claim_ = 0;
  i64 next_to_consume_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Fault-seam state (all under mu_ except quarantined_, which has its
  // own lock so workers can record offenders mid-render).
  std::deque<i64> requeued_;   // ordinals orphaned by a worker death
  int alive_workers_ = 0;
  int respawns_used_ = 0;
  mutable std::mutex quarantine_mu_;
  std::set<i64> quarantined_;  // dataset indices, persistent across epochs
};

}  // namespace geofm::data

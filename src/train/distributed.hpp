// Distributed MAE pretraining driver over the async FSDP runtime — the
// functional analogue of the paper's Frontier runs. Each rank trains its
// slice of every global batch; parameter gathers and gradient reductions
// are nonblocking and overlap compute, and the driver aggregates the
// per-step exposed-wait vs overlapped-communication accounting that the
// paper's prefetch/limit_all_gathers ablations are about.
#pragma once

#include <string>
#include <vector>

#include "ckpt/uploader.hpp"
#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "parallel/fsdp.hpp"

namespace geofm::train {

struct DistributedPretrainConfig {
  i64 steps = 30;
  i64 global_batch = 64;   // split evenly across ranks
  double lr = 3e-3;
  double weight_decay = 0.05;
  u64 seed = 9;
  int loader_workers = 0;  // per rank; 0 = synchronous rendering
  bool verbose = false;

  // ----- checkpoint/restart (src/ckpt/) ----------------------------------
  /// Save a sharded checkpoint after every N completed optimizer steps
  /// (0 = never). Requires checkpoint_dir.
  i64 checkpoint_every_n_steps = 0;
  std::string checkpoint_dir;
  /// Stage at the step boundary, write on a background thread (the
  /// exposed cost is the staging copy only). False = write inline.
  bool async_checkpoint = true;
  /// Resume source: a checkpoint root (latest complete step), a step
  /// directory, or a shard file. Empty = fresh run. The checkpoint may
  /// have been written at any world size or sharding strategy; counters,
  /// optimizer state, and RNG streams are restored so the continued loss
  /// trajectory matches an uninterrupted run's.
  std::string resume_from;
  /// True when this run is the elastic supervisor's shrink-and-continue
  /// restart of a faulted run: the resume emits a `recover.reshard` trace
  /// span (category "recover") instead of the plain `ckpt.resume` one, so
  /// time-to-recover is visible in trace exports and span budgets.
  bool recovery_resume = false;

  // ----- failure model (src/comm/fault.hpp, comm/watchdog.hpp) ------------
  /// Deterministic fault schedule for this run. Installed under the
  /// communicator (covering FSDP's sub-communicators) so post-triggered
  /// events fire at the collective boundary, and consulted once per step
  /// at the mid-step fault point (after the backward's collectives drain,
  /// before the optimizer step) for step-triggered events.
  std::shared_ptr<comm::FaultInjector> fault_injector;
  /// > 0 starts the comm watchdog with this rendezvous deadline: a rank
  /// that stalls past it gets the whole group aborted with a diagnosis
  /// instead of deadlocking the run. Keep generous on oversubscribed
  /// machines (the deadline bounds healthy rendezvous skew).
  double watchdog_deadline_seconds = 0;

  // ----- checkpoint retention (ckpt::RetentionPolicy) ---------------------
  /// > 0 bounds on-disk checkpoints: keep the last N complete steps,
  /// GC'ing the rest atomically after each publication.
  i64 checkpoint_keep_last = 0;

  // ----- storage-path robustness (ckpt::Uploader, io-fault seam) ----------
  /// Mirror every published checkpoint to `upload.destination` from a
  /// background uploader owned by rank 0 (empty destination = disabled).
  /// `upload.source` is owned by the driver (always the checkpoint_dir);
  /// the remaining knobs — retries, backoff, bandwidth cap — pass
  /// through. Training never blocks on the upload:
  /// the driver barriers once at the end of the run and drains the queue,
  /// reporting totals in the result.
  ckpt::UploaderOptions upload;
  /// Treat a failed shard write (disk error, injected IO fault) as a
  /// skipped checkpoint instead of a fatal error: logged, counted in
  /// `ckpt.save_failures`, training continues to the next save.
  bool tolerate_checkpoint_failures = false;
};

struct DistributedPretrainResult {
  std::vector<float> step_losses;  // globally averaged, one per step run
  double wall_seconds = 0;
  i64 images_seen = 0;  // global
  /// First step this run executed (> 0 when resumed from a checkpoint).
  i64 start_step = 0;

  // Overlap accounting for this rank, summed over all steps.
  int collectives_waited = 0;
  int collectives_overlapped = 0;     // already complete when waited on
  double comm_busy_seconds = 0;       // total in-flight collective time
  double exposed_wait_seconds = 0;    // time actually blocked waiting
  double overlapped_comm_seconds = 0; // comm hidden behind compute
  int peak_inflight_gathers = 0;      // max over steps

  // Input-pipeline analogue of exposed_wait_seconds: time this rank spent
  // blocked in loader.next(), summed over all steps. With workers the
  // render pipeline hides behind compute and this stays near zero; with
  // loader_workers == 0 every render is on the critical path.
  double loader_exposed_seconds = 0;

  // Checkpoint-upload accounting from the end-of-run drain (rank 0 of an
  // upload-configured run; zero elsewhere).
  i64 checkpoints_uploaded = 0;
  i64 upload_failures = 0;
  i64 upload_gave_up = 0;
};

/// Runs `cfg.steps` optimizer steps of MAE pretraining on `mae`, already
/// wrapped by `fsdp`, over the train split of `corpus`. Every rank loads
/// the global batch deterministically and trains on its own slice (SPMD),
/// so the result is step-equivalent to a single-rank full-batch run. The
/// caller keeps ownership of the wrapper (e.g. to gather_full_parameters()
/// and checkpoint afterwards).
DistributedPretrainResult pretrain_mae_distributed(
    models::MAE& mae, parallel::Fsdp& fsdp, comm::Communicator& comm,
    const data::SceneDataset& corpus, const DistributedPretrainConfig& cfg);

}  // namespace geofm::train

#include "train/distributed.hpp"

#include <algorithm>
#include <cstdlib>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io_fault.hpp"
#include "ckpt/uploader.hpp"
#include "comm/watchdog.hpp"
#include "data/dataloader.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_context.hpp"
#include "util/timer.hpp"

namespace geofm::train {
namespace {

/// Loader stall watchdog, armed only when the fault plan carries
/// loader-kind events: if a rank's next() waits longer than this for a
/// batch — a hung render or a worker killed without respawn budget — the
/// consumer re-renders the batch itself and late duplicates are
/// discarded.
constexpr double kLoaderWatchdogSeconds = 0.25;

}  // namespace

DistributedPretrainResult pretrain_mae_distributed(
    models::MAE& mae, parallel::Fsdp& fsdp, comm::Communicator& comm,
    const data::SceneDataset& corpus, const DistributedPretrainConfig& cfg) {
  GEOFM_CHECK(cfg.steps > 0 && cfg.global_batch > 0);
  GEOFM_CHECK(cfg.global_batch % comm.size() == 0,
              "global batch " << cfg.global_batch << " not divisible by "
                              << comm.size() << " ranks");
  GEOFM_CHECK(cfg.checkpoint_every_n_steps == 0 ||
                  !cfg.checkpoint_dir.empty(),
              "checkpoint_every_n_steps needs a checkpoint_dir");
  const i64 local_batch = cfg.global_batch / comm.size();
  Timer timer;

  // Env-driven observability: GEOFM_TELEMETRY=dir starts the background
  // time-series sampler (first rank to get here wins; one per process).
  obs::telemetry::init_from_env();

  // Failure model: the injector sits under the communicator (so
  // post-triggered faults cover FSDP's sub-communicators too) and is
  // consulted at the mid-step fault point; the watchdog turns a stalled
  // rank into a diagnosed group abort instead of a deadlock.
  if (cfg.fault_injector) {
    comm.install_fault_injector(cfg.fault_injector);
    // The same plan covers the storage path: checkpoint writes, restore
    // reads, and uploader copies consult the injector's IO events.
    ckpt::install_io_fault_injector(cfg.fault_injector);
  }
  if (cfg.watchdog_deadline_seconds > 0) {
    comm::WatchdogOptions wopts;
    wopts.deadline_seconds = cfg.watchdog_deadline_seconds;
    comm.start_watchdog(wopts);
  }

  // Every rank shares one global batch stream (same seed, same shuffle)
  // and its loader renders only this rank's contiguous slice of it —
  // SPMD-deterministic regardless of rank count, with per-rank render
  // work cut by the world size (per-sample rendering and per-sample-keyed
  // augmentation make the slice bitwise equal to the same rows of the
  // full batch).
  data::DataLoader::Options lopts;
  lopts.batch_size = cfg.global_batch;
  lopts.n_workers = cfg.loader_workers;
  lopts.shuffle = true;
  lopts.seed = cfg.seed;
  lopts.slice_offset = comm.rank() * local_batch;
  lopts.slice_count = local_batch;
  // Data-path fault seam: loader-kind events in the plan flow into the
  // loader (worker death, slow render, poisoned samples), with the
  // consumer watchdog + quarantine turned on so the run degrades instead
  // of dying. Ordinal-keyed triggers keep the schedule bitwise across
  // re-renders.
  if (cfg.fault_injector && cfg.fault_injector->has_loader_events()) {
    lopts.fault_injector = cfg.fault_injector.get();
    lopts.quarantine_poisoned = true;
    lopts.watchdog_seconds = kLoaderWatchdogSeconds;
  }
  data::DataLoader loader(corpus, data::Split::kTrain, lopts);
  const i64 batches_per_epoch = loader.batches_per_epoch();
  GEOFM_CHECK(batches_per_epoch > 0, "corpus smaller than the global batch");

  optim::AdamW opt(fsdp.optimizer_parameters(), cfg.lr, 0.9, 0.95, 1e-8,
                   cfg.weight_decay);

  // The masking stream is persistent run state (not derived per step), so
  // a restored run continues the exact sequence an uninterrupted run
  // would draw.
  Rng mask_stream = Rng(cfg.seed).split(hash_name("mask_stream"));

  i64 start_step = 0;
  bool epoch_primed = false;  // loader already started on the resume epoch
  if (!cfg.resume_from.empty()) {
    // An elastic shrink-and-continue restart is the same reshard-restore
    // path, surfaced under the recover.* span family for time-to-recover
    // accounting. The span's arg records that the first post-resume data
    // fetch was kicked off inside it (loader/restore overlap).
    const bool overlap_fetch = cfg.loader_workers > 0;
    obs::TraceScope span(
        cfg.recovery_resume ? "recover.reshard" : "ckpt.resume",
        cfg.recovery_resume ? "recover" : "ckpt", "loader_overlap",
        overlap_fetch ? 1 : 0);
    // Opening the reader is a header/index scan only — cheap; shard
    // payloads load lazily during restore() below.
    ckpt::CheckpointReader reader(cfg.resume_from);
    // Checkpoints are taken after a step completes; resume at the next.
    start_step = reader.counter("step", -1) + 1;
    GEOFM_CHECK(start_step >= 1, "resumed checkpoint has no step counter");
    // Overlap the restore with the first post-resume fetch: the resumed
    // epoch's fast-forward + render pipeline spins up on the loader's
    // worker threads while this thread replays plan_reads below. The
    // loader touches no model state, so the two cannot interact.
    const i64 resume_epoch = start_step / batches_per_epoch;
    loader.start_epoch(resume_epoch,
                       start_step - resume_epoch * batches_per_epoch);
    epoch_primed = true;
    // Shards become the only authority before restored values land in
    // them; any previously gathered full parameters would be stale.
    fsdp.drop_full_parameters();
    reader.restore(ckpt::fsdp_state(fsdp, &opt));
    ckpt::restore_optimizer_scalars(reader, opt);
    mask_stream.set_state(reader.rng_state("mask_stream"));
    if (cfg.verbose && comm.rank() == 0) {
      GEOFM_INFO("resumed from " << reader.location() << " (saved at world "
                                 << reader.saved_world() << ", step "
                                 << start_step - 1 << ")");
    }
  }

  std::optional<ckpt::Checkpointer> checkpointer;
  if (cfg.checkpoint_every_n_steps > 0) {
    checkpointer.emplace(cfg.async_checkpoint);
    // A previous run that died mid-save must not leak partial shards
    // into this run's checkpoints.
    ckpt::reset_save_state(cfg.checkpoint_dir);
  }
  const bool uploads_configured =
      checkpointer.has_value() && cfg.upload.enabled();
  std::optional<ckpt::Uploader> uploader;
  if (uploads_configured && comm.rank() == 0) {
    ckpt::UploaderOptions uopts = cfg.upload;
    uopts.source = cfg.checkpoint_dir;
    uopts.owner_rank = comm.rank();
    uploader.emplace(uopts);
  }

  DistributedPretrainResult result;
  result.start_step = start_step;
  result.step_losses.reserve(
      static_cast<size_t>(std::max<i64>(cfg.steps - start_step, 0)));

  auto& registry = obs::MetricsRegistry::instance();
  auto& step_hist = registry.histogram("train.step_seconds");
  auto& loader_exposed_counter =
      registry.counter("train.loader_exposed_seconds");

  i64 step = start_step;
  for (i64 epoch = start_step / batches_per_epoch; step < cfg.steps;
       ++epoch) {
    // On the resumed epoch, fast-forward past the batches the previous
    // run already consumed (step k is batch k % bpe of epoch k / bpe) —
    // unless the resume path already primed the loader, overlapped with
    // the checkpoint restore.
    if (!epoch_primed) {
      loader.start_epoch(epoch, step - epoch * batches_per_epoch);
    }
    epoch_primed = false;
    for (;;) {
      // Fetch blocking time is the loader's exposed cost to this rank —
      // the input-pipeline analogue of CommStats::exposed_wait_seconds.
      double fetch_seconds = 0;
      std::optional<data::Batch> batch;
      {
        obs::TraceScope fetch_span("step.fetch", "loader", "step", step);
        const double t0 = monotonic_seconds();
        batch = loader.next();
        fetch_seconds = monotonic_seconds() - t0;
      }
      if (!batch || step >= cfg.steps) break;
      result.loader_exposed_seconds += fetch_seconds;
      loader_exposed_counter.add(fetch_seconds);

      obs::TraceScope step_span("step", "runtime", "step", step);
      const double step_t0 = monotonic_seconds();
      // The loader already rendered only this rank's slice of the global
      // batch (worker-side slicing), so the batch is used as-is.
      GEOFM_CHECK(batch->images.dim(0) == local_batch,
                  "loader slice is " << batch->images.dim(0)
                                     << " rows, expected " << local_batch);

      // The async step: begin_step() issues what the strategy needs up
      // front; stage hooks overlap gathers/reductions with compute;
      // end_backward() drains every in-flight collective.
      fsdp.begin_step();
      // One draw per step from the persistent stream seeds the step's
      // mask RNG; every rank draws identically, keeping masks SPMD.
      Rng mask_rng(mask_stream.next_u64());
      float local_loss = 0;
      {
        obs::TraceScope span("step.forward", "compute", "step", step);
        local_loss =
            mae.forward(batch->images, mask_rng, comm.rank() * local_batch);
      }
      {
        obs::TraceScope span("step.backward", "compute", "step", step);
        mae.backward();
      }
      {
        obs::TraceScope span("step.end_backward", "runtime", "step", step);
        fsdp.end_backward();
      }
      if (cfg.fault_injector) {
        cfg.fault_injector->at_step_point(comm, step);
      }
      {
        obs::TraceScope span("step.optimizer", "optim", "step", step);
        opt.step();
      }
      if (checkpointer &&
          (step + 1) % cfg.checkpoint_every_n_steps == 0) {
        ckpt::SaveRequest req;
        req.dir = cfg.checkpoint_dir;
        req.step = step;
        req.rank = comm.rank();
        req.world = comm.size();
        req.state = ckpt::fsdp_state(fsdp, &opt);
        req.counters = {{"step", step},
                        {"epoch", epoch},
                        {"seed", static_cast<i64>(cfg.seed)}};
        for (const auto& [name, value] : ckpt::optimizer_scalars(opt)) {
          req.counters[name] = value;
        }
        // State *after* this step's draw, so a resumed run draws what
        // step + 1 would have.
        req.rng_streams = {{"mask_stream", mask_stream.state()}};
        req.retention.keep_last = cfg.checkpoint_keep_last;
        req.tolerate_failures = cfg.tolerate_checkpoint_failures;
        checkpointer->save(req);
      }

      const auto& stats = fsdp.last_step_stats();
      result.collectives_waited += stats.waits;
      result.collectives_overlapped += stats.completed_before_wait;
      result.comm_busy_seconds += stats.busy_seconds;
      result.exposed_wait_seconds += stats.exposed_wait_seconds;
      result.overlapped_comm_seconds += stats.overlapped_seconds();
      result.peak_inflight_gathers =
          std::max(result.peak_inflight_gathers, fsdp.peak_inflight_gathers());

      Tensor loss_t = Tensor::from({local_loss});
      {
        obs::TraceScope span("step.loss_allreduce", "comm", "step", step);
        comm.all_reduce(loss_t, comm::ReduceOp::kAvg);
      }
      result.step_losses.push_back(loss_t[0]);
      result.images_seen += cfg.global_batch;
      step_hist.observe(monotonic_seconds() - step_t0);
      if (cfg.verbose && comm.rank() == 0 && step % 10 == 0) {
        GEOFM_INFO("dist pretrain step " << step << " loss " << loss_t[0]
                                         << " exposed "
                                         << stats.exposed_wait_seconds
                                         << "s overlapped "
                                         << stats.overlapped_seconds()
                                         << "s loader " << fetch_seconds
                                         << "s");
      }
      ++step;
    }
  }
  // The run's last checkpoint must be durable (and any write failure
  // reported) before the driver returns.
  if (checkpointer) checkpointer->wait_idle();
  if (uploads_configured) {
    // Publication happens on whichever rank's shard lands last, so rank
    // 0 can only trust the queue after every rank's writer drained. The
    // condition is config-derived — symmetric across ranks.
    comm.barrier();
    if (uploader) {
      uploader->drain();
      const ckpt::UploaderStats ustats = uploader->stats();
      result.checkpoints_uploaded = ustats.uploaded;
      result.upload_failures = ustats.failures;
      result.upload_gave_up = ustats.gave_up;
      if (ustats.gave_up > 0) {
        GEOFM_WARN("run finished with " << ustats.gave_up
                                        << " checkpoint(s) never uploaded");
      }
    }
  }
  result.wall_seconds = timer.seconds();
  // GEOFM_HEALTH=path: rank 0 writes the cross-rank run-health report
  // (JSON). Peers may still be finishing their last step when rank 0
  // exits, so the report covers everything published by this point — the
  // elastic supervisor's run_health.json (written after all ranks join)
  // is the complete-run variant.
  if (comm.rank() == 0) {
    if (const char* path = std::getenv("GEOFM_HEALTH")) {
      if (path[0] != '\0') {
        try {
          write_file(path, obs::report_to_json(obs::build_run_health_report()));
        } catch (const std::exception& e) {
          GEOFM_WARN("GEOFM_HEALTH report failed: " << e.what());
        }
      }
    }
  }
  return result;
}

}  // namespace geofm::train

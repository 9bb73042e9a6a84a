// Distributed MAE pretraining with FSDP over thread ranks — the
// functional analogue of the paper's Frontier runs. Four "GPUs" (threads)
// train one model with FULL_SHARD parameter sharding; every rank's loader
// renders only its slice of each global batch, parameter gathers and
// gradient reduce-scatters are nonblocking and overlap compute, and the
// driver reports how much communication the async runtime hid behind
// compute.
//
// The run also exercises the fault-tolerance path end to end: sharded
// checkpoints are snapshotted asynchronously every 10 steps (the training
// loop only pays for the host-side staging copy; serialization and I/O
// happen on a background writer), and a second phase resumes from the
// latest checkpoint at HALF the world size — the elastic reshard path
// reassembling 4 ranks' shards into 2 ranks' layout.
//
// A third phase survives a fault *in-run* and then heals: a
// deterministic FaultPlan kills one rank mid-step under the elastic
// supervisor, which quarantines it, re-forms the communicator over the
// survivors (4 -> 2 here, since the global batch forces an even world),
// reshards from the latest checkpoint, and continues. At the next
// checkpoint boundary the supervisor runs the quarantined identities
// through a probationary health check and grows the world back to 4 —
// and every checkpoint it publishes along the way is mirrored to a
// secondary location by the background retrying uploader.
//
// Run:  ./example_distributed_pretraining
//
// Set GEOFM_TRACE=trace.json to capture a Chrome-trace timeline of the
// run (one track per rank; `ckpt.snapshot` spans sit on the rank tracks,
// `ckpt.write` on the background writer tracks).
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "geofm.hpp"

using namespace geofm;

namespace {

double metric_sum(const char* name) {
  for (const auto& sample : obs::MetricsRegistry::instance().snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

}  // namespace

int main() {
  const std::string ckpt_root = "/tmp/geofm_distributed_example_ckpt";
  std::filesystem::remove_all(ckpt_root);

  train::DistributedPretrainConfig cfg;
  cfg.steps = 20;
  cfg.global_batch = 64;
  cfg.lr = 3e-3;
  cfg.weight_decay = 0.05;
  cfg.seed = 9;
  cfg.loader_workers = 2;  // prefetch batches off the training thread
  cfg.verbose = true;
  cfg.checkpoint_every_n_steps = 10;
  cfg.checkpoint_dir = ckpt_root;
  cfg.async_checkpoint = true;

  std::printf("distributed MAE pretraining: 4 ranks, global batch %lld, "
              "FULL_SHARD, async checkpoint every %lld steps\n",
              static_cast<long long>(cfg.global_batch),
              static_cast<long long>(cfg.checkpoint_every_n_steps));

  auto corpus = data::million_aid_pretrain(512, 32);
  std::mutex io_mu;

  auto run_phase = [&](int n_ranks, const train::DistributedPretrainConfig&
                                        phase_cfg) {
    comm::run_ranks(n_ranks, [&](comm::Communicator& c) {
      // Every rank constructs the same model; FSDP broadcasts rank 0's
      // initialization and shards parameters.
      Rng rng(1);
      models::MAE mae(models::mae_for(models::proxy_huge()), rng);
      parallel::FsdpOptions opts;
      opts.strategy = parallel::ShardingStrategy::kFullShard;
      opts.prefetch = parallel::BackwardPrefetch::kBackwardPre;  // paper pick
      opts.limit_all_gathers = true;
      parallel::Fsdp fsdp(mae, c, opts);
      if (c.rank() == 0) {
        std::printf("  [%d ranks] shard elements/rank: %lld of %lld total\n",
                    n_ranks,
                    static_cast<long long>(fsdp.shard_elements_per_rank()),
                    static_cast<long long>(mae.num_params()));
      }

      const auto result =
          train::pretrain_mae_distributed(mae, fsdp, c, corpus, phase_cfg);

      if (c.rank() == 0) {
        std::lock_guard<std::mutex> lk(io_mu);
        std::printf("  [%d ranks] steps %lld..%lld, final loss %.4f after "
                    "%lld images in %.1fs\n",
                    n_ranks, static_cast<long long>(result.start_step),
                    static_cast<long long>(phase_cfg.steps - 1),
                    result.step_losses.back(),
                    static_cast<long long>(result.images_seen),
                    result.wall_seconds);
        std::printf("  overlap: %d/%d collectives already complete when "
                    "waited; %.1f ms comm hidden behind compute, %.1f ms "
                    "exposed; peak in-flight gathers %d (cap %d)\n",
                    result.collectives_overlapped, result.collectives_waited,
                    1e3 * result.overlapped_comm_seconds,
                    1e3 * result.exposed_wait_seconds,
                    result.peak_inflight_gathers,
                    parallel::kAllGatherInflightCap);
        std::printf("  input pipeline: %.1f ms loader-exposed "
                    "(%d workers/rank, worker-side batch slicing)\n",
                    1e3 * result.loader_exposed_seconds,
                    phase_cfg.loader_workers);
      }

      // Materialize and checkpoint the full model from rank 0 (the
      // single-file module format downstream tools read).
      fsdp.gather_full_parameters();
      if (c.rank() == 0) {
        ckpt::save_module(mae, "/tmp/geofm_distributed_example.bin");
      }
      c.barrier();
    });
  };

  // Phase 1: 4 ranks, checkpoints at steps 9 and 19.
  run_phase(4, cfg);
  const double snapshot_s = metric_sum("ckpt.snapshot_seconds");
  const double write_s = metric_sum("ckpt.write_seconds");
  std::printf("  async checkpointing: %.1f ms exposed staging vs %.1f ms "
              "hidden write+serialize (%lld bytes across %d shard writes)\n",
              1e3 * snapshot_s, 1e3 * write_s,
              static_cast<long long>(metric_sum("ckpt.bytes_written")),
              static_cast<int>(metric_sum("ckpt.shard_writes")));

  // Phase 2: elastic restart — resume the world-4 checkpoint on 2 ranks.
  const ckpt::PublishedManifest latest =
      ckpt::latest_published_manifest(ckpt_root);
  std::printf("resuming from %s at world size 2 (written at 4)\n",
              latest.dir.c_str());
  train::DistributedPretrainConfig resume_cfg = cfg;
  resume_cfg.steps = 30;
  resume_cfg.resume_from = ckpt_root;
  run_phase(2, resume_cfg);

  // Phase 3: in-run failure recovery, then grow-back. A fresh 4-rank run
  // under the elastic supervisor, with a fault plan that kills rank 1 at
  // step 12; the comm watchdog (1s deadline) would likewise catch a
  // silent stall. Survivors unwind with comm::Aborted; the supervisor
  // quarantines the dead rank, trims to an even world (global batch 64 is
  // not divisible by 3), re-forms at world 2, and reshards from the
  // step-9 checkpoint. With readmission enabled it then stops at the next
  // checkpoint boundary (step 14), health-checks the two parked
  // identities in a probationary rendezvous, and grows back to world 4
  // for the final stretch. Every published checkpoint is also mirrored to
  // a secondary directory by the background retrying uploader — training
  // never blocks on the mirror.
  const std::string elastic_root = ckpt_root + "_elastic";
  const std::string mirror_root = elastic_root + "_mirror";
  std::filesystem::remove_all(elastic_root);
  std::filesystem::remove_all(mirror_root);
  std::printf("elastic phase: 4 ranks, rank 1 killed at step 12 by fault "
              "plan; shrink, then grow back at the next checkpoint "
              "boundary\n");
  train::ElasticConfig ecfg;
  ecfg.model = models::mae_for(models::proxy_huge());
  ecfg.model_seed = 1;
  ecfg.world = 4;
  ecfg.fsdp.strategy = parallel::ShardingStrategy::kFullShard;
  ecfg.fsdp.prefetch = parallel::BackwardPrefetch::kBackwardPre;
  ecfg.train = cfg;
  ecfg.train.steps = 20;
  ecfg.train.checkpoint_every_n_steps = 5;
  ecfg.train.checkpoint_dir = elastic_root;
  ecfg.train.upload.destination = mirror_root;
  ecfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 12));
  ecfg.watchdog_deadline_seconds = 1.0;
  ecfg.readmission.readmit_quarantined = true;
  const auto eres = train::run_elastic(ecfg, corpus);
  for (size_t i = 0; i < eres.attempts.size(); ++i) {
    const auto& a = eres.attempts[i];
    if (a.completed) {
      std::printf("  attempt %zu: world %d ran steps %lld..%lld "
                  "(last loss %.4f)%s%s\n",
                  i + 1, a.world, static_cast<long long>(a.start_step),
                  static_cast<long long>(a.start_step) +
                      static_cast<long long>(a.losses.size()) - 1,
                  a.losses.back(),
                  a.readmitted.empty() ? "" : " — after growing back",
                  a.truncated_for_growth ? "; stopped at boundary to re-admit"
                                         : "");
    } else {
      std::printf("  attempt %zu: world %d failed — %s; quarantined rank "
                  "%d\n",
                  i + 1, a.world, a.failure.c_str(),
                  a.quarantined.empty() ? -1 : a.quarantined.front());
    }
  }
  std::printf("  recovered %d time(s) (%.1f ms failure-to-running), grew "
              "back %d time(s) (spans recover.detect / recover.reform / "
              "recover.reshard / recover.readmit in the trace)\n",
              eres.recoveries, 1e3 * eres.recovery_seconds,
              eres.readmissions);
  std::printf("  uploader: mirrored %d checkpoint(s) to %s "
              "(%lld bytes, %d attempt(s), %d retrie(s), %d gave up)\n",
              static_cast<int>(metric_sum("upload.checkpoints")),
              mirror_root.c_str(),
              static_cast<long long>(metric_sum("upload.bytes")),
              static_cast<int>(metric_sum("upload.attempts")),
              static_cast<int>(metric_sum("upload.retries")),
              static_cast<int>(metric_sum("upload.gave_up")));

  std::printf("done. checkpoints under %s, final model at "
              "/tmp/geofm_distributed_example.bin\n",
              ckpt_root.c_str());
  return 0;
}

#include "train/pretrain.hpp"

#include "data/dataloader.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace geofm::train {
namespace {

constexpr double kWarmupFrac = 0.05;  // fraction of steps spent warming up

}  // namespace

PretrainResult pretrain_mae(models::MAE& mae, const data::SceneDataset& corpus,
                            const PretrainConfig& cfg) {
  GEOFM_CHECK(cfg.epochs > 0 && cfg.batch_size > 0);
  Timer timer;

  // The loader workers render on cores of their own, not the kernels'.
  const ComputeShare share(1, cfg.loader_workers);
  data::DataLoader::Options lopts;
  lopts.batch_size = cfg.batch_size;
  lopts.n_workers = cfg.loader_workers;
  lopts.shuffle = true;
  lopts.seed = cfg.seed;
  data::DataLoader loader(corpus, data::Split::kTrain, lopts);

  const i64 steps_per_epoch = loader.batches_per_epoch();
  GEOFM_CHECK(steps_per_epoch > 0, "pretraining corpus smaller than a batch");
  const i64 total_steps = steps_per_epoch * cfg.epochs;
  const i64 warmup = static_cast<i64>(
      static_cast<double>(total_steps) * kWarmupFrac);

  // MAE linear lr scaling rule: effective lr = base * batch / 256.
  const double peak_lr =
      cfg.base_lr * static_cast<double>(cfg.batch_size) / 256.0;

  optim::AdamW opt(mae.parameters(), peak_lr, 0.9, 0.95, 1e-8,
                   cfg.weight_decay);

  PretrainResult result;
  result.step_losses.reserve(static_cast<size_t>(total_steps));
  Rng step_rng(cfg.seed ^ 0x3a5e11ULL);

  i64 global_step = 0;
  for (i64 epoch = 0; epoch < cfg.epochs; ++epoch) {
    loader.start_epoch(epoch);
    double epoch_loss = 0.0;
    i64 epoch_batches = 0;
    while (auto batch = loader.next()) {
      obs::TraceScope step_span("step", "runtime", "step", global_step);
      opt.set_lr(optim::cosine_warmup_lr(peak_lr, global_step, warmup,
                                         total_steps));
      opt.zero_grad();
      Rng mask_rng = step_rng.split(static_cast<u64>(global_step));
      const float loss = mae.forward(batch->images, mask_rng);
      mae.backward();
      opt.step();

      result.step_losses.push_back(loss);
      result.images_seen += batch->images.dim(0);
      epoch_loss += loss;
      ++epoch_batches;
      ++global_step;
    }
    result.epoch_losses.push_back(
        static_cast<float>(epoch_loss / std::max<i64>(1, epoch_batches)));
    if (cfg.verbose) {
      GEOFM_INFO("pretrain epoch " << epoch << "/" << cfg.epochs << " loss "
                                   << result.epoch_losses.back());
    }
  }
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace geofm::train

// MAE pretraining loop (paper Sec. V-B recipe): AdamW, base lr 1.5e-4
// scaled by global-batch/256, weight decay 0.05, cosine schedule with
// warmup over the first 5% of steps, 75% masking, multi-worker data
// loading, no augmentation (keeps the benchmark checkpoints reproducible).
#pragma once

#include <vector>

#include "data/datasets.hpp"
#include "models/mae.hpp"

namespace geofm::train {

struct PretrainConfig {
  i64 epochs = 20;
  i64 batch_size = 64;
  double base_lr = 1.5e-4;     // paper value (per 256 effective batch)
  double weight_decay = 0.05;  // paper value
  // The paper runs 4 per rank on a 7-core GCD slice. Each worker here
  // leaves the kernels' compute share, and one keeps up with a proxy step.
  int loader_workers = 1;
  u64 seed = 0;
  bool verbose = false;
};

struct PretrainResult {
  std::vector<float> step_losses;   // one per optimizer step
  std::vector<float> epoch_losses;  // mean loss per epoch
  double wall_seconds = 0.0;
  i64 images_seen = 0;
};

/// Pretrains `mae` in place on the (unlabeled) train split of `corpus`.
PretrainResult pretrain_mae(models::MAE& mae, const data::SceneDataset& corpus,
                            const PretrainConfig& cfg);

}  // namespace geofm::train

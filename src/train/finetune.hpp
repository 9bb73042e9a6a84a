// Fine-tuning — the paper's other downstream-adaptation protocol
// (Sec. II "Evaluation protocols for FMs"): unlike linear probing, some or
// all backbone parameters update together with the classification head.
//
// Supported configurations, mirroring the protocols the paper describes:
//   kFull          — update every layer;
//   kHeadOnly      — freeze the backbone (linear probing through the
//                    full-graph path; slower than train::linear_probe but
//                    numerically equivalent in expectation);
//   kTopBlocks(k)  — freeze everything below the top k transformer blocks.
#pragma once

#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "models/vit.hpp"

namespace geofm::train {

enum class FinetuneMode { kFull, kHeadOnly, kTopBlocks };

struct FinetuneConfig {
  FinetuneMode mode = FinetuneMode::kFull;
  int top_blocks = 2;     // used by kTopBlocks
  i64 epochs = 20;
  i64 batch_size = 64;
  double base_lr = 1e-3;  // AdamW, warmed up over the first 10% of steps
  double weight_decay = 0.05;
  u64 seed = 0;
  bool verbose = false;
};

struct FinetuneResult {
  std::vector<double> top1_per_epoch;  // test accuracy after each epoch
  std::vector<float> train_loss_per_epoch;
  double final_top1 = 0.0;
  double final_top5 = 0.0;
  i64 trainable_params = 0;
};

/// Copies a pretrained MAE's encoder weights (patch embed, cls token,
/// blocks, final norm) into a ViT encoder of the same architecture. The
/// ViT may carry a classification head (left at its own initialization).
void init_vit_from_mae(models::ViTEncoder& vit, models::MAE& mae);

/// Applies the freeze policy to the encoder (head always trains).
void apply_finetune_mode(models::ViTEncoder& vit, FinetuneMode mode,
                         int top_blocks);

/// Full fine-tuning loop on `dataset` with softmax cross-entropy.
FinetuneResult finetune(models::ViTEncoder& vit,
                        const data::SceneDataset& dataset,
                        const FinetuneConfig& cfg);

}  // namespace geofm::train

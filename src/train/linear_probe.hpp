// Linear probing (paper Sec. V-C): freeze the pretrained encoder, replace
// the head with a single linear classifier, train it with LARS (base lr
// 0.1, momentum 0.9, no weight decay, linear warmup over the first 10% of
// steps) and report top-1/top-5 accuracy per epoch.
//
// Because the backbone is frozen, features are precomputed once per split
// and the probe trains on cached features — numerically identical to
// running the encoder every step, and orders of magnitude faster.
#pragma once

#include <vector>

#include "data/datasets.hpp"
#include "models/mae.hpp"

namespace geofm::train {

struct ProbeConfig {
  i64 epochs = 100;       // paper value
  i64 batch_size = 256;   // paper: 256 (UCM/AID/NWPU), 1024 (MillionAID)
  double base_lr = 0.1;   // paper value (per 256 effective batch)
  u64 seed = 0;
  bool verbose = false;
};

struct ProbeResult {
  std::vector<double> top1_per_epoch;  // test accuracy after each epoch
  std::vector<double> top5_per_epoch;
  double final_top1 = 0.0;
  double final_top5 = 0.0;
};

/// Extracts pooled encoder features (MAE::encode) for every sample of
/// `split`.
/// Returns [n, width] features plus labels.
std::pair<Tensor, std::vector<i64>> extract_features(
    models::MAE& encoder, const data::SceneDataset& dataset, data::Split split,
    i64 batch_size = 256);

/// Full probing protocol on `dataset` using frozen `encoder` features.
ProbeResult linear_probe(models::MAE& encoder,
                         const data::SceneDataset& dataset,
                         const ProbeConfig& cfg);

}  // namespace geofm::train

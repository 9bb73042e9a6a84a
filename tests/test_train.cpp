// Training-layer tests: MAE pretraining loop and linear probing protocol.
#include <gtest/gtest.h>

#include "models/config.hpp"
#include "train/linear_probe.hpp"
#include "train/pretrain.hpp"

namespace geofm {
namespace {

models::MaeConfig tiny_cfg() {
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 2, .mlp_dim = 64,
                        .heads = 2, .img_size = 32, .patch_size = 8,
                        .in_channels = 3};
  return models::mae_for(enc);
}

TEST(Pretrain, LossDecreasesOverEpochs) {
  Rng rng(1);
  models::MAE mae(tiny_cfg(), rng);
  auto corpus = data::million_aid_pretrain(128, 32);
  train::PretrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  cfg.base_lr = 4e-3;  // proxy scale trains faster with a larger lr
  cfg.loader_workers = 2;
  cfg.seed = 7;
  auto result = train::pretrain_mae(mae, corpus, cfg);

  ASSERT_EQ(result.epoch_losses.size(), 4u);
  EXPECT_EQ(static_cast<i64>(result.step_losses.size()), 4 * (128 / 32));
  EXPECT_EQ(result.images_seen, 4 * 128);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  for (float l : result.step_losses) EXPECT_TRUE(std::isfinite(l));
}

TEST(Pretrain, DeterministicAcrossRuns) {
  auto run_once = [] {
    Rng rng(3);
    models::MAE mae(tiny_cfg(), rng);
    auto corpus = data::million_aid_pretrain(64, 32);
    train::PretrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 32;
    cfg.loader_workers = 3;
    cfg.seed = 11;
    return train::pretrain_mae(mae, corpus, cfg).step_losses;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Probe, ExtractFeaturesShapesAndDeterminism) {
  Rng rng(2);
  models::MAE mae(tiny_cfg(), rng);
  auto ds = data::ucm(32, {.divisor = 21});  // 50/50 samples
  auto [f1, y1] = train::extract_features(mae, ds, data::Split::kTrain, 16);
  auto [f2, y2] = train::extract_features(mae, ds, data::Split::kTrain, 32);
  EXPECT_EQ(f1.shape(), (std::vector<i64>{50, 16}));
  EXPECT_EQ(y1.size(), 50u);
  // Batch size must not affect features.
  EXPECT_TRUE(f1.allclose(f2, 1e-5f, 1e-6f));
  EXPECT_EQ(y1, y2);
}

TEST(Probe, BeatsChanceOnEasySetupAndImproves) {
  Rng rng(4);
  models::MAE mae(tiny_cfg(), rng);
  // Short pretraining so features carry some signal.
  auto corpus = data::million_aid_pretrain(512, 32);
  train::PretrainConfig pcfg;
  pcfg.epochs = 5;
  pcfg.batch_size = 64;
  pcfg.base_lr = 3e-3;
  pcfg.seed = 5;
  train::pretrain_mae(mae, corpus, pcfg);

  auto ds = data::ucm(32, {.divisor = 3});  // 350/350
  train::ProbeConfig cfg;
  cfg.epochs = 20;
  cfg.batch_size = 64;
  cfg.seed = 9;
  auto result = train::linear_probe(mae, ds, cfg);

  ASSERT_EQ(result.top1_per_epoch.size(), 20u);
  const double chance = 1.0 / ds.n_classes();
  EXPECT_GT(result.final_top1, 2.5 * chance);
  EXPECT_GE(result.final_top5, result.final_top1);
  // Later epochs beat the first epoch.
  EXPECT_GT(result.final_top1, result.top1_per_epoch.front() - 1e-9);
}

}  // namespace
}  // namespace geofm

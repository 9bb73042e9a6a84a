// Fine-tuning tests: MAE->ViT weight transfer, freeze policies, and the
// training loop on a small dataset.
#include <gtest/gtest.h>

#include <algorithm>

#include "models/config.hpp"
#include "nn/block.hpp"
#include "nn/pos_embed.hpp"
#include "train/finetune.hpp"
#include "train/pretrain.hpp"

namespace geofm {
namespace {

models::ViTConfig enc_cfg() { return models::proxy_huge(); }

// The MAE encoder's class-token feature [B, width], read out through the
// MAE's own modules: patch embed plus sin-cos positions, the cls token
// prepended, the encoder blocks, the encoder norm, then token 0.
Tensor mae_cls_feature(models::MAE& mae, const Tensor& images) {
  const auto& e = mae.config().encoder;
  const i64 b = images.dim(0), n = e.n_patches(), w = e.width;
  const Tensor tokens = mae.patch_embed.forward(images);
  const Tensor pos =
      nn::sincos_pos_embed_2d(w, e.img_size / e.patch_size, true);
  Tensor x({b, n + 1, w});
  for (i64 bi = 0; bi < b; ++bi) {
    float* row = x.data() + bi * (n + 1) * w;
    std::copy_n(mae.cls_token.value.data(), w, row);
    for (i64 i = 0; i < n * w; ++i) {
      row[w + i] = tokens.data()[bi * n * w + i] + pos.data()[w + i];
    }
  }
  const auto stages = mae.stage_modules();
  for (i64 i = 0; i < e.depth; ++i) {
    x = static_cast<nn::TransformerBlock*>(stages[static_cast<size_t>(i)])
            ->forward(x);
  }
  x = mae.enc_norm.forward(x);
  Tensor feat({b, w});
  for (i64 bi = 0; bi < b; ++bi) {
    std::copy_n(x.data() + bi * (n + 1) * w, w, feat.data() + bi * w);
  }
  return feat;
}

TEST(Finetune, WeightTransferMatchesEncodeFeatures) {
  Rng rng(1);
  models::MAE mae(models::mae_for(enc_cfg()), rng);
  // Light pretraining so the weights are non-trivial.
  auto corpus = data::million_aid_pretrain(128, 32);
  train::PretrainConfig pc;
  pc.epochs = 2;
  pc.batch_size = 64;
  pc.seed = 5;
  train::pretrain_mae(mae, corpus, pc);

  Rng rng2(99);
  models::ViTEncoder vit(enc_cfg(), rng2, /*num_classes=*/0);
  train::init_vit_from_mae(vit, mae);

  // The headless ViT's cls feature must equal the MAE encoder's:
  // identical weights, identical forward path.
  Rng drng(7);
  Tensor img = Tensor::randn({3, 3, 32, 32}, drng, 0.5f);
  Tensor from_vit = vit.forward(img);
  Tensor from_mae = mae_cls_feature(mae, img);
  EXPECT_TRUE(from_vit.allclose(from_mae, 1e-5f, 1e-6f));
}

TEST(Finetune, TransferRejectsMismatchedArch) {
  Rng rng(2);
  models::MAE mae(models::mae_for(models::proxy_base()), rng);
  models::ViTEncoder vit(models::proxy_huge(), rng, 0);
  EXPECT_THROW(train::init_vit_from_mae(vit, mae), Error);
}

TEST(Finetune, FreezePoliciesControlTrainableCount) {
  Rng rng(3);
  models::ViTEncoder vit(enc_cfg(), rng, /*num_classes=*/10);
  auto trainable = [&] {
    i64 n = 0;
    for (nn::Parameter* p : vit.parameters()) {
      if (p->requires_grad) n += p->numel();
    }
    return n;
  };
  train::apply_finetune_mode(vit, train::FinetuneMode::kFull, 0);
  const i64 full = trainable();
  EXPECT_EQ(full, vit.num_params());

  train::apply_finetune_mode(vit, train::FinetuneMode::kHeadOnly, 0);
  const i64 head_only = trainable();
  EXPECT_LT(head_only, full / 10);
  // Exactly the head: width*classes + classes.
  EXPECT_EQ(head_only, enc_cfg().width * 10 + 10);

  train::apply_finetune_mode(vit, train::FinetuneMode::kTopBlocks, 1);
  const i64 top1 = trainable();
  EXPECT_GT(top1, head_only);
  EXPECT_LT(top1, full);
}

TEST(Finetune, HeadOnlyDoesNotTouchBackboneWeights) {
  Rng rng(4);
  models::ViTEncoder vit(enc_cfg(), rng, 21);
  const Tensor before = vit.patch_embed.proj.weight.value.clone();

  train::FinetuneConfig cfg;
  cfg.mode = train::FinetuneMode::kHeadOnly;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  cfg.seed = 6;
  auto ds = data::ucm(32, {.divisor = 21});  // 50/50
  train::finetune(vit, ds, cfg);
  EXPECT_TRUE(
      vit.patch_embed.proj.weight.value.allclose(before, 0.f, 0.f));
}

TEST(Finetune, FullFinetuneLearnsAboveChance) {
  Rng rng(5);
  models::MAE mae(models::mae_for(enc_cfg()), rng);
  auto corpus = data::million_aid_pretrain(256, 32);
  train::PretrainConfig pc;
  pc.epochs = 3;
  pc.batch_size = 64;
  pc.base_lr = 3e-3;
  pc.seed = 8;
  train::pretrain_mae(mae, corpus, pc);

  models::ViTEncoder vit(enc_cfg(), rng, 21);
  train::init_vit_from_mae(vit, mae);

  train::FinetuneConfig cfg;
  cfg.mode = train::FinetuneMode::kFull;
  cfg.epochs = 10;
  cfg.batch_size = 64;
  cfg.base_lr = 2e-3;
  cfg.seed = 9;
  auto ds = data::ucm(32, {.divisor = 3});  // 350/350
  auto result = train::finetune(vit, ds, cfg);

  EXPECT_EQ(result.trainable_params, vit.num_params());
  EXPECT_EQ(result.top1_per_epoch.size(), 10u);
  // Loss decreases and accuracy clears chance by a wide margin.
  EXPECT_LT(result.train_loss_per_epoch.back(),
            result.train_loss_per_epoch.front());
  EXPECT_GT(result.final_top1, 2.5 / 21);
  EXPECT_GE(result.final_top5, result.final_top1);
}

TEST(Finetune, RequiresClassificationHead) {
  Rng rng(6);
  models::ViTEncoder vit(enc_cfg(), rng, /*num_classes=*/0);
  train::FinetuneConfig cfg;
  auto ds = data::ucm(32, {.divisor = 21});
  EXPECT_THROW(train::finetune(vit, ds, cfg), Error);
}

}  // namespace
}  // namespace geofm

#include "train/finetune.hpp"

#include <algorithm>

#include "optim/optimizer.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"

namespace geofm::train {
namespace {

constexpr double kWarmupFrac = 0.1;  // fraction of steps spent warming up

}  // namespace

void init_vit_from_mae(models::ViTEncoder& vit, models::MAE& mae) {
  const auto& vcfg = vit.config();
  const auto& mcfg = mae.config().encoder;
  GEOFM_CHECK(vcfg.width == mcfg.width && vcfg.depth == mcfg.depth &&
                  vcfg.mlp_dim == mcfg.mlp_dim && vcfg.heads == mcfg.heads &&
                  vcfg.img_size == mcfg.img_size &&
                  vcfg.patch_size == mcfg.patch_size,
              "encoder architectures differ");

  // Both models lay their encoder parameters out in the same order:
  // patch embed, cls token, per-block parameters, final norm. Build the
  // MAE-side list and copy positionally.
  std::vector<nn::Parameter*> src;
  for (nn::Parameter* p : mae.patch_embed.parameters()) src.push_back(p);
  src.push_back(&mae.cls_token);
  auto mae_stages = mae.stage_modules();
  for (i64 i = 0; i < mcfg.depth; ++i) {
    for (nn::Parameter* p :
         mae_stages[static_cast<size_t>(i)]->parameters()) {
      src.push_back(p);
    }
  }
  for (nn::Parameter* p : mae.enc_norm.parameters()) src.push_back(p);

  std::vector<nn::Parameter*> dst;
  for (nn::Parameter* p : vit.patch_embed.parameters()) dst.push_back(p);
  dst.push_back(&vit.cls_token);
  for (nn::Module* blk : vit.stage_modules()) {
    for (nn::Parameter* p : blk->parameters()) dst.push_back(p);
  }
  for (nn::Parameter* p : vit.norm.parameters()) dst.push_back(p);

  GEOFM_CHECK(src.size() == dst.size(), "encoder parameter lists differ");
  for (size_t i = 0; i < src.size(); ++i) {
    GEOFM_CHECK(src[i]->numel() == dst[i]->numel(),
                "shape mismatch transferring " << src[i]->name << " -> "
                                               << dst[i]->name);
    dst[i]->value.copy_(src[i]->value);
  }
}

void apply_finetune_mode(models::ViTEncoder& vit, FinetuneMode mode,
                         int top_blocks) {
  // Start from everything trainable, then freeze per policy. The head
  // (not part of root/stage backbone lists' freeze set) always trains.
  for (nn::Parameter* p : vit.parameters()) p->requires_grad = true;
  if (mode == FinetuneMode::kFull) return;

  auto freeze = [](nn::Parameter* p) { p->requires_grad = false; };
  for (nn::Parameter* p : vit.patch_embed.parameters()) freeze(p);
  freeze(&vit.cls_token);
  auto stages = vit.stage_modules();
  const int keep =
      mode == FinetuneMode::kHeadOnly ? 0 : std::max(0, top_blocks);
  const int frozen_stages =
      std::max(0, static_cast<int>(stages.size()) - keep);
  for (int i = 0; i < frozen_stages; ++i) {
    for (nn::Parameter* p : stages[static_cast<size_t>(i)]->parameters()) {
      freeze(p);
    }
  }
  if (mode == FinetuneMode::kHeadOnly) {
    for (nn::Parameter* p : vit.norm.parameters()) freeze(p);
  }
}

FinetuneResult finetune(models::ViTEncoder& vit,
                        const data::SceneDataset& dataset,
                        const FinetuneConfig& cfg) {
  GEOFM_CHECK(vit.has_head(), "finetune needs a classification head");
  apply_finetune_mode(vit, cfg.mode, cfg.top_blocks);

  FinetuneResult result;
  for (nn::Parameter* p : vit.parameters()) {
    if (p->requires_grad) result.trainable_params += p->numel();
  }

  optim::AdamW opt(vit.parameters(), cfg.base_lr, 0.9, 0.999, 1e-8,
                   cfg.weight_decay);
  const i64 n_train = dataset.size(data::Split::kTrain);
  const i64 steps_per_epoch = std::max<i64>(1, n_train / cfg.batch_size);
  const i64 total_steps = steps_per_epoch * cfg.epochs;
  const i64 warmup =
      static_cast<i64>(static_cast<double>(total_steps) * kWarmupFrac);

  std::vector<i64> order(static_cast<size_t>(n_train));
  for (i64 i = 0; i < n_train; ++i) order[static_cast<size_t>(i)] = i;

  // Pre-render the test split once.
  std::vector<i64> test_idx(
      static_cast<size_t>(dataset.size(data::Split::kTest)));
  for (size_t i = 0; i < test_idx.size(); ++i) {
    test_idx[i] = static_cast<i64>(i);
  }

  i64 global_step = 0;
  for (i64 epoch = 0; epoch < cfg.epochs; ++epoch) {
    Rng shuffle = Rng(cfg.seed).split(0xf17eULL).split(
        static_cast<u64>(epoch));
    for (i64 i = n_train - 1; i > 0; --i) {
      const i64 j = shuffle.uniform_int(i + 1);
      std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    }

    double epoch_loss = 0;
    for (i64 s = 0; s < steps_per_epoch; ++s) {
      const i64 begin = s * cfg.batch_size;
      const i64 end = std::min<i64>(begin + cfg.batch_size, n_train);
      std::vector<i64> idx(order.begin() + begin, order.begin() + end);
      auto [images, labels] = dataset.make_batch(data::Split::kTrain, idx);

      opt.set_lr(optim::cosine_warmup_lr(cfg.base_lr, global_step, warmup,
                                         total_steps));
      opt.zero_grad();
      Tensor logits = vit.forward(images);
      auto ce = ops::softmax_cross_entropy(logits, labels);
      vit.backward(ops::softmax_cross_entropy_backward(ce, labels));
      opt.step();
      epoch_loss += ce.loss;
      ++global_step;
    }
    result.train_loss_per_epoch.push_back(
        static_cast<float>(epoch_loss / steps_per_epoch));

    // Evaluate.
    double top1 = 0, top5 = 0;
    i64 seen = 0;
    for (size_t begin = 0; begin < test_idx.size(); begin += 256) {
      const size_t end = std::min(begin + 256, test_idx.size());
      std::vector<i64> idx(test_idx.begin() + static_cast<i64>(begin),
                           test_idx.begin() + static_cast<i64>(end));
      auto [images, labels] = dataset.make_batch(data::Split::kTest, idx);
      Tensor logits = vit.forward(images);
      const i64 b = static_cast<i64>(idx.size());
      top1 += ops::topk_accuracy(logits, labels, 1) * static_cast<double>(b);
      top5 += ops::topk_accuracy(logits, labels, 5) * static_cast<double>(b);
      seen += b;
    }
    result.top1_per_epoch.push_back(top1 / static_cast<double>(seen));
    result.final_top5 = top5 / static_cast<double>(seen);
    if (cfg.verbose) {
      GEOFM_INFO("finetune epoch " << epoch << " loss "
                                   << result.train_loss_per_epoch.back()
                                   << " top1 "
                                   << result.top1_per_epoch.back());
    }
  }
  result.final_top1 = result.top1_per_epoch.back();
  return result;
}

}  // namespace geofm::train

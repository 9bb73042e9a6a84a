// Masked Autoencoder (He et al.) for ViT pretraining, as adopted by the
// paper: random 75% patch masking, ViT encoder over visible patches only,
// a lightweight transformer decoder that reconstructs all patches, and an
// MSE loss on per-patch-normalized pixels of the masked patches.
#pragma once

#include <memory>
#include <vector>

#include "models/config.hpp"
#include "nn/block.hpp"
#include "nn/hooks.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/patch_embed.hpp"
#include "nn/staged_model.hpp"

namespace geofm::models {

class MAE : public nn::Module, public nn::StagedModel {
 public:
  MAE(const MaeConfig& cfg, Rng& rng);

  /// Runs the full masked-autoencoding step on a batch and returns the
  /// masked-reconstruction loss. Sample `bi`'s mask is drawn from the
  /// stream mask_rng.split(sample_offset + bi), so masking is a pure
  /// function of (step rng, global sample index) — data-parallel ranks
  /// processing a slice of a global batch pass their slice offset and
  /// reproduce exactly the masks a single-rank run would generate.
  float forward(const Tensor& images, Rng& mask_rng, i64 sample_offset = 0);

  /// Backpropagates the loss from the last forward; accumulates all
  /// parameter gradients. Returns d(images) (rarely used).
  Tensor backward();

  /// Feature extraction for downstream adaptation: runs the *unmasked*
  /// full patch sequence through the encoder and returns per-image
  /// features [B, encoder width], the mean of the patch tokens after the
  /// encoder norm. Inference only (no activation caching is preserved for
  /// backward).
  Tensor encode(const Tensor& images);

  std::vector<nn::Parameter*> parameters() override;

  /// The encoder-only parameter subset (patch embed, cls token, encoder
  /// blocks, encoder norm) — exactly what encode() reads. The serving
  /// tier restores just these from full MAE checkpoints, skipping the
  /// decoder weights a frozen-encoder service never runs.
  std::vector<nn::Parameter*> encoder_parameters();

  const MaeConfig& config() const { return cfg_; }
  /// Number of visible (kept) patches per sample.
  i64 n_keep() const { return n_keep_; }

  /// Reconstruction of the last forward, [B, N, patch_dim] in normalized-
  /// pixel space (for visualization/examples).
  const Tensor& last_prediction() const { return pred_; }
  /// 1 = masked (reconstructed & scored), 0 = visible; length B*N.
  const std::vector<u32>& last_mask() const { return mask_; }

  // ----- FSDP integration: stages = encoder blocks then decoder blocks -----
  int n_stages() const override {
    return static_cast<int>(enc_blocks_.size() + dec_blocks_.size());
  }
  std::vector<nn::Module*> stage_modules();
  std::vector<nn::Parameter*> root_parameters();
  void set_stage_hooks(const nn::StageHooks* hooks) { hooks_ = hooks; }

  std::vector<nn::Module*> stages() override { return stage_modules(); }
  std::vector<nn::Parameter*> root_params() override {
    return root_parameters();
  }
  void install_stage_hooks(const nn::StageHooks* hooks) override {
    set_stage_hooks(hooks);
  }
  nn::Module& module() override { return *this; }

  // Encoder
  nn::PatchEmbed patch_embed;
  nn::Parameter cls_token;
  nn::LayerNorm enc_norm;
  // Decoder
  nn::Linear dec_embed;    // enc width -> dec width
  nn::Parameter mask_token;  // [1, dec width]
  nn::LayerNorm dec_norm;
  nn::Linear pred;  // dec width -> patch_dim

 private:
  MaeConfig cfg_;
  i64 n_keep_;
  Tensor enc_pos_;  // [N+1, enc width]
  Tensor dec_pos_;  // [N+1, dec width]
  std::vector<std::unique_ptr<nn::TransformerBlock>> enc_blocks_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> dec_blocks_;
  const nn::StageHooks* hooks_ = nullptr;

  // Forward cache for the backward pass.
  i64 batch_ = 0;
  std::vector<i64> keep_index_;  // flat gather index into [B*N] rows
  std::vector<u32> mask_;        // per (b, patch): 1 if masked
  Tensor pred_;                  // [B, N, patch_dim]
  Tensor dpred_;                 // d(loss)/d(pred), [B*N, patch_dim]
};

}  // namespace geofm::models

#include "models/mae.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/pos_embed.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace geofm::models {
namespace {

// Adds a [T, C] table to every batch element of [B, T, C].
void add_pos(Tensor& x, const Tensor& pos, i64 first_row) {
  const i64 b = x.dim(0), t = x.dim(1), c = x.dim(2);
  const float* pp = pos.data() + first_row * c;
  float* xp = x.data();
  for (i64 bi = 0; bi < b; ++bi) {
    float* base = xp + bi * t * c;
    for (i64 i = 0; i < t * c; ++i) base[i] += pp[i];
  }
}

// Adds pos rows selected by an index per token (for the gathered visible
// set, whose positions are non-contiguous).
void add_pos_gathered(Tensor& x, const Tensor& pos,
                      const std::vector<i64>& patch_of_token) {
  const i64 rows = x.dim(0) * x.dim(1);
  const i64 c = x.dim(2);
  GEOFM_CHECK(static_cast<i64>(patch_of_token.size()) == rows);
  float* xp = x.data();
  const float* pp = pos.data();
  for (i64 r = 0; r < rows; ++r) {
    const float* src = pp + patch_of_token[static_cast<size_t>(r)] * c;
    float* dst = xp + r * c;
    for (i64 j = 0; j < c; ++j) dst[j] += src[j];
  }
}

Tensor prepend_cls(const Tensor& tokens, const Tensor& cls) {
  const i64 b = tokens.dim(0), n = tokens.dim(1), c = tokens.dim(2);
  Tensor out({b, n + 1, c});
  for (i64 bi = 0; bi < b; ++bi) {
    float* row = out.data() + bi * (n + 1) * c;
    std::copy_n(cls.data(), c, row);
    std::copy_n(tokens.data() + bi * n * c, n * c, row + c);
  }
  return out;
}

// Per-patch pixel normalization of targets, as in the MAE paper
// (norm_pix_loss=True): each patch row is standardized independently.
Tensor normalize_patches(const Tensor& patches) {
  const i64 rows = patches.dim(0) * patches.dim(1);
  const i64 c = patches.dim(2);
  Tensor out(patches.shape());
  const float* pp = patches.data();
  float* op = out.data();
  for (i64 r = 0; r < rows; ++r) {
    const float* src = pp + r * c;
    float* dst = op + r * c;
    double mean = 0;
    for (i64 j = 0; j < c; ++j) mean += src[j];
    mean /= static_cast<double>(c);
    double var = 0;
    for (i64 j = 0; j < c; ++j) var += (src[j] - mean) * (src[j] - mean);
    var /= static_cast<double>(c);
    const float rstd = static_cast<float>(1.0 / std::sqrt(var + 1e-6));
    for (i64 j = 0; j < c; ++j) {
      dst[j] = (src[j] - static_cast<float>(mean)) * rstd;
    }
  }
  return out;
}

}  // namespace

MAE::MAE(const MaeConfig& cfg, Rng& rng)
    : patch_embed("mae.patch_embed", cfg.encoder.img_size,
                  cfg.encoder.patch_size, cfg.encoder.in_channels,
                  cfg.encoder.width, rng),
      enc_norm("mae.enc_norm", cfg.encoder.width),
      dec_embed("mae.dec_embed", cfg.encoder.width, cfg.decoder_width, rng),
      dec_norm("mae.dec_norm", cfg.decoder_width),
      pred("mae.pred", cfg.decoder_width, cfg.encoder.patch_dim(), rng),
      cfg_(cfg) {
  GEOFM_CHECK(cfg.mask_ratio > 0.0 && cfg.mask_ratio < 1.0,
              "mask ratio must be in (0,1)");
  const i64 n = cfg.encoder.n_patches();
  n_keep_ = std::max<i64>(1, static_cast<i64>(
                                 std::llround(n * (1.0 - cfg.mask_ratio))));
  GEOFM_CHECK(n_keep_ < n, "mask ratio leaves no masked patches");

  cls_token.name = "mae.cls_token";
  cls_token.value = Tensor({1, cfg.encoder.width});
  nn::trunc_normal_(cls_token.value, rng);
  mask_token.name = "mae.mask_token";
  mask_token.value = Tensor({1, cfg.decoder_width});
  nn::trunc_normal_(mask_token.value, rng);

  const i64 grid = cfg.encoder.img_size / cfg.encoder.patch_size;
  enc_pos_ = nn::sincos_pos_embed_2d(cfg.encoder.width, grid, true);
  dec_pos_ = nn::sincos_pos_embed_2d(cfg.decoder_width, grid, true);

  for (i64 i = 0; i < cfg.encoder.depth; ++i) {
    enc_blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        "mae.enc_block" + std::to_string(i), cfg.encoder.width,
        cfg.encoder.heads, cfg.encoder.mlp_dim, rng));
  }
  for (i64 i = 0; i < cfg.decoder_depth; ++i) {
    dec_blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        "mae.dec_block" + std::to_string(i), cfg.decoder_width,
        cfg.decoder_heads, 4 * cfg.decoder_width, rng));
  }
}

float MAE::forward(const Tensor& images, Rng& mask_rng, i64 sample_offset) {
  obs::TraceScope trace_span("mae.forward", "compute", "batch", images.dim(0));
  const i64 b = images.dim(0);
  const i64 n = cfg_.encoder.n_patches();
  const i64 we = cfg_.encoder.width;
  const i64 wd = cfg_.decoder_width;
  const i64 keep = n_keep_;
  batch_ = b;

  // ---- random masking: per-sample argsort of uniform noise --------------
  keep_index_.assign(static_cast<size_t>(b * keep), 0);
  mask_.assign(static_cast<size_t>(b * n), 1);
  std::vector<std::pair<double, i64>> noise(static_cast<size_t>(n));
  for (i64 bi = 0; bi < b; ++bi) {
    Rng sample_rng = mask_rng.split(static_cast<u64>(sample_offset + bi));
    for (i64 p = 0; p < n; ++p) {
      noise[static_cast<size_t>(p)] = {sample_rng.uniform(), p};
    }
    std::sort(noise.begin(), noise.end());
    for (i64 j = 0; j < keep; ++j) {
      const i64 p = noise[static_cast<size_t>(j)].second;
      keep_index_[static_cast<size_t>(bi * keep + j)] = bi * n + p;
      mask_[static_cast<size_t>(bi * n + p)] = 0;
    }
  }

  // ---- encoder ------------------------------------------------------------
  Tensor tokens = patch_embed.forward(images);  // [B,N,we]
  // Gather the visible tokens, then add their positional rows.
  Tensor visible =
      ops::gather_rows(tokens.view({b * n, we}), keep_index_).view({b, keep, we});
  std::vector<i64> patch_of_token(static_cast<size_t>(b * keep));
  for (i64 r = 0; r < b * keep; ++r) {
    // +1: pos row 0 belongs to the cls token.
    patch_of_token[static_cast<size_t>(r)] =
        keep_index_[static_cast<size_t>(r)] % n + 1;
  }
  add_pos_gathered(visible, enc_pos_, patch_of_token);

  Tensor x = prepend_cls(visible, cls_token.value);  // [B,keep+1,we]
  for (size_t i = 0; i < enc_blocks_.size(); ++i) {
    const int stage = static_cast<int>(i);
    if (hooks_ != nullptr) hooks_->fire_before_forward(stage);
    {
      // The span covers the stage's compute only; hook-driven gathers and
      // reshards trace under their own fsdp/comm spans.
      obs::TraceScope span("stage.forward", "compute", "stage", stage);
      x = enc_blocks_[i]->forward(x);
    }
    if (hooks_ != nullptr) hooks_->fire_after_forward(stage);
  }
  x = enc_norm.forward(x);  // latent [B,keep+1,we]

  // ---- decoder ------------------------------------------------------------
  Tensor y = dec_embed.forward(x);  // [B,keep+1,wd]
  // Reassemble the full token sequence: cls + visible-at-position + mask
  // tokens at masked positions.
  Tensor full = Tensor::zeros({b, n + 1, wd});
  {
    const float* mt = mask_token.value.data();
    for (i64 bi = 0; bi < b; ++bi) {
      float* base = full.data() + bi * (n + 1) * wd;
      // cls row.
      std::copy_n(y.data() + bi * (keep + 1) * wd, wd, base);
      // default every patch row to the mask token...
      for (i64 p = 0; p < n; ++p) {
        std::copy_n(mt, wd, base + (1 + p) * wd);
      }
      // ...then place the visible tokens at their original positions.
      for (i64 j = 0; j < keep; ++j) {
        const i64 p = keep_index_[static_cast<size_t>(bi * keep + j)] % n;
        std::copy_n(y.data() + (bi * (keep + 1) + 1 + j) * wd, wd,
                    base + (1 + p) * wd);
      }
    }
  }
  add_pos(full, dec_pos_, 0);

  Tensor d = full;
  for (size_t i = 0; i < dec_blocks_.size(); ++i) {
    const int stage = static_cast<int>(enc_blocks_.size() + i);
    if (hooks_ != nullptr) hooks_->fire_before_forward(stage);
    {
      obs::TraceScope span("stage.forward", "compute", "stage", stage);
      d = dec_blocks_[i]->forward(d);
    }
    if (hooks_ != nullptr) hooks_->fire_after_forward(stage);
  }
  d = dec_norm.forward(d);
  Tensor out = pred.forward(d);  // [B,N+1,pdim]

  // Drop the cls row.
  const i64 pdim = cfg_.encoder.patch_dim();
  pred_ = Tensor({b, n, pdim});
  for (i64 bi = 0; bi < b; ++bi) {
    std::copy_n(out.data() + (bi * (n + 1) + 1) * pdim, n * pdim,
                pred_.data() + bi * n * pdim);
  }

  // ---- loss: normalized-pixel MSE on masked patches ----------------------
  Tensor target = normalize_patches(ops::patchify(images, cfg_.encoder.patch_size));
  const float loss = ops::masked_mse(pred_.view({b * n, pdim}),
                                     target.view({b * n, pdim}), mask_,
                                     &dpred_);
  return loss;
}

Tensor MAE::backward() {
  obs::TraceScope trace_span("mae.backward", "compute", "batch", batch_);
  GEOFM_CHECK(dpred_.defined(), "MAE backward before forward");
  const i64 b = batch_;
  const i64 n = cfg_.encoder.n_patches();
  const i64 we = cfg_.encoder.width;
  const i64 wd = cfg_.decoder_width;
  const i64 keep = n_keep_;
  const i64 pdim = cfg_.encoder.patch_dim();

  // Re-attach the (gradient-free) cls row dropped after `pred`.
  Tensor dout = Tensor::zeros({b, n + 1, pdim});
  for (i64 bi = 0; bi < b; ++bi) {
    std::copy_n(dpred_.data() + bi * n * pdim, n * pdim,
                dout.data() + (bi * (n + 1) + 1) * pdim);
  }

  Tensor dd = pred.backward(dout);
  dd = dec_norm.backward(dd);
  for (int i = static_cast<int>(dec_blocks_.size()) - 1; i >= 0; --i) {
    const int stage = static_cast<int>(enc_blocks_.size()) + i;
    if (hooks_ != nullptr) hooks_->fire_before_backward(stage);
    {
      obs::TraceScope span("stage.backward", "compute", "stage", stage);
      dd = dec_blocks_[static_cast<size_t>(i)]->backward(dd);
    }
    if (hooks_ != nullptr) hooks_->fire_after_backward(stage);
  }
  // Positional table is fixed; gradient passes through unchanged.

  // Un-assemble: route gradients back to (cls|visible) rows of `y` and to
  // the mask token parameter.
  Tensor dy = Tensor::zeros({b, keep + 1, wd});
  if (mask_token.requires_grad) mask_token.ensure_grad();
  for (i64 bi = 0; bi < b; ++bi) {
    const float* base = dd.data() + bi * (n + 1) * wd;
    // cls row.
    std::copy_n(base, wd, dy.data() + bi * (keep + 1) * wd);
    // visible rows.
    std::vector<bool> visible(static_cast<size_t>(n), false);
    for (i64 j = 0; j < keep; ++j) {
      const i64 p = keep_index_[static_cast<size_t>(bi * keep + j)] % n;
      visible[static_cast<size_t>(p)] = true;
      std::copy_n(base + (1 + p) * wd, wd,
                  dy.data() + (bi * (keep + 1) + 1 + j) * wd);
    }
    // masked rows accumulate into the mask token.
    if (mask_token.requires_grad) {
      float* mg = mask_token.grad.data();
      for (i64 p = 0; p < n; ++p) {
        if (visible[static_cast<size_t>(p)]) continue;
        const float* src = base + (1 + p) * wd;
        for (i64 j = 0; j < wd; ++j) mg[j] += src[j];
      }
    }
  }

  Tensor dlatent = dec_embed.backward(dy);        // [B,keep+1,we]
  dlatent = enc_norm.backward(dlatent);
  for (int i = static_cast<int>(enc_blocks_.size()) - 1; i >= 0; --i) {
    if (hooks_ != nullptr) hooks_->fire_before_backward(i);
    {
      obs::TraceScope span("stage.backward", "compute", "stage", i);
      dlatent = enc_blocks_[static_cast<size_t>(i)]->backward(dlatent);
    }
    if (hooks_ != nullptr) hooks_->fire_after_backward(i);
  }

  // Split cls gradient from visible-token gradients.
  if (cls_token.requires_grad) {
    cls_token.ensure_grad();
    float* cg = cls_token.grad.data();
    for (i64 bi = 0; bi < b; ++bi) {
      const float* row = dlatent.data() + bi * (keep + 1) * we;
      for (i64 j = 0; j < we; ++j) cg[j] += row[j];
    }
  }
  Tensor dvisible({b, keep, we});
  for (i64 bi = 0; bi < b; ++bi) {
    std::copy_n(dlatent.data() + (bi * (keep + 1) + 1) * we, keep * we,
                dvisible.data() + bi * keep * we);
  }

  // Scatter the visible-token gradients back into the full patch grid.
  Tensor dtokens = Tensor::zeros({b * n, we});
  ops::scatter_rows_add(dvisible.view({b * keep, we}), keep_index_, dtokens);
  return patch_embed.backward(dtokens.view({b, n, we}));
}

Tensor MAE::encode(const Tensor& images) {
  const i64 b = images.dim(0);
  const i64 n = cfg_.encoder.n_patches();
  const i64 we = cfg_.encoder.width;

  Tensor tokens = patch_embed.forward(images);  // [B,N,we]
  add_pos(tokens, enc_pos_, /*first_row=*/1);
  Tensor x = prepend_cls(tokens, cls_token.value);
  for (auto& blk : enc_blocks_) x = blk->forward(x);
  x = enc_norm.forward(x);

  Tensor feat = Tensor::zeros({b, we});
  const float inv = 1.f / static_cast<float>(n);
  for (i64 bi = 0; bi < b; ++bi) {
    float* dst = feat.data() + bi * we;
    for (i64 t = 1; t <= n; ++t) {
      const float* src = x.data() + (bi * (n + 1) + t) * we;
      for (i64 j = 0; j < we; ++j) dst[j] += src[j];
    }
    for (i64 j = 0; j < we; ++j) dst[j] *= inv;
  }
  return feat;
}

std::vector<nn::Parameter*> MAE::parameters() {
  std::vector<nn::Parameter*> out;
  for (nn::Parameter* p : patch_embed.parameters()) out.push_back(p);
  out.push_back(&cls_token);
  for (auto& blk : enc_blocks_) {
    for (nn::Parameter* p : blk->parameters()) out.push_back(p);
  }
  for (nn::Parameter* p : enc_norm.parameters()) out.push_back(p);
  for (nn::Parameter* p : dec_embed.parameters()) out.push_back(p);
  out.push_back(&mask_token);
  for (auto& blk : dec_blocks_) {
    for (nn::Parameter* p : blk->parameters()) out.push_back(p);
  }
  for (nn::Parameter* p : dec_norm.parameters()) out.push_back(p);
  for (nn::Parameter* p : pred.parameters()) out.push_back(p);
  return out;
}

std::vector<nn::Parameter*> MAE::encoder_parameters() {
  std::vector<nn::Parameter*> out;
  for (nn::Parameter* p : patch_embed.parameters()) out.push_back(p);
  out.push_back(&cls_token);
  for (auto& blk : enc_blocks_) {
    for (nn::Parameter* p : blk->parameters()) out.push_back(p);
  }
  for (nn::Parameter* p : enc_norm.parameters()) out.push_back(p);
  return out;
}

std::vector<nn::Module*> MAE::stage_modules() {
  std::vector<nn::Module*> out;
  for (auto& blk : enc_blocks_) out.push_back(blk.get());
  for (auto& blk : dec_blocks_) out.push_back(blk.get());
  return out;
}

std::vector<nn::Parameter*> MAE::root_parameters() {
  std::vector<nn::Parameter*> out;
  for (nn::Parameter* p : patch_embed.parameters()) out.push_back(p);
  out.push_back(&cls_token);
  for (nn::Parameter* p : enc_norm.parameters()) out.push_back(p);
  for (nn::Parameter* p : dec_embed.parameters()) out.push_back(p);
  out.push_back(&mask_token);
  for (nn::Parameter* p : dec_norm.parameters()) out.push_back(p);
  for (nn::Parameter* p : pred.parameters()) out.push_back(p);
  return out;
}

}  // namespace geofm::models

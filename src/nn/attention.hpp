// Multi-head self-attention (the ViT encoder flavour: fused QKV projection,
// scaled dot-product, output projection; no attention dropout — the paper's
// MAE recipe trains without it).
#pragma once

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace geofm::nn {

class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::string name, i64 dim, i64 n_heads, Rng& rng);

  /// x: [B, T, C] -> [B, T, C].
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override;

  i64 dim() const { return dim_; }
  i64 n_heads() const { return heads_; }

  Linear qkv;   // C -> 3C
  Linear proj;  // C -> C

 private:
  i64 dim_;
  i64 heads_;
  i64 head_dim_;
  float scale_;

  // Forward cache (one in-flight activation set).
  Tensor fused_;  // qkv output [B, T, 3C]; Q, K, V are read from it by stride
  Tensor attn_;   // softmax probabilities [B*H, T, T]
};

}  // namespace geofm::nn

// Tests for tensor/ops: GEMM variants (and the batched kernels::gemm_*
// wrappers) against naive references, softmax, GELU, layernorm, losses,
// patchify round trips.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace geofm {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const i64 m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c = Tensor::zeros({m, n});
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      double acc = 0;
      for (i64 p = 0; p < k; ++p) acc += a.at({i, p}) * b.at({p, j});
      c.at({i, j}) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Ops, MatmulMatchesNaive) {
  Rng rng(1);
  Tensor a = Tensor::randn({7, 5}, rng);
  Tensor b = Tensor::randn({5, 9}, rng);
  EXPECT_TRUE(ops::matmul(a, b).allclose(naive_matmul(a, b), 1e-4f, 1e-5f));
}

TEST(Ops, MatmulNtMatchesExplicitTranspose) {
  Rng rng(2);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({3, 6}, rng);
  Tensor expect = naive_matmul(a, ops::transpose2d(b));
  EXPECT_TRUE(ops::matmul_nt(a, b).allclose(expect, 1e-4f, 1e-5f));
}

TEST(Ops, MatmulTnMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::randn({6, 4}, rng);
  Tensor b = Tensor::randn({6, 5}, rng);
  Tensor expect = naive_matmul(ops::transpose2d(a), b);
  EXPECT_TRUE(ops::matmul_tn(a, b).allclose(expect, 1e-4f, 1e-5f));
}

TEST(Ops, MatmulShapeErrors) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4, 5});
  EXPECT_THROW(ops::matmul(a, b), Error);
  EXPECT_THROW(ops::matmul_nt(a, b), Error);
  EXPECT_THROW(ops::matmul_tn(a, b), Error);
}

TEST(Ops, LargeMatmulThreadedConsistent) {
  Rng rng(4);
  Tensor a = Tensor::randn({130, 70}, rng);
  Tensor b = Tensor::randn({70, 90}, rng);
  EXPECT_TRUE(ops::matmul(a, b).allclose(naive_matmul(a, b), 1e-3f, 1e-4f));
}

TEST(Ops, BmmAgainstPerSliceMatmul) {
  Rng rng(5);
  Tensor a = Tensor::randn({3, 4, 5}, rng);
  Tensor b = Tensor::randn({3, 5, 6}, rng);
  Tensor c({3, 4, 6});
  kernels::gemm_nn(3, 4, 5, 6, a.data(), b.data(), c.data());
  for (i64 i = 0; i < 3; ++i) {
    Tensor ai({4, 5}), bi({5, 6});
    ai.copy_(a.flat_view(i * 20, 20));
    bi.copy_(b.flat_view(i * 30, 30));
    Tensor ci = ops::matmul(ai, bi);
    Tensor got({4, 6});
    got.copy_(c.flat_view(i * 24, 24));
    EXPECT_TRUE(got.allclose(ci, 1e-4f, 1e-5f));
  }
}

TEST(Ops, BmmNtAndTnAgainstTransposes) {
  Rng rng(6);
  Tensor a = Tensor::randn({2, 3, 4}, rng);
  Tensor b = Tensor::randn({2, 5, 4}, rng);  // for nt: [batch, n, k]
  Tensor c_nt({2, 3, 5});
  kernels::gemm_nt(2, 3, 4, 5, a.data(), b.data(), c_nt.data());
  for (i64 i = 0; i < 2; ++i) {
    Tensor ai({3, 4}), bi({5, 4});
    ai.copy_(a.flat_view(i * 12, 12));
    bi.copy_(b.flat_view(i * 20, 20));
    Tensor expect = ops::matmul_nt(ai, bi);
    Tensor got({3, 5});
    got.copy_(c_nt.flat_view(i * 15, 15));
    EXPECT_TRUE(got.allclose(expect, 1e-4f, 1e-5f));
  }

  Tensor d = Tensor::randn({2, 3, 6}, rng);  // for tn: [batch, m, n]
  Tensor c_tn({2, 4, 6});                    // A^T D per slice
  kernels::gemm_tn(2, 3, 4, 6, a.data(), d.data(), c_tn.data());
  for (i64 i = 0; i < 2; ++i) {
    Tensor ai({3, 4}), di({3, 6});
    ai.copy_(a.flat_view(i * 12, 12));
    di.copy_(d.flat_view(i * 18, 18));
    Tensor expect = ops::matmul_tn(ai, di);
    Tensor got({4, 6});
    got.copy_(c_tn.flat_view(i * 24, 24));
    EXPECT_TRUE(got.allclose(expect, 1e-4f, 1e-5f));
  }
}

TEST(Ops, SoftmaxRowsSumToOneAndOrderPreserved) {
  Rng rng(7);
  Tensor x = Tensor::randn({10, 17}, rng, 3.f);
  Tensor y = ops::softmax_lastdim(x);
  for (i64 r = 0; r < 10; ++r) {
    double sum = 0;
    for (i64 c = 0; c < 17; ++c) {
      const float v = y.at({r, c});
      EXPECT_GT(v, 0.f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  // Monotonicity: larger logit => larger probability within a row.
  EXPECT_GT(y.at({0, 0}), 0.f);
}

TEST(Ops, SoftmaxStableUnderLargeLogits) {
  Tensor x = Tensor::from({1000.f, 1001.f, 999.f}).view({1, 3});
  Tensor y = ops::softmax_lastdim(x);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_GT(y.at({0, 1}), y.at({0, 0}));
  EXPECT_GT(y.at({0, 0}), y.at({0, 2}));
}

TEST(Ops, GeluKnownValues) {
  Tensor x = Tensor::from({0.f, 100.f, -100.f});
  Tensor y(x.shape());
  kernels::gelu_fwd(3, x.data(), y.data());
  EXPECT_NEAR(y[0], 0.f, 1e-6);
  EXPECT_NEAR(y[1], 100.f, 1e-3);
  EXPECT_NEAR(y[2], 0.f, 1e-3);
  // x now holds dgelu/dx: 1/2 at 0, ~1 and ~0 far out.
  EXPECT_NEAR(x[0], 0.5f, 1e-6);
  EXPECT_NEAR(x[1], 1.f, 1e-3);
  EXPECT_NEAR(x[2], 0.f, 1e-3);
}

TEST(Ops, LayerNormRowsNormalized) {
  Rng rng(8);
  Tensor x = Tensor::randn({6, 32}, rng, 5.f, 3.f);
  Tensor gamma = Tensor::ones({32});
  Tensor beta = Tensor::zeros({32});
  ops::LayerNormCache cache;
  Tensor y = ops::layernorm(x, gamma, beta, 1e-6f, cache);
  for (i64 r = 0; r < 6; ++r) {
    double mean = 0, var = 0;
    for (i64 c = 0; c < 32; ++c) mean += y.at({r, c});
    mean /= 32;
    for (i64 c = 0; c < 32; ++c) {
      var += (y.at({r, c}) - mean) * (y.at({r, c}) - mean);
    }
    var /= 32;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Ops, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros({4, 10});
  std::vector<i64> labels{0, 3, 5, 9};
  auto ce = ops::softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(ce.loss, std::log(10.f), 1e-5);
  Tensor d = ops::softmax_cross_entropy_backward(ce, labels);
  // Gradient sums to zero per row.
  for (i64 r = 0; r < 4; ++r) {
    double sum = 0;
    for (i64 c = 0; c < 10; ++c) sum += d.at({r, c});
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(Ops, CrossEntropyPerfectPrediction) {
  Tensor logits = Tensor::zeros({2, 3});
  logits.at({0, 1}) = 50.f;
  logits.at({1, 2}) = 50.f;
  auto ce = ops::softmax_cross_entropy(logits, {1, 2});
  EXPECT_NEAR(ce.loss, 0.f, 1e-4);
}

TEST(Ops, TopkAccuracy) {
  Tensor logits = Tensor::from({
      3.f, 2.f, 1.f, 0.f,   // label 0: top1 hit
      0.f, 1.f, 2.f, 3.f,   // label 0: top1 miss, top4 hit
  }).view({2, 4});
  std::vector<i64> labels{0, 0};
  EXPECT_DOUBLE_EQ(ops::topk_accuracy(logits, labels, 1), 0.5);
  EXPECT_DOUBLE_EQ(ops::topk_accuracy(logits, labels, 3), 0.5);
  EXPECT_DOUBLE_EQ(ops::topk_accuracy(logits, labels, 4), 1.0);
}

TEST(Ops, MaskedMseOnlyCountsMaskedRows) {
  Tensor pred = Tensor::from({1.f, 1.f, 5.f, 5.f}).view({2, 2});
  Tensor target = Tensor::zeros({2, 2});
  std::vector<u32> mask{0, 1};  // only the second row counts
  Tensor dpred;
  const float loss = ops::masked_mse(pred, target, mask, &dpred);
  EXPECT_FLOAT_EQ(loss, 25.f);
  EXPECT_FLOAT_EQ(dpred.at({0, 0}), 0.f);  // unmasked row: no gradient
  EXPECT_FLOAT_EQ(dpred.at({1, 0}), 2.f * 5.f / 2.f);
}

TEST(Ops, MaskedMseEmptyMaskRejected) {
  Tensor pred = Tensor::zeros({2, 2});
  Tensor target = Tensor::zeros({2, 2});
  std::vector<u32> mask{0, 0};
  EXPECT_THROW(ops::masked_mse(pred, target, mask, nullptr), Error);
}

TEST(Ops, PatchifyRoundTrip) {
  Rng rng(9);
  Tensor img = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor patches = ops::patchify(img, 4);
  EXPECT_EQ(patches.dim(0), 2);
  EXPECT_EQ(patches.dim(1), 4);
  EXPECT_EQ(patches.dim(2), 48);
  Tensor back = ops::unpatchify(patches, 4, 3);
  EXPECT_TRUE(back.allclose(img, 0.f, 0.f));
}

TEST(Ops, PatchifyLayoutChannelMajorWithinPatch) {
  // 1x1 patches: patch vector = per-channel pixel values.
  Tensor img = Tensor::arange(2 * 2 * 2).view({1, 2, 2, 2});
  Tensor p = ops::patchify(img, 1);
  // Patch (0,0): channel 0 pixel (0,0)=0, channel 1 pixel (0,0)=4.
  EXPECT_FLOAT_EQ(p.at({0, 0, 0}), 0.f);
  EXPECT_FLOAT_EQ(p.at({0, 0, 1}), 4.f);
}

TEST(Ops, GatherScatterRows) {
  Tensor x = Tensor::arange(12).view({4, 3});
  Tensor g = ops::gather_rows(x, {2, 0});
  EXPECT_FLOAT_EQ(g.at({0, 0}), 6.f);
  EXPECT_FLOAT_EQ(g.at({1, 2}), 2.f);

  Tensor out = Tensor::zeros({4, 3});
  ops::scatter_rows_add(g, {2, 0}, out);
  EXPECT_FLOAT_EQ(out.at({2, 0}), 6.f);
  EXPECT_FLOAT_EQ(out.at({0, 2}), 2.f);
  EXPECT_FLOAT_EQ(out.at({1, 0}), 0.f);
}

TEST(Ops, AddBiasRows) {
  Tensor x = Tensor::zeros({3, 2});
  Tensor b = Tensor::from({1.f, -1.f});
  ops::add_bias_rows(x, b);
  for (i64 r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(x.at({r, 0}), 1.f);
    EXPECT_FLOAT_EQ(x.at({r, 1}), -1.f);
  }
  Tensor gb = Tensor::zeros({2});
  ops::accumulate_bias_grad(x, gb);
  EXPECT_FLOAT_EQ(gb[0], 3.f);
  EXPECT_FLOAT_EQ(gb[1], -3.f);
}

}  // namespace
}  // namespace geofm

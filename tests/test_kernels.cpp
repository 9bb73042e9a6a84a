// Parity suite for the kernel engine (tensor/kernels/): the SIMD
// implementations must agree with the scalar oracle across shapes that
// straddle the vector width — odd/tail rows and columns, empty and size-1
// edges, strided sub-views, batched calls — and the dispatch seam must
// honor GEOFM_KERNELS / set_mode().
//
// GEMM cases call the detail:: implementations directly where noted, so
// shapes small enough for the dispatcher's scalar routing still exercise
// the packed SIMD path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels {
namespace {

std::vector<float> randv(i64 n, Rng& rng, float stddev = 1.f) {
  std::vector<float> out(static_cast<size_t>(n));
  for (float& v : out) v = static_cast<float>(rng.normal(0.0, stddev));
  return out;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float rtol, float atol, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol = atol + rtol * std::abs(b[i]);
    ASSERT_NEAR(a[i], b[i], tol) << what << " at index " << i;
  }
}

// Shape sweep that straddles the compiled lane count (and both common lane
// counts, so the sweep is meaningful regardless of the build machine).
std::vector<i64> tail_sizes() {
  const i64 lanes = simd_lanes();
  std::vector<i64> s = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100};
  for (i64 v : {lanes - 1, lanes, lanes + 1, 2 * lanes + 1}) {
    if (v >= 1) s.push_back(v);
  }
  return s;
}

// ----- GEMM ------------------------------------------------------------------

// Runs both implementations on identical inputs, contiguous NN layout.
void check_gemm_nn(i64 m, i64 k, i64 n) {
  Rng rng(static_cast<u64>(m * 1000003 + k * 1009 + n));
  const auto a = randv(m * k, rng);
  const auto b = randv(k * n, rng);
  std::vector<float> cs(static_cast<size_t>(m * n), -42.f);
  std::vector<float> cv(static_cast<size_t>(m * n), 42.f);
  detail::scalar_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                      cs.data(), 0, n);
  detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                    cv.data(), 0, n);
  expect_close(cv, cs, 1e-4f, 1e-5f, "gemm_nn");
}

TEST(KernelParity, GemmNNTailShapes) {
  for (i64 m : {i64{1}, i64{2}, i64{7}, i64{13}}) {
    for (i64 k : tail_sizes()) {
      for (i64 n : tail_sizes()) check_gemm_nn(m, k, n);
    }
  }
}

TEST(KernelParity, GemmNNMicrokernelEdges) {
  // Shapes around the MR=6 / NR=2*lanes / KC/MC blocking edges.
  const i64 nr = 2 * simd_lanes();
  for (i64 m : {i64{5}, i64{6}, i64{7}, i64{95}, i64{96}, i64{97}}) {
    for (i64 n : {nr - 1, nr, nr + 1}) {
      check_gemm_nn(m, 64, n);
    }
  }
  check_gemm_nn(13, 191, 40);  // k just under KC
  check_gemm_nn(13, 192, 40);  // k == KC
  check_gemm_nn(13, 193, 40);  // k panel + tail of 1
}

TEST(KernelParity, GemmNTAndTNTailShapes) {
  const i64 lanes = simd_lanes();
  for (i64 m : {i64{3}, i64{9}}) {
    for (i64 k : {i64{1}, lanes - 1, lanes + 1, i64{33}}) {
      for (i64 n : {i64{1}, lanes, 2 * lanes + 1, i64{29}}) {
        Rng rng(static_cast<u64>(m + 31 * k + 977 * n));
        // NT: B stored [n, k]; b(p, j) = B[j*k + p].
        const auto a = randv(m * k, rng);
        const auto bt = randv(n * k, rng);
        std::vector<float> cs(static_cast<size_t>(m * n));
        std::vector<float> cv(static_cast<size_t>(m * n));
        detail::scalar_gemm(1, m, k, n, a.data(), 0, k, 1, bt.data(), 0, 1, k,
                            cs.data(), 0, n);
        detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, bt.data(), 0, 1, k,
                          cv.data(), 0, n);
        expect_close(cv, cs, 1e-4f, 1e-5f, "gemm_nt");
        // TN: logical A^T with A stored [k, m]; a(i, p) = A[p*m + i].
        const auto at = randv(k * m, rng);
        const auto b = randv(k * n, rng);
        detail::scalar_gemm(1, m, k, n, at.data(), 0, 1, m, b.data(), 0, n, 1,
                            cs.data(), 0, n);
        detail::simd_gemm(1, m, k, n, at.data(), 0, 1, m, b.data(), 0, n, 1,
                          cv.data(), 0, n);
        expect_close(cv, cs, 1e-4f, 1e-5f, "gemm_tn");
      }
    }
  }
}

TEST(KernelParity, GemmStridedSubviewsLeavePaddingUntouched) {
  // A, B, C live inside larger padded matrices (lda/ldb/ldc > logical
  // cols): strides select the sub-view, and C's padding must survive.
  const i64 m = 11, k = 23, n = 19;
  const i64 lda = k + 5, ldb = n + 3, ldc = n + 7;
  Rng rng(99);
  const auto a = randv(m * lda, rng);
  const auto b = randv(k * ldb, rng);
  std::vector<float> cs(static_cast<size_t>(m * ldc), 7.5f);
  std::vector<float> cv(static_cast<size_t>(m * ldc), 7.5f);
  detail::scalar_gemm(1, m, k, n, a.data(), 0, lda, 1, b.data(), 0, ldb, 1,
                      cs.data(), 0, ldc);
  detail::simd_gemm(1, m, k, n, a.data(), 0, lda, 1, b.data(), 0, ldb, 1,
                    cv.data(), 0, ldc);
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < ldc; ++j) {
      const size_t idx = static_cast<size_t>(i * ldc + j);
      if (j >= n) {
        ASSERT_EQ(cs[idx], 7.5f) << "scalar wrote padding";
        ASSERT_EQ(cv[idx], 7.5f) << "simd wrote padding";
      } else {
        ASSERT_NEAR(cv[idx], cs[idx], 1e-5f + 1e-4f * std::abs(cs[idx]));
      }
    }
  }
}

TEST(KernelParity, GemmBatchedMatchesPerSlice) {
  const i64 batch = 3, m = 9, k = 33, n = 21;
  Rng rng(7);
  const auto a = randv(batch * m * k, rng);
  const auto b = randv(batch * k * n, rng);
  std::vector<float> cb(static_cast<size_t>(batch * m * n));
  std::vector<float> c1(static_cast<size_t>(batch * m * n));
  detail::simd_gemm(batch, m, k, n, a.data(), m * k, k, 1, b.data(), k * n, n,
                    1, cb.data(), m * n, n);
  for (i64 i = 0; i < batch; ++i) {
    detail::simd_gemm(1, m, k, n, a.data() + i * m * k, 0, k, 1,
                      b.data() + i * k * n, 0, n, 1, c1.data() + i * m * n, 0,
                      n);
  }
  // Identical blocking order per slice: bitwise equal.
  EXPECT_EQ(0, std::memcmp(cb.data(), c1.data(),
                           cb.size() * sizeof(float)));
  std::vector<float> cs(static_cast<size_t>(batch * m * n));
  detail::scalar_gemm(batch, m, k, n, a.data(), m * k, k, 1, b.data(), k * n,
                      n, 1, cs.data(), m * n, n);
  expect_close(cb, cs, 1e-4f, 1e-5f, "batched gemm");
}

TEST(KernelParity, GemmEmptyContractionZeroesC) {
  const i64 m = 5, n = 9;
  std::vector<float> cs(static_cast<size_t>(m * n), 3.f);
  std::vector<float> cv(static_cast<size_t>(m * n), 3.f);
  const float dummy = 0.f;
  detail::scalar_gemm(1, m, 0, n, &dummy, 0, 0, 1, &dummy, 0, n, 1, cs.data(),
                      0, n);
  detail::simd_gemm(1, m, 0, n, &dummy, 0, 0, 1, &dummy, 0, n, 1, cv.data(),
                    0, n);
  for (float v : cs) EXPECT_EQ(v, 0.f);
  for (float v : cv) EXPECT_EQ(v, 0.f);
}

TEST(KernelParity, GemmDeterministicAcrossRepeats) {
  const i64 m = 64, k = 96, n = 80;
  Rng rng(3);
  const auto a = randv(m * k, rng);
  const auto b = randv(k * n, rng);
  std::vector<float> c1(static_cast<size_t>(m * n));
  std::vector<float> c2(static_cast<size_t>(m * n));
  detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                    c1.data(), 0, n);
  detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                    c2.data(), 0, n);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ----- layernorm -------------------------------------------------------------

TEST(KernelParity, LayernormForwardTailShapes) {
  for (i64 rows : {i64{1}, i64{4}}) {
    for (i64 cols : tail_sizes()) {
      Rng rng(static_cast<u64>(rows * 131 + cols));
      const auto x = randv(rows * cols, rng, 2.f);
      const auto gamma = randv(cols, rng);
      const auto beta = randv(cols, rng);
      std::vector<float> ys(x.size()), yv(x.size());
      std::vector<float> ms(static_cast<size_t>(rows)), rs(ms), mv(ms),
          rv(ms);
      detail::scalar_layernorm_fwd(rows, cols, x.data(), gamma.data(),
                                   beta.data(), 1e-5f, ys.data(), ms.data(),
                                   rs.data());
      detail::simd_layernorm_fwd(rows, cols, x.data(), gamma.data(),
                                 beta.data(), 1e-5f, yv.data(), mv.data(),
                                 rv.data());
      expect_close(mv, ms, 1e-6f, 1e-7f, "ln mean");
      expect_close(rv, rs, 1e-6f, 1e-7f, "ln rstd");
      expect_close(yv, ys, 1e-5f, 1e-6f, "ln y");
    }
  }
}

TEST(KernelParity, LayernormBackwardAccumulatesIntoSeededGrads) {
  const std::vector<i64> col_sweep = {1, 5, simd_lanes(), 67, 256};
  for (i64 cols : col_sweep) {
    const i64 rows = 6;
    Rng rng(static_cast<u64>(cols) + 17);
    const auto x = randv(rows * cols, rng);
    const auto dy = randv(rows * cols, rng);
    const auto gamma = randv(cols, rng);
    const auto beta = randv(cols, rng);
    std::vector<float> y(x.size());
    std::vector<float> mean(static_cast<size_t>(rows)), rstd(mean);
    detail::scalar_layernorm_fwd(rows, cols, x.data(), gamma.data(),
                                 beta.data(), 1e-5f, y.data(), mean.data(),
                                 rstd.data());
    // Both modes start from the same nonzero dgamma/dbeta: the kernel
    // contract is accumulation, not overwrite.
    const auto seed_g = randv(cols, rng);
    const auto seed_b = randv(cols, rng);
    std::vector<float> dxs(x.size()), dxv(x.size());
    std::vector<float> dgs = seed_g, dgv = seed_g;
    std::vector<float> dbs = seed_b, dbv = seed_b;
    detail::scalar_layernorm_bwd(rows, cols, dy.data(), x.data(),
                                 gamma.data(), mean.data(), rstd.data(),
                                 dxs.data(), dgs.data(), dbs.data());
    detail::simd_layernorm_bwd(rows, cols, dy.data(), x.data(), gamma.data(),
                               mean.data(), rstd.data(), dxv.data(),
                               dgv.data(), dbv.data());
    // The SIMD TU compiles with FMA contraction, so dx deviates from the
    // oracle by ~rstd * ulp(dy*gamma); rstd is 1/sqrt(eps) ~ 316 for the
    // zero-variance cols=1 row, hence the wider absolute tolerance.
    expect_close(dxv, dxs, 1e-4f, 1e-4f, "ln dx");
    expect_close(dgv, dgs, 1e-4f, 1e-5f, "ln dgamma");
    expect_close(dbv, dbs, 1e-4f, 1e-5f, "ln dbeta");
  }
}

// ----- softmax ---------------------------------------------------------------

TEST(KernelParity, SoftmaxForwardTailShapesAndRowSums) {
  for (i64 rows : {i64{1}, i64{5}}) {
    for (i64 cols : tail_sizes()) {
      Rng rng(static_cast<u64>(rows * 37 + cols));
      const auto x = randv(rows * cols, rng, 3.f);
      std::vector<float> ys(x.size()), yv(x.size());
      detail::scalar_softmax_fwd(rows, cols, x.data(), ys.data());
      detail::simd_softmax_fwd(rows, cols, x.data(), yv.data());
      expect_close(yv, ys, 1e-5f, 1e-7f, "softmax y");
      for (i64 r = 0; r < rows; ++r) {
        float sum = 0.f;
        for (i64 c = 0; c < cols; ++c) {
          sum += yv[static_cast<size_t>(r * cols + c)];
        }
        EXPECT_NEAR(sum, 1.f, 1e-5f);
      }
    }
  }
}

TEST(KernelParity, SoftmaxForwardExtremeLogitsStayFinite) {
  // Exercises the vectorized exp over its clamp range: one dominant
  // logit, the rest far below (underflow to 0, never NaN/Inf).
  const i64 cols = 2 * simd_lanes() + 3;
  std::vector<float> x(static_cast<size_t>(cols), -120.f);
  x[3] = 95.f;
  std::vector<float> ys(x.size()), yv(x.size());
  detail::scalar_softmax_fwd(1, cols, x.data(), ys.data());
  detail::simd_softmax_fwd(1, cols, x.data(), yv.data());
  for (i64 c = 0; c < cols; ++c) {
    ASSERT_TRUE(std::isfinite(yv[static_cast<size_t>(c)]));
    ASSERT_NEAR(yv[static_cast<size_t>(c)], ys[static_cast<size_t>(c)],
                1e-6f);
  }
  EXPECT_NEAR(yv[3], 1.f, 1e-6f);
}

TEST(KernelParity, SoftmaxBackwardTailShapes) {
  for (i64 cols : tail_sizes()) {
    const i64 rows = 4;
    Rng rng(static_cast<u64>(cols) * 3 + 1);
    const auto x = randv(rows * cols, rng);
    const auto dy = randv(rows * cols, rng);
    std::vector<float> y(x.size());
    detail::scalar_softmax_fwd(rows, cols, x.data(), y.data());
    std::vector<float> dxs(x.size()), dxv(x.size());
    detail::scalar_softmax_bwd(rows, cols, dy.data(), y.data(), dxs.data());
    detail::simd_softmax_bwd(rows, cols, dy.data(), y.data(), dxv.data());
    expect_close(dxv, dxs, 1e-5f, 1e-6f, "softmax dx");
  }
}

// ----- fused attention and GELU ----------------------------------------------
// The fused kernels must be bitwise equal (memcmp) to the composition the
// nn layers ran before them, in both dispatch modes. The oracle below is
// that composition written out: head split/merge copies around batched
// kernels::gemm_nn/nt/tn, softmax rows and the scale step.

struct AttnShape {
  i64 batch, t, heads, hd;
};

// T straddles the lane count and the tiny-GEMM rule; head_dim 8 is the
// proxy models', 24 a non-power-of-two.
std::vector<AttnShape> attention_shapes() {
  std::vector<AttnShape> out;
  for (i64 batch : {i64{1}, i64{3}, i64{16}}) {
    for (i64 heads : {i64{1}, i64{4}}) {
      for (i64 t : {i64{1}, i64{5}, i64{16}, i64{17}, i64{33}}) {
        for (i64 hd : {i64{8}, i64{16}, i64{24}}) {
          out.push_back({batch, t, heads, hd});
        }
      }
    }
  }
  return out;
}

// [B, T, 3C] (which-major) -> [B*H, T, Dh] for which in {0,1,2}.
std::vector<float> split_qkv(const std::vector<float>& qkv,
                             const AttnShape& s, int which) {
  const i64 c = s.heads * s.hd;
  std::vector<float> out(static_cast<size_t>(s.batch * s.t * c));
  for (i64 b = 0; b < s.batch; ++b) {
    for (i64 t = 0; t < s.t; ++t) {
      for (i64 h = 0; h < s.heads; ++h) {
        for (i64 e = 0; e < s.hd; ++e) {
          out[static_cast<size_t>(((b * s.heads + h) * s.t + t) * s.hd + e)] =
              qkv[static_cast<size_t>((b * s.t + t) * 3 * c + which * c +
                                      h * s.hd + e)];
        }
      }
    }
  }
  return out;
}

// [B*H, T, Dh] <-> [B, T, C] at column offset `col` of rows `width` wide.
void heads_to_rows(const std::vector<float>& heads, const AttnShape& s,
                   i64 width, i64 col, std::vector<float>& rows) {
  for (i64 b = 0; b < s.batch; ++b) {
    for (i64 t = 0; t < s.t; ++t) {
      for (i64 h = 0; h < s.heads; ++h) {
        for (i64 e = 0; e < s.hd; ++e) {
          rows[static_cast<size_t>((b * s.t + t) * width + col + h * s.hd +
                                   e)] =
              heads[static_cast<size_t>(((b * s.heads + h) * s.t + t) * s.hd +
                                        e)];
        }
      }
    }
  }
}

std::vector<float> rows_to_heads(const std::vector<float>& rows,
                                 const AttnShape& s) {
  const i64 c = s.heads * s.hd;
  std::vector<float> out(rows.size());
  for (i64 b = 0; b < s.batch; ++b) {
    for (i64 t = 0; t < s.t; ++t) {
      for (i64 h = 0; h < s.heads; ++h) {
        for (i64 e = 0; e < s.hd; ++e) {
          out[static_cast<size_t>(((b * s.heads + h) * s.t + t) * s.hd + e)] =
              rows[static_cast<size_t>((b * s.t + t) * c + h * s.hd + e)];
        }
      }
    }
  }
  return out;
}

void scale_all(std::vector<float>& x, float scale) {
  for (float& v : x) v *= scale;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

float attention_scale(const AttnShape& s) {
  return 1.f / std::sqrt(static_cast<float>(s.hd));
}

TEST(KernelParity, AttentionForwardMatchesComposition) {
  for (Mode mode : {Mode::kScalar, Mode::kSimd}) {
    ModeGuard guard(mode);
    for (const AttnShape& s : attention_shapes()) {
      SCOPED_TRACE(::testing::Message()
                   << mode_name(mode) << " B=" << s.batch << " T=" << s.t
                   << " H=" << s.heads << " Dh=" << s.hd);
      const i64 bh = s.batch * s.heads, c = s.heads * s.hd;
      const float scale = attention_scale(s);
      Rng rng(static_cast<u64>(bh * 7919 + s.t * 131 + s.hd));
      const auto qkv = randv(s.batch * s.t * 3 * c, rng);

      const auto q = split_qkv(qkv, s, 0);
      const auto k = split_qkv(qkv, s, 1);
      const auto v = split_qkv(qkv, s, 2);
      std::vector<float> scores(static_cast<size_t>(bh * s.t * s.t));
      std::vector<float> want_attn(scores.size());
      gemm_nt(bh, s.t, s.hd, s.t, q.data(), k.data(), scores.data());
      scale_all(scores, scale);
      softmax_fwd(bh * s.t, s.t, scores.data(), want_attn.data());
      std::vector<float> ctx_heads(q.size());
      gemm_nn(bh, s.t, s.t, s.hd, want_attn.data(), v.data(),
              ctx_heads.data());
      std::vector<float> want_ctx(q.size());
      heads_to_rows(ctx_heads, s, c, 0, want_ctx);

      std::vector<float> attn(want_attn.size(), -1.f);
      std::vector<float> ctx(want_ctx.size(), -1.f);
      attention_fwd(s.batch, s.t, s.heads, s.hd, scale, qkv.data(),
                    attn.data(), ctx.data());
      EXPECT_TRUE(bitwise_equal(attn, want_attn)) << "attn";
      EXPECT_TRUE(bitwise_equal(ctx, want_ctx)) << "ctx";
    }
  }
}

TEST(KernelParity, AttentionBackwardMatchesComposition) {
  for (Mode mode : {Mode::kScalar, Mode::kSimd}) {
    ModeGuard guard(mode);
    for (const AttnShape& s : attention_shapes()) {
      SCOPED_TRACE(::testing::Message()
                   << mode_name(mode) << " B=" << s.batch << " T=" << s.t
                   << " H=" << s.heads << " Dh=" << s.hd);
      const i64 bh = s.batch * s.heads, c = s.heads * s.hd;
      const float scale = attention_scale(s);
      Rng rng(static_cast<u64>(bh * 104729 + s.t * 17 + s.hd));
      const auto qkv = randv(s.batch * s.t * 3 * c, rng);
      const auto dctx = randv(s.batch * s.t * c, rng);
      std::vector<float> attn(static_cast<size_t>(bh * s.t * s.t));
      std::vector<float> ctx(dctx.size());
      attention_fwd(s.batch, s.t, s.heads, s.hd, scale, qkv.data(),
                    attn.data(), ctx.data());

      const auto q = split_qkv(qkv, s, 0);
      const auto k = split_qkv(qkv, s, 1);
      const auto v = split_qkv(qkv, s, 2);
      const auto dctx_heads = rows_to_heads(dctx, s);
      std::vector<float> dattn(attn.size()), dscores(attn.size());
      std::vector<float> dq(q.size()), dk(q.size()), dv(q.size());
      gemm_nt(bh, s.t, s.hd, s.t, dctx_heads.data(), v.data(), dattn.data());
      gemm_tn(bh, s.t, s.t, s.hd, attn.data(), dctx_heads.data(), dv.data());
      softmax_bwd(bh * s.t, s.t, dattn.data(), attn.data(), dscores.data());
      scale_all(dscores, scale);
      gemm_nn(bh, s.t, s.t, s.hd, dscores.data(), k.data(), dq.data());
      gemm_tn(bh, s.t, s.t, s.hd, dscores.data(), q.data(), dk.data());
      std::vector<float> want(qkv.size());
      heads_to_rows(dq, s, 3 * c, 0, want);
      heads_to_rows(dk, s, 3 * c, c, want);
      heads_to_rows(dv, s, 3 * c, 2 * c, want);

      std::vector<float> dqkv(qkv.size(), -1.f);
      attention_bwd(s.batch, s.t, s.heads, s.hd, scale, qkv.data(),
                    attn.data(), dctx.data(), dqkv.data());
      EXPECT_TRUE(bitwise_equal(dqkv, want)) << "dqkv";
    }
  }
}

TEST(KernelParity, GeluSinglePassMatchesTwoPass) {
  // The two-pass GELU the MLP ran before the fused kernel: forward from
  // x, backward recomputing tanh from x.
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  for (Mode mode : {Mode::kScalar, Mode::kSimd}) {
    ModeGuard guard(mode);
    for (i64 n : {i64{1}, i64{17}, i64{1000}, i64{40000}}) {
      SCOPED_TRACE(::testing::Message() << mode_name(mode) << " n=" << n);
      Rng rng(static_cast<u64>(n));
      auto x = randv(n, rng, 3.f);
      x[0] = 0.f;
      const auto dy = randv(n, rng);
      std::vector<float> want_y(x.size()), want_dx(x.size());
      for (size_t i = 0; i < x.size(); ++i) {
        const float v = x[i];
        const float t = std::tanh(kC * (v + kA * v * v * v));
        want_y[i] = 0.5f * v * (1.f + t);
      }
      for (size_t i = 0; i < x.size(); ++i) {
        const float v = x[i];
        const float u = kC * (v + kA * v * v * v);
        const float t = std::tanh(u);
        const float dudv = kC * (1.f + 3.f * kA * v * v);
        const float dgelu = 0.5f * (1.f + t) + 0.5f * v * (1.f - t * t) * dudv;
        want_dx[i] = dy[i] * dgelu;
      }

      std::vector<float> d = x, y(x.size()), dx(x.size());
      gelu_fwd(n, d.data(), y.data());
      gelu_bwd(n, dy.data(), d.data(), dx.data());
      EXPECT_TRUE(bitwise_equal(y, want_y)) << "y";
      EXPECT_TRUE(bitwise_equal(dx, want_dx)) << "dx";
    }
  }
}

float float_from_bits(u32 b) {
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

u32 float_bits(float f) {
  u32 b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

// Where glibc's tanhf and its expm1f switch cases, as a tanh argument |u|:
// tiny (2^-55), expm1's pass-through (2^-26), its reduction cases (0.5 and
// 1.5 ln2/2), the k = -2/-3 edge (2.5 ln2/2), the 2|u| vs -2|u| split (1),
// the k = 23 and k = 57 reconstruction edges, and saturation (22).
std::vector<double> tanh_case_edges() {
  const double ln2 = std::log(2.0);
  return {std::ldexp(1.0, -55), std::ldexp(1.0, -26), 0.5 * ln2 / 2,
          1.5 * ln2 / 2,        2.5 * ln2 / 2,        1.0,
          22.5 * ln2 / 2,       56.5 * ln2 / 2,       22.0};
}

// +-256 ulps around +-center.
void append_ulp_window(float center, std::vector<float>& out) {
  const u32 mid = float_bits(std::abs(center));
  for (u32 b = mid - 256; b <= mid + 256; ++b) {
    out.push_back(float_from_bits(b));
    out.push_back(-float_from_bits(b));
  }
}

// GELU inputs that reach every tanh case edge, NaN, +-inf, +-0 and
// subnormals, then a prime-stride sweep over all 2^32 bit patterns.
std::vector<float> gelu_parity_inputs() {
  constexpr double kC = 0.7978845608028654;  // sqrt(2/pi)
  constexpr double kA = 0.044715;
  std::vector<float> in;
  for (double u : tanh_case_edges()) {
    // Invert u = c*(v + a*v^3), which is increasing, by Newton's method.
    double v = u / kC;
    for (int i = 0; i < 100; ++i) {
      v -= (kC * (v + kA * v * v * v) - u) / (kC * (1 + 3 * kA * v * v));
    }
    append_ulp_window(static_cast<float>(v), in);
  }
  for (u32 b : {0x00000000u, 0x00000001u, 0x00000002u, 0x00400000u,
                0x007fffffu, 0x00800000u, 0x7f7fffffu, 0x7f800000u,
                0x7fc00000u, 0x7fc12345u, 0x7f800001u, 0x7fa00000u}) {
    in.push_back(float_from_bits(b));
    in.push_back(float_from_bits(b | 0x80000000u));
  }
  for (u64 b = 0; b <= 0xffffffffull; b += 30011) {
    in.push_back(float_from_bits(static_cast<u32>(b)));
  }
  return in;
}

TEST(KernelParity, GeluSimdMatchesScalarBitwise) {
  std::vector<float> edges;
  for (double u : tanh_case_edges()) {
    append_ulp_window(static_cast<float>(u), edges);
  }
  std::vector<float> want(edges.size()), got(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) want[i] = std::tanh(edges[i]);
  detail::simd_tanh(static_cast<i64>(edges.size()), edges.data(), got.data());
  EXPECT_TRUE(bitwise_equal(got, want)) << "simd_tanh at the case edges";

  const std::vector<float> in = gelu_parity_inputs();
  const i64 total = static_cast<i64>(in.size());
  for (i64 n : {i64{1}, i64{15}, i64{16}, i64{17}, i64{1000}, i64{139264}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> d[2], y[2];
    for (int side = 0; side < 2; ++side) {
      ModeGuard guard(side == 0 ? Mode::kScalar : Mode::kSimd);
      d[side] = in;
      y[side].assign(in.size(), -1.f);
      // Windows of n, so every input lands in bodies, tails and chunk
      // edges of some call.
      for (i64 i0 = 0; i0 < total; i0 += n) {
        const i64 len = std::min(n, total - i0);
        gelu_fwd(len, d[side].data() + i0, y[side].data() + i0);
      }
    }
    EXPECT_TRUE(bitwise_equal(y[1], y[0])) << "y";
    EXPECT_TRUE(bitwise_equal(d[1], d[0])) << "d";
  }
}

// All 2^32 inputs (~30 s on 4 cores). A failure here means the libm the
// build links no longer computes tanhf the way gelu_simd.cpp does.
TEST(KernelParity, DISABLED_SimdTanhExhaustive) {
  constexpr i64 kBlock = i64{1} << 16;
  std::atomic<u64> mismatches{0};
  std::atomic<u64> first_bad{~u64{0}};
  parallel_for(i64{1} << 16, [&](i64 b0, i64 b1) {
    std::vector<float> x(kBlock), y(kBlock);
    for (i64 b = b0; b < b1; ++b) {
      for (i64 i = 0; i < kBlock; ++i) {
        x[i] = float_from_bits(static_cast<u32>(b * kBlock + i));
      }
      detail::simd_tanh(kBlock, x.data(), y.data());
      for (i64 i = 0; i < kBlock; ++i) {
        if (float_bits(y[i]) != float_bits(std::tanh(x[i]))) {
          mismatches.fetch_add(1);
          u64 seen = first_bad.load();
          const u64 mine = float_bits(x[i]);
          while (mine < seen && !first_bad.compare_exchange_weak(seen, mine)) {
          }
        }
      }
    }
  }, 16);
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatching input bits 0x" << std::hex << first_bad.load();
}

// ----- AdamW -----------------------------------------------------------------

TEST(KernelParity, AdamWMultiStepTrajectoriesAgree) {
  const std::vector<i64> n_sweep = {1, simd_lanes() - 1, simd_lanes(),
                                    3 * simd_lanes() + 5};
  for (i64 n : n_sweep) {
    Rng rng(static_cast<u64>(n) + 5);
    const auto w0 = randv(n, rng);
    std::vector<float> ws = w0, wv = w0;
    std::vector<float> ms(static_cast<size_t>(n), 0.f), mv = ms;
    std::vector<float> vs = ms, vv = ms;
    for (int t = 1; t <= 5; ++t) {
      const auto g = randv(n, rng);
      AdamWConfig cfg;
      cfg.lr = 1e-3;
      cfg.weight_decay = 0.05;
      cfg.bias_c1 = 1.0 - std::pow(cfg.beta1, t);
      cfg.bias_c2 = 1.0 - std::pow(cfg.beta2, t);
      detail::scalar_adamw(n, ws.data(), g.data(), ms.data(), vs.data(), cfg);
      detail::simd_adamw(n, wv.data(), g.data(), mv.data(), vv.data(), cfg);
    }
    expect_close(wv, ws, 1e-5f, 1e-6f, "adamw w");
    expect_close(mv, ms, 1e-5f, 1e-6f, "adamw m");
    expect_close(vv, vs, 1e-5f, 1e-6f, "adamw v");
  }
}

// ----- patchify --------------------------------------------------------------

// Index-formula oracle for the MAE patch layout: pixel (ci, yy, xx) of
// image bi lands in patch row bi*N + (yy/P)*gw + xx/P, at column
// (ci*P + yy%P)*P + xx%P (channel-major within the patch).
std::vector<float> patchify_oracle(i64 b, i64 c, i64 h, i64 w, i64 patch,
                                   const std::vector<float>& images) {
  const i64 gw = w / patch;
  const i64 n = (h / patch) * gw;
  const i64 pdim = patch * patch * c;
  std::vector<float> out(images.size());
  for (i64 bi = 0; bi < b; ++bi) {
    for (i64 ci = 0; ci < c; ++ci) {
      for (i64 yy = 0; yy < h; ++yy) {
        for (i64 xx = 0; xx < w; ++xx) {
          const i64 row = bi * n + (yy / patch) * gw + xx / patch;
          const i64 col = (ci * patch + yy % patch) * patch + xx % patch;
          out[static_cast<size_t>(row * pdim + col)] =
              images[static_cast<size_t>(((bi * c + ci) * h + yy) * w + xx)];
        }
      }
    }
  }
  return out;
}

TEST(KernelParity, PatchifyBitwiseAndRoundTrip) {
  for (i64 patch : {i64{2}, i64{5}, i64{16}}) {
    const i64 b = 2, c = 3, grid = 3;
    const i64 hw = grid * patch;
    Rng rng(static_cast<u64>(patch));
    const auto images = randv(b * c * hw * hw, rng);
    const auto want = patchify_oracle(b, c, hw, hw, patch, images);
    std::vector<float> got(want.size());
    kernels::patchify(b, c, hw, hw, patch, images.data(), got.data());
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                             got.size() * sizeof(float)));
    std::vector<float> back(images.size());
    kernels::unpatchify(b, c, grid, patch, got.data(), back.data());
    ASSERT_EQ(0, std::memcmp(images.data(), back.data(),
                             back.size() * sizeof(float)));
  }
}

TEST(KernelParity, PatchifyNonSquareImage) {
  const i64 b = 1, c = 2, h = 6, w = 10, patch = 2;
  Rng rng(11);
  const auto images = randv(b * c * h * w, rng);
  const auto want = patchify_oracle(b, c, h, w, patch, images);
  std::vector<float> got(want.size());
  kernels::patchify(b, c, h, w, patch, images.data(), got.data());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.size() * sizeof(float)));
}

// ----- dispatch seam ---------------------------------------------------------

TEST(KernelDispatch, ModeGuardRestoresPreviousMode) {
  const Mode before = active_mode();
  {
    ModeGuard guard(Mode::kScalar);
    EXPECT_EQ(active_mode(), Mode::kScalar);
    {
      ModeGuard inner(Mode::kSimd);
      EXPECT_EQ(active_mode(), Mode::kSimd);
    }
    EXPECT_EQ(active_mode(), Mode::kScalar);
  }
  EXPECT_EQ(active_mode(), before);
}

TEST(KernelDispatch, LanesPositiveAndModeNamed) {
  EXPECT_GE(simd_lanes(), 4);
  EXPECT_STREQ(mode_name(Mode::kScalar), "scalar");
  EXPECT_STREQ(mode_name(Mode::kSimd), "simd");
}

TEST(KernelDispatch, PublicGemmAgreesAcrossModes) {
  // Through the public seam (ops::), both modes compute the same matmul
  // within float tolerance — large enough to clear the small-problem
  // scalar routing.
  Rng rng(21);
  Tensor a = Tensor::randn({48, 72}, rng);
  Tensor b = Tensor::randn({72, 56}, rng);
  Tensor c_scalar, c_simd;
  {
    ModeGuard guard(Mode::kScalar);
    c_scalar = ops::matmul(a, b);
  }
  {
    ModeGuard guard(Mode::kSimd);
    c_simd = ops::matmul(a, b);
  }
  EXPECT_TRUE(c_simd.allclose(c_scalar, 1e-4f, 1e-5f));
}

TEST(KernelDispatch, EndToEndBlockForwardBackwardAgreesAcrossModes) {
  // A layernorm -> matmul -> softmax chain plus its backward, run
  // entirely under each mode; the two trajectories must agree within
  // accumulated float tolerance.
  auto run = [](Mode mode) {
    ModeGuard guard(mode);
    Rng rng(4242);
    Tensor x = Tensor::randn({12, 40}, rng);
    Tensor gamma = Tensor::ones({40});
    Tensor beta = Tensor::zeros({40});
    Tensor w = Tensor::randn({40, 24}, rng, 0.1f);
    ops::LayerNormCache cache;
    Tensor h = ops::layernorm(x, gamma, beta, 1e-5f, cache);
    Tensor logits = ops::matmul(h, w);
    Tensor probs = ops::softmax_lastdim(logits);
    // Backward with dProbs = probs (arbitrary but deterministic).
    Tensor dlogits = ops::softmax_backward_lastdim(probs, probs);
    Tensor dh = ops::matmul_nt(dlogits, w);
    Tensor dgamma = Tensor::zeros({40});
    Tensor dbeta = Tensor::zeros({40});
    Tensor dx = ops::layernorm_backward(dh, x, gamma, cache, dgamma, dbeta);
    return std::vector<Tensor>{probs, dx, dgamma, dbeta};
  };
  const auto scalar = run(Mode::kScalar);
  const auto simd = run(Mode::kSimd);
  ASSERT_EQ(scalar.size(), simd.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_TRUE(simd[i].allclose(scalar[i], 1e-3f, 1e-4f)) << "output " << i;
  }
}

}  // namespace
}  // namespace geofm::kernels

// Fused multi-head attention core: one parallel region over the B*H
// (batch item, head) slices, each running the whole per-head chain.
//
// Q, K and V are read in place from the fused QKV projection by stride
// (rows 3C apart), the context is stored straight into its head's
// columns of [B, T, C], and the gradients straight into [B, T, 3C], so
// no head split or merge copy exists on either pass. Each slice calls the
// same uninstrumented GEMM router (mode + tiny-shape rule) and softmax
// rows as kernels::gemm / softmax_*, and the scale step is the same
// `x *= scale` loop as Tensor::scale_: results are bitwise equal to the
// batched composition in both dispatch modes. Nested parallel_for calls
// inside a slice run inline (the pool serializes parallel regions).
//
// The per-head problems are tiny (5x8x5 .. 17x17x8 in the proxy models),
// so the grain is sized by work rather than index count: ~64K flops per
// chunk. A one-image serve encode (4 slices at T=17) stays on the caller.
#include <algorithm>
#include <vector>

#include "tensor/kernels/detail.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels::detail {
namespace {

constexpr i64 kChunkFlops = 65536;

i64 slice_grain(i64 slice_flops) {
  return std::max<i64>(1, kChunkFlops / std::max<i64>(1, slice_flops));
}

void scale_in_place(i64 n, float* x, float scale) {
  for (i64 i = 0; i < n; ++i) x[i] *= scale;
}

}  // namespace

void attention_fwd(i64 batch, i64 t, i64 heads, i64 head_dim, float scale,
                   const float* qkv, float* attn, float* ctx) {
  const i64 c = heads * head_dim, tt = t * t;
  parallel_for(
      batch * heads,
      [&](i64 s0, i64 s1) {
        for (i64 s = s0; s < s1; ++s) {
          const i64 bi = s / heads, h = s % heads;
          const float* q = qkv + bi * t * 3 * c + h * head_dim;
          const float* k = q + c;
          const float* v = q + 2 * c;
          float* p = attn + s * tt;
          // scores = Q K^T, scaled; softmax in place (each element is read
          // before it is written).
          gemm(1, t, head_dim, t, q, 0, 3 * c, 1, k, 0, 1, 3 * c, p, 0, t);
          scale_in_place(tt, p, scale);
          softmax_fwd(t, t, p, p);
          // ctx[:, head] = attn V
          gemm(1, t, t, head_dim, p, 0, t, 1, v, 0, 3 * c, 1,
               ctx + bi * t * c + h * head_dim, 0, c);
        }
      },
      slice_grain(4 * tt * head_dim + 6 * tt));
}

void attention_bwd(i64 batch, i64 t, i64 heads, i64 head_dim, float scale,
                   const float* qkv, const float* attn, const float* dctx,
                   float* dqkv) {
  const i64 c = heads * head_dim, tt = t * t;
  parallel_for(
      batch * heads,
      [&](i64 s0, i64 s1) {
        thread_local std::vector<float> dscores;
        dscores.resize(static_cast<size_t>(tt));
        float* ds = dscores.data();
        for (i64 s = s0; s < s1; ++s) {
          const i64 bi = s / heads, h = s % heads;
          const i64 off = bi * t * 3 * c + h * head_dim;
          const float* q = qkv + off;
          const float* k = q + c;
          const float* v = q + 2 * c;
          float* dq = dqkv + off;
          float* dk = dq + c;
          float* dv = dq + 2 * c;
          const float* p = attn + s * tt;
          const float* dc = dctx + bi * t * c + h * head_dim;
          // ctx = attn V: dattn = dctx V^T, dv = attn^T dctx.
          gemm(1, t, head_dim, t, dc, 0, c, 1, v, 0, 1, 3 * c, ds, 0, t);
          gemm(1, t, t, head_dim, p, 0, 1, t, dc, 0, c, 1, dv, 0, 3 * c);
          // attn = softmax(scale * Q K^T): dscores in place over dattn.
          softmax_bwd(t, t, ds, p, ds);
          scale_in_place(tt, ds, scale);
          // dq = dscores K, dk = dscores^T Q.
          gemm(1, t, t, head_dim, ds, 0, t, 1, k, 0, 3 * c, 1, dq, 0, 3 * c);
          gemm(1, t, t, head_dim, ds, 0, 1, t, q, 0, 3 * c, 1, dk, 0, 3 * c);
        }
      },
      slice_grain(8 * tt * head_dim + 5 * tt));
}

}  // namespace geofm::kernels::detail

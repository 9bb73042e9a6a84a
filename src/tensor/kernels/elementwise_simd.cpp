// Vectorized elementwise kernels: the AdamW parameter update.
//
// AdamW runs the whole update in fp32 lanes (the oracle's double
// intermediates exist for clarity, not necessity — the moment buffers and
// weights are fp32 anyway); bias corrections arrive precomputed per step.
#include <cmath>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/simd.hpp"

namespace geofm::kernels::detail {

using simd::kLanes;
using simd::vf;

void simd_adamw(i64 n, float* w, const float* g, float* m, float* v,
                const AdamWConfig& cfg) {
  const float b1 = static_cast<float>(cfg.beta1);
  const float b2 = static_cast<float>(cfg.beta2);
  const float c1 = static_cast<float>(1.0 - cfg.beta1);
  const float c2 = static_cast<float>(1.0 - cfg.beta2);
  const float inv_bc1 = static_cast<float>(1.0 / cfg.bias_c1);
  const float inv_bc2 = static_cast<float>(1.0 / cfg.bias_c2);
  const float lr = static_cast<float>(cfg.lr);
  const float decay = static_cast<float>(cfg.lr * cfg.weight_decay);
  const float eps = static_cast<float>(cfg.eps);

  const vf vb1 = simd::splat(b1), vb2 = simd::splat(b2);
  const vf vc1 = simd::splat(c1), vc2 = simd::splat(c2);
  const vf vibc1 = simd::splat(inv_bc1), vibc2 = simd::splat(inv_bc2);
  const vf vlr = simd::splat(lr), vdecay = simd::splat(decay);
  const vf veps = simd::splat(eps);

  i64 j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const vf gv = simd::load(g + j);
    const vf mv = vb1 * simd::load(m + j) + vc1 * gv;
    const vf vv = vb2 * simd::load(v + j) + vc2 * gv * gv;
    simd::store(m + j, mv);
    simd::store(v + j, vv);
    const vf mhat = mv * vibc1;
    const vf vhat = vv * vibc2;
    vf wv = simd::load(w + j);
    wv = wv - vdecay * wv;
    wv = wv - vlr * mhat / (simd::vsqrt(vhat) + veps);
    simd::store(w + j, wv);
  }
  for (; j < n; ++j) {
    m[j] = b1 * m[j] + c1 * g[j];
    v[j] = b2 * v[j] + c2 * g[j] * g[j];
    const float mhat = m[j] * inv_bc1;
    const float vhat = v[j] * inv_bc2;
    w[j] -= decay * w[j];
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace geofm::kernels::detail

// Vectorized GELU forward whose tanh is glibc's tanhf, lane by lane.
//
// glibc's tanhf is the fdlibm algorithm: a branch on |x| (tiny, below 1,
// below 22, saturated, non-finite) around expm1f, which reduces its
// argument by k*ln2 and rebuilds the result from a short rational
// polynomial with one of several reconstructions picked by k. Every step
// is a correctly rounded float operation, so the same operations in the
// same order on vector lanes give the same bits as the scalar libm call.
// That holds for all 2^32 inputs (DISABLED_KernelParity.SimdTanhExhaustive
// checks it) and makes simd_gelu_fwd bitwise equal to the scalar oracle,
// so SIMD mode keeps every loss bit of the seed numerics.
//
// Lanes do not branch: every case is computed on every lane and a select
// keeps the one the scalar code would have taken. Lanes whose discarded
// cases see out-of-range values stay well-defined: the argument is
// clamped before the float->int conversion, exponent arithmetic runs in
// unsigned lanes, and shift counts are masked to [0, 31].
//
// This TU alone is built with -ffp-contract=off (src/CMakeLists.txt):
// under -march=native GCC would otherwise fuse a*b+c into an FMA, whose
// single rounding differs from libm's two.
#include <cstdint>
#include <cstring>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/simd.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels::detail {
namespace {

using simd::kLanes;
using simd::splat;
using simd::vf;
using simd::vi;

typedef std::uint32_t vu
    __attribute__((vector_size(kLanes * sizeof(std::uint32_t))));

vu bits(vf x) {
  vu u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

vf from_bits(vu u) {
  vf x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

vu usplat(std::uint32_t v) { return vu{} + v; }

// glibc's expm1f over the arguments tanhf passes it: [-2, -2^-54] for
// |x| < 1 and [2, 44) for 1 <= |x| < 22. Over that domain the overflow
// and -1 saturation filters never fire, and k == 1 (positive arguments
// below 1.5*ln2) never occurs, so those cases are left out.
vf expm1_for_tanh(vf x) {
  const vf ln2_hi = splat(0x1.62e3p-1f);      // 0x3f317180
  const vf ln2_lo = splat(0x1.2fefa2p-17f);   // 0x3717f7d1
  const vf invln2 = splat(0x1.715476p+0f);    // 0x3fb8aa3b
  const vf q1 = splat(-0x1.111112p-5f);       // 0xbd088889
  const vf q2 = splat(0x1.a01a02p-10f);       // 0x3ad00d01
  const vf q3 = splat(-0x1.4ce19ap-14f);      // 0xb8a670cd
  const vf q4 = splat(0x1.0cfca8p-18f);       // 0x36867e54
  const vf q5 = splat(-0x1.afdb76p-23f);      // 0xb457edbb
  const vf one = splat(1.f);

  const vu hx = bits(x) & usplat(0x7fffffff);
  const vi neg = (bits(x) >> 31) != usplat(0);

  // Argument reduction x = k*ln2 + (hi - lo): k = -1 for |x| in
  // (0.5*ln2, 1.5*ln2) (only negative arguments get there), k =
  // trunc(x/ln2 +- 0.5) above, no reduction (k = 0) below.
  const vi reduce = hx > usplat(0x3eb17218);
  const vi near = reduce & (hx < usplat(0x3f851592));
  vf kf = invln2 * x + (neg ? splat(-0.5f) : splat(0.5f));
  kf = kf > splat(-128.f) ? kf : splat(-128.f);  // maps NaN to -128 too
  kf = kf < splat(128.f) ? kf : splat(128.f);
  const vi kg = __builtin_convertvector(kf, vi);
  const vf tk = __builtin_convertvector(kg, vf);
  const vf hi = near ? x + ln2_hi : x - tk * ln2_hi;
  const vf lo = near ? -ln2_lo : tk * ln2_lo;
  const vi k = reduce ? (near ? vi{} - 1 : kg) : vi{};
  const vf xr_reduced = hi - lo;
  const vf c = (hi - xr_reduced) - lo;
  const vf xr = reduce ? xr_reduced : x;

  // x is now in the primary range.
  const vf hfx = splat(0.5f) * xr;
  const vf hxs = xr * hfx;
  const vf r1 =
      one + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
  const vf t = splat(3.f) - r1 * hfx;
  vf e = hxs * ((r1 - t) / (splat(6.f) - xr * t));
  const vf y_k0 = xr - (xr * e - hxs);
  e = xr * (e - c) - c;
  e = e - hxs;
  const vf y_km1 = splat(0.5f) * (xr - e) - splat(0.5f);

  // 2^k scaling adds k to the exponent field.
  const vu ku = __builtin_convertvector(k, vu);
  const vu kexp = ku << 23;
  const vf y_wide = from_bits(bits(one - (e - xr)) + kexp) - one;
  const vf t_small = from_bits(usplat(0x3f800000) -
                               (usplat(0x1000000) >> (ku & usplat(31))));
  const vf y_small = from_bits(bits(t_small - (e - xr)) + kexp);
  const vf t_large = from_bits((usplat(0x7f) - ku) << 23);
  const vf y_large = from_bits(bits((xr - (e + t_large)) + one) + kexp);

  vf y = k < 23 ? y_small : y_large;
  y = (k <= -2) | (k > 56) ? y_wide : y;
  y = k == -1 ? y_km1 : y;
  y = k == 0 ? y_k0 : y;
  return hx < usplat(0x33000000) ? x : y;  // |x| < 2^-25: expm1(x) = x
}

vf tanh_v(vf x) {
  const vf one = splat(1.f), two = splat(2.f);
  const vu jx = bits(x);
  const vu ix = jx & usplat(0x7fffffff);
  const vf ax = from_bits(ix);
  const vi ge1 = ix >= usplat(0x3f800000);

  // |x| >= 1: 1 - 2/(expm1(2|x|) + 2); |x| < 1: -t/(t + 2) with
  // t = expm1(-2|x|). One division serves both by selecting the numerator.
  const vf t = expm1_for_tanh(ge1 ? two * ax : splat(-2.f) * ax);
  const vf q = (ge1 ? two : -t) / (t + two);
  vf z = ge1 ? one - q : q;
  z = ix < usplat(0x41b00000) ? z : one;  // |x| >= 22: 1 - 1e-30 == 1
  z = (jx >> 31) != usplat(0) ? -z : z;
  z = ix < usplat(0x24000000) ? x * (one + x) : z;  // |x| < 2^-55, and +-0
  // NaN: glibc returns 1/x +- 1, which is x quieted, as is x + x.
  return ix > usplat(0x7f800000) ? x + x : z;
}

// One vector of scalar_gelu_fwd, operation for operation.
void gelu_block(vf v, vf* y, vf* d) {
  const vf half = splat(0.5f), one = splat(1.f), c = splat(kGeluC);
  const vf t = tanh_v(c * (v + splat(kGeluA) * v * v * v));
  *y = half * v * (one + t);
  const vf dudv = c * (one + splat(3.f * kGeluA) * v * v);
  *d = half * (one + t) + half * v * (one - t * t) * dudv;
}

}  // namespace

void simd_tanh(i64 n, const float* x, float* y) {
  i64 i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    simd::store(y + i, tanh_v(simd::load(x + i)));
  }
  if (i < n) {
    const vf v = simd::load_partial(x + i, n - i);
    simd::store_partial(y + i, tanh_v(v), n - i);
  }
}

void simd_gelu_fwd(i64 n, float* x, float* y) {
  parallel_for(n, [&](i64 i0, i64 i1) {
    vf yv, dv;
    i64 i = i0;
    for (; i + kLanes <= i1; i += kLanes) {
      gelu_block(simd::load(x + i), &yv, &dv);
      simd::store(y + i, yv);
      simd::store(x + i, dv);
    }
    if (i < i1) {
      gelu_block(simd::load_partial(x + i, i1 - i), &yv, &dv);
      simd::store_partial(y + i, yv, i1 - i);
      simd::store_partial(x + i, dv, i1 - i);
    }
  }, row_grain(1));
}

}  // namespace geofm::kernels::detail

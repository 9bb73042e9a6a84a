// Public surface of the kernel engine: the hot raw-pointer kernels behind
// every tensor/nn/optim operation, dispatched at runtime between the
// scalar oracle and the SIMD + cache-blocked implementations
// (GEOFM_KERNELS, see dispatch.hpp).
//
// Conventions:
//  * All matrices are fp32. C outputs are row-major; GEMM transposition is
//    expressed through element strides, so one entry point serves NN/NT/TN
//    and arbitrary (lda/ldb) padded sub-views.
//  * `batch` amortizes dispatch + instrumentation over many same-shape
//    GEMMs: one kernel.* span covers the whole batch.
//  * Every call emits a `kernel.<family>` trace span (category "kernel",
//    args flops/bytes) and bumps kernel.<family>.{calls,flops,bytes,
//    seconds} metrics.
#pragma once

#include "tensor/kernels/dispatch.hpp"
#include "util/common.hpp"

namespace geofm::kernels {

// ----- GEMM ----------------------------------------------------------------

/// For each batch slice: C[i,j] = sum_p a(i,p) * b(p,j), where
///   a(i,p) = A[batch*a_batch + i*ars + p*acs],
///   b(p,j) = B[batch*b_batch + p*brs + j*bcs],
/// and C is row-major with leading dimension ldc (c_batch between slices).
/// C is overwritten. Shapes are logical: A is [m,k], B is [k,n].
void gemm(i64 batch, i64 m, i64 k, i64 n,
          const float* a, i64 a_batch, i64 ars, i64 acs,
          const float* b, i64 b_batch, i64 brs, i64 bcs,
          float* c, i64 c_batch, i64 ldc);

/// Contiguous convenience wrappers over gemm(), physical shapes as in
/// ops::matmul, batch slices back to back:
///   nn: A[m,k] * B[k,n]          -> C[m,n]
///   nt: A[m,k] * B[n,k]^T        -> C[m,n]
///   tn: A[m,k]^T * B[m,n]        -> C[k,n]
void gemm_nn(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c);
void gemm_nt(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c);
void gemm_tn(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c);

// ----- row-wise normalizations ----------------------------------------------

/// y = gamma * (x - mean) / sqrt(var + eps) + beta per row; writes per-row
/// mean/rstd for the backward pass. x, y are [rows, cols] contiguous.
void layernorm_fwd(i64 rows, i64 cols, const float* x, const float* gamma,
                   const float* beta, float eps, float* y, float* mean,
                   float* rstd);

/// dx from the standard LN gradient identity; dgamma/dbeta are
/// *accumulated* (row-serial, deterministic).
void layernorm_bwd(i64 rows, i64 cols, const float* dy, const float* x,
                   const float* gamma, const float* mean, const float* rstd,
                   float* dx, float* dgamma, float* dbeta);

/// Numerically stable row-wise softmax; x, y are [rows, cols].
void softmax_fwd(i64 rows, i64 cols, const float* x, float* y);

/// dx = y * (dy - sum(dy*y)) per row.
void softmax_bwd(i64 rows, i64 cols, const float* dy, const float* y,
                 float* dx);

// ----- fused transformer-block kernels ----------------------------------------

/// Scaled dot-product attention core over all batch x head slices in one
/// parallel region. qkv is the fused projection [B, T, 3C], its 3C axis
/// laid out [which(3)][head][head_dim] (torch's
/// qkv.reshape(B,T,3,H,Dh)); Q, K and V are read in place by stride.
/// Per slice: attn = softmax(scale * Q K^T) into attn [B*H, T, T] (kept
/// for the backward), then attn V straight into its head's columns of
/// ctx [B, T, C]. Same per-slice GEMM and softmax routines as
/// kernels::gemm / softmax_fwd, so results are bitwise equal to that
/// composition.
void attention_fwd(i64 batch, i64 t, i64 heads, i64 head_dim, float scale,
                   const float* qkv, float* attn, float* ctx);

/// Backward of attention_fwd: dctx [B, T, C] -> dqkv [B, T, 3C] (every
/// element written), from the forward's qkv and attn.
void attention_bwd(i64 batch, i64 t, i64 heads, i64 head_dim, float scale,
                   const float* qkv, const float* attn, const float* dctx,
                   float* dqkv);

/// GELU (tanh approximation) over n elements: y = gelu(x), and x is
/// overwritten with dgelu/dx, so the backward needs neither x nor a second
/// tanh.
void gelu_fwd(i64 n, float* x, float* y);

/// dx = dy * d, with d the derivative gelu_fwd left behind; dx may alias
/// dy.
void gelu_bwd(i64 n, const float* dy, const float* d, float* dx);

// ----- optimizer -------------------------------------------------------------

struct AdamWConfig {
  double lr = 0;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0;
  double bias_c1 = 1;  // 1 - beta1^t, computed once per step
  double bias_c2 = 1;  // 1 - beta2^t
};

/// One decoupled-weight-decay Adam update over n contiguous elements:
/// m/v moment update, bias-corrected step, decay applied to the pre-step
/// weights. Matches optim::AdamW semantics exactly in scalar mode.
void adamw_update(i64 n, float* w, const float* g, float* m, float* v,
                  const AdamWConfig& cfg);

// ----- image <-> patch --------------------------------------------------------
// Pure permutations with a single implementation: the same code runs in
// both GEOFM_KERNELS modes.

/// [B, C, H, W] -> [B, N, P*P*C], channel-major within a patch (the MAE
/// layout). h and w must be multiples of patch.
void patchify(i64 b, i64 c, i64 h, i64 w, i64 patch, const float* images,
              float* out);

/// Inverse of patchify for square g x g patch grids: [B, N, P*P*C] ->
/// [B, C, g*P, g*P].
void unpatchify(i64 b, i64 c, i64 grid, i64 patch, const float* patches,
                float* out);

}  // namespace geofm::kernels

// Dense kernels used by the neural-network layers. All kernels are
// shape-checked, deterministic, and thread-parallel over the leading
// dimension where profitable.
//
// Convention: forward kernels return fresh tensors; backward kernels take
// the upstream gradient plus whatever the forward saved, and return (or
// accumulate into) input/parameter gradients.
#pragma once

#include "tensor/tensor.hpp"

namespace geofm::ops {

// ----- GEMM ----------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] * B[n,k]^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// C[k,n] = A[m,k]^T * B[m,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);

// ----- elementwise / broadcast ----------------------------------------------

/// out = a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// y[r, :] = x[r, :] + bias for x viewed as [rows, cols]. In place.
void add_bias_rows(Tensor& x, const Tensor& bias);
/// grad_bias[c] += sum_r grad[r, c].
void accumulate_bias_grad(const Tensor& grad, Tensor& grad_bias);

// ----- softmax ---------------------------------------------------------------

/// Row-wise softmax over the last dimension of x viewed as [rows, cols].
Tensor softmax_lastdim(const Tensor& x);
/// dL/dx from dL/dy and y = softmax(x): dx = y * (dy - sum(dy*y)).
Tensor softmax_backward_lastdim(const Tensor& dy, const Tensor& y);

// ----- layer norm ------------------------------------------------------------

struct LayerNormCache {
  Tensor mean;  // [rows]
  Tensor rstd;  // [rows]
};

/// y = gamma * (x - mean)/sqrt(var + eps) + beta over the last dim of x
/// viewed as [rows, C]. Fills `cache` for the backward pass.
Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps, LayerNormCache& cache);
/// Returns dx; accumulates dgamma/dbeta.
Tensor layernorm_backward(const Tensor& dy, const Tensor& x,
                          const Tensor& gamma, const LayerNormCache& cache,
                          Tensor& dgamma, Tensor& dbeta);

// ----- losses / metrics -------------------------------------------------------

struct SoftmaxCrossEntropy {
  float loss = 0.f;   // mean over batch
  Tensor probs;       // [batch, classes], saved for backward
};

/// Numerically stable softmax cross-entropy with integer labels.
SoftmaxCrossEntropy softmax_cross_entropy(const Tensor& logits,
                                          const std::vector<i64>& labels);
/// dL/dlogits = (probs - onehot)/batch.
Tensor softmax_cross_entropy_backward(const SoftmaxCrossEntropy& fwd,
                                      const std::vector<i64>& labels);

/// Fraction of rows whose top-k logits contain the label.
double topk_accuracy(const Tensor& logits, const std::vector<i64>& labels,
                     int k);

/// Mean squared error restricted to rows with mask[row] == 1, over x,y
/// viewed as [rows, cols]; also returns d(mse)/dx into dx if non-null.
float masked_mse(const Tensor& pred, const Tensor& target,
                 const std::vector<u32>& row_mask, Tensor* dpred);

// ----- image <-> patch ---------------------------------------------------------

/// [B, C, H, W] -> [B, N, P*P*C] with N = (H/P)*(W/P); patch pixels are laid
/// out channel-major within a patch, matching the MAE reference.
Tensor patchify(const Tensor& images, i64 patch);
/// Inverse of patchify: [B, N, P*P*C] -> [B, C, H, W] for square images.
Tensor unpatchify(const Tensor& patches, i64 patch, i64 channels);

// ----- misc --------------------------------------------------------------------

/// [rows, cols] -> [cols, rows].
Tensor transpose2d(const Tensor& x);

/// Gathers rows: out[i, :] = x[index[i], :] for x viewed as [rows, cols].
Tensor gather_rows(const Tensor& x, const std::vector<i64>& index);
/// Scatter-add rows: out[index[i], :] += x[i, :]; `out` must be pre-sized.
void scatter_rows_add(const Tensor& x, const std::vector<i64>& index,
                      Tensor& out);

}  // namespace geofm::ops

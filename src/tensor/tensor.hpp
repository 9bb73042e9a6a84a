// Dense fp32 tensor with shared, contiguous, row-major storage.
//
// Design notes:
//  * Storage is a shared_ptr'd flat float buffer; Tensors are cheap value
//    types (copying a Tensor aliases storage — use clone() for a deep copy).
//  * Flat views (`view`, `flat_view`) enable FSDP's flat-parameter scheme:
//    module parameters are windows into one contiguous per-unit buffer.
//  * Only fp32 is supported: the paper's numerics (MAE/ViT training) do not
//    depend on mixed precision, and single-dtype keeps kernels simple.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/rng.hpp"

namespace geofm {

class Tensor {
 public:
  /// Empty (numel 0, rank 0) tensor.
  Tensor() = default;

  /// Zero-filled tensor of the given shape.
  explicit Tensor(std::vector<i64> shape);
  Tensor(std::initializer_list<i64> shape)
      : Tensor(std::vector<i64>(shape)) {}

  // ----- factories ---------------------------------------------------------
  static Tensor zeros(std::vector<i64> shape);
  static Tensor full(std::vector<i64> shape, float value);
  static Tensor ones(std::vector<i64> shape) { return full(std::move(shape), 1.f); }
  /// I.i.d. N(mean, stddev) entries drawn from `rng`.
  static Tensor randn(std::vector<i64> shape, Rng& rng, float stddev = 1.f,
                      float mean = 0.f);
  /// Uniform in [lo, hi).
  static Tensor rand(std::vector<i64> shape, Rng& rng, float lo = 0.f,
                     float hi = 1.f);
  /// [0, 1, ..., n-1] as a 1-D tensor.
  static Tensor arange(i64 n);
  /// 1-D tensor from explicit values.
  static Tensor from(std::vector<float> values);

  // ----- shape -------------------------------------------------------------
  const std::vector<i64>& shape() const { return shape_; }
  i64 dim(int i) const;
  int rank() const { return static_cast<int>(shape_.size()); }
  i64 numel() const { return numel_; }
  bool defined() const { return buf_ != nullptr; }
  std::string shape_str() const;

  /// Reinterpret as `shape` (same numel); shares storage.
  Tensor view(std::vector<i64> shape) const;
  /// 1-D window [offset, offset+len) into this tensor's flat storage;
  /// shares storage. This is the FSDP flat-parameter primitive.
  Tensor flat_view(i64 offset, i64 len) const;
  /// Whole tensor as 1-D; shares storage.
  Tensor flatten() const { return view({numel_}); }

  // ----- element access ----------------------------------------------------
  float* data();
  const float* data() const;
  float& at(std::initializer_list<i64> idx);
  float at(std::initializer_list<i64> idx) const;
  float& operator[](i64 flat);
  float operator[](i64 flat) const;

  // ----- whole-tensor operations (in place, return *this) -------------------
  Tensor& fill_(float value);
  Tensor& zero_() { return fill_(0.f); }
  /// Copies values from src (same numel; shapes may differ).
  Tensor& copy_(const Tensor& src);
  Tensor& add_(const Tensor& other, float alpha = 1.f);  // this += alpha*other
  Tensor& mul_(const Tensor& other);                     // elementwise
  Tensor& scale_(float alpha);                           // this *= alpha
  Tensor& add_scalar_(float alpha);                      // this += alpha

  /// Deep copy with fresh storage.
  Tensor clone() const;

  // ----- reductions --------------------------------------------------------
  float sum() const;
  float mean() const;
  float abs_max() const;
  /// sqrt(sum of squares).
  float norm() const;

  /// True iff same shape and max |a-b| <= atol + rtol*|b|.
  bool allclose(const Tensor& other, float rtol = 1e-5f,
                float atol = 1e-6f) const;

 private:
  Tensor(std::shared_ptr<std::vector<float>> buf, i64 offset,
         std::vector<i64> shape);

  static i64 compute_numel(const std::vector<i64>& shape);

  std::shared_ptr<std::vector<float>> buf_;
  i64 offset_ = 0;
  std::vector<i64> shape_;
  i64 numel_ = 0;
};

}  // namespace geofm

// Training-time augmentations. MAE pretraining uses light augmentation
// (random resized crop + horizontal flip); at geospatial proxy scale we
// provide flips, 90-degree rotations (aerial imagery has no canonical
// orientation) and shift-crops, all deterministic given an Rng stream.
#pragma once

#include "tensor/tensor.hpp"

namespace geofm::data {

/// Horizontal flip of a [C, H, W] image (out-of-place).
Tensor hflip(const Tensor& image);
/// Vertical flip of a [C, H, W] image.
Tensor vflip(const Tensor& image);
/// Rotate a square [C, H, W] image by k*90 degrees counter-clockwise.
Tensor rot90(const Tensor& image, int k);
/// Crop a [C, H, W] image at (top, left) to (h, w); bounds-checked.
Tensor crop(const Tensor& image, i64 top, i64 left, i64 h, i64 w);

/// Augmentation policy applied per sample during pretraining. Flips and
/// 90-degree rotations are always on.
struct AugmentOptions {
  i64 max_shift = 0;           // shift-crop-and-pad jitter, pixels (0 = off)
};

/// Applies a random horizontal flip, vertical flip (valid for nadir aerial
/// imagery), 90-degree rotation (square images only) and, when enabled, a
/// shift, driven by `rng`. Shape-preserving (shift uses reflect padding).
Tensor augment(const Tensor& image, const AugmentOptions& options, Rng& rng);

}  // namespace geofm::data

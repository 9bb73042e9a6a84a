#include "data/transforms.hpp"

#include <algorithm>

namespace geofm::data {
namespace {

void check_chw(const Tensor& image) {
  GEOFM_CHECK(image.rank() == 3, "transform expects [C,H,W], got "
                                     << image.shape_str());
}

}  // namespace

Tensor hflip(const Tensor& image) {
  check_chw(image);
  const i64 c = image.dim(0), h = image.dim(1), w = image.dim(2);
  Tensor out(image.shape());
  const float* src = image.data();
  float* dst = out.data();
  for (i64 ci = 0; ci < c; ++ci) {
    for (i64 y = 0; y < h; ++y) {
      const float* row = src + (ci * h + y) * w;
      float* orow = dst + (ci * h + y) * w;
      for (i64 x = 0; x < w; ++x) orow[x] = row[w - 1 - x];
    }
  }
  return out;
}

Tensor vflip(const Tensor& image) {
  check_chw(image);
  const i64 c = image.dim(0), h = image.dim(1), w = image.dim(2);
  Tensor out(image.shape());
  const float* src = image.data();
  float* dst = out.data();
  for (i64 ci = 0; ci < c; ++ci) {
    for (i64 y = 0; y < h; ++y) {
      std::copy_n(src + (ci * h + (h - 1 - y)) * w, w, dst + (ci * h + y) * w);
    }
  }
  return out;
}

Tensor rot90(const Tensor& image, int k) {
  check_chw(image);
  const i64 c = image.dim(0), h = image.dim(1), w = image.dim(2);
  k = ((k % 4) + 4) % 4;
  if (k == 0) return image.clone();
  GEOFM_CHECK(h == w || k == 2, "90/270-degree rotation needs square image");
  Tensor out(image.shape());
  const float* src = image.data();
  float* dst = out.data();
  for (i64 ci = 0; ci < c; ++ci) {
    for (i64 y = 0; y < h; ++y) {
      for (i64 x = 0; x < w; ++x) {
        i64 sy = y, sx = x;
        switch (k) {
          case 1: sy = x; sx = w - 1 - y; break;          // 90 ccw
          case 2: sy = h - 1 - y; sx = w - 1 - x; break;  // 180
          default: sy = h - 1 - x; sx = y; break;         // 270 ccw
        }
        dst[(ci * h + y) * w + x] = src[(ci * h + sy) * w + sx];
      }
    }
  }
  return out;
}

Tensor crop(const Tensor& image, i64 top, i64 left, i64 h, i64 w) {
  check_chw(image);
  const i64 c = image.dim(0), ih = image.dim(1), iw = image.dim(2);
  GEOFM_CHECK(top >= 0 && left >= 0 && h > 0 && w > 0 && top + h <= ih &&
                  left + w <= iw,
              "crop window out of bounds");
  Tensor out({c, h, w});
  const float* src = image.data();
  float* dst = out.data();
  for (i64 ci = 0; ci < c; ++ci) {
    for (i64 y = 0; y < h; ++y) {
      std::copy_n(src + (ci * ih + top + y) * iw + left, w,
                  dst + (ci * h + y) * w);
    }
  }
  return out;
}

Tensor augment(const Tensor& image, const AugmentOptions& options, Rng& rng) {
  check_chw(image);
  Tensor out = image.clone();
  if (rng.uniform() < 0.5) out = hflip(out);
  if (rng.uniform() < 0.5) out = vflip(out);
  if (image.dim(1) == image.dim(2)) {
    const int k = static_cast<int>(rng.uniform_int(4));
    if (k != 0) out = rot90(out, k);
  }
  if (options.max_shift > 0) {
    const i64 h = out.dim(1), w = out.dim(2);
    const i64 dy = rng.uniform_int(2 * options.max_shift + 1) -
                   options.max_shift;
    const i64 dx = rng.uniform_int(2 * options.max_shift + 1) -
                   options.max_shift;
    if (dy != 0 || dx != 0) {
      // Shift with reflect padding, preserving shape.
      Tensor shifted(out.shape());
      const float* src = out.data();
      float* dst = shifted.data();
      const i64 c = out.dim(0);
      auto reflect = [](i64 v, i64 n) {
        if (v < 0) return -v;
        if (v >= n) return 2 * n - 2 - v;
        return v;
      };
      for (i64 ci = 0; ci < c; ++ci) {
        for (i64 y = 0; y < h; ++y) {
          for (i64 x = 0; x < w; ++x) {
            const i64 sy = reflect(y + dy, h);
            const i64 sx = reflect(x + dx, w);
            dst[(ci * h + y) * w + x] = src[(ci * h + sy) * w + sx];
          }
        }
      }
      out = shifted;
    }
  }
  return out;
}

}  // namespace geofm::data

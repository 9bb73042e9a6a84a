#include "train/linear_probe.hpp"

#include <algorithm>

#include "nn/linear.hpp"
#include "optim/optimizer.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"

namespace geofm::train {
namespace {

constexpr double kMomentum = 0.9;    // LARS momentum
constexpr double kWarmupFrac = 0.1;  // fraction of steps spent warming up

}  // namespace

std::pair<Tensor, std::vector<i64>> extract_features(
    models::MAE& encoder, const data::SceneDataset& dataset, data::Split split,
    i64 batch_size) {
  const i64 n = dataset.size(split);
  GEOFM_CHECK(n > 0);
  const i64 width = encoder.config().encoder.width;
  Tensor features({n, width});
  std::vector<i64> labels(static_cast<size_t>(n));

  for (i64 begin = 0; begin < n; begin += batch_size) {
    const i64 end = std::min<i64>(begin + batch_size, n);
    std::vector<i64> idx;
    idx.reserve(static_cast<size_t>(end - begin));
    for (i64 i = begin; i < end; ++i) idx.push_back(i);
    auto [images, batch_labels] = dataset.make_batch(split, idx);
    Tensor f = encoder.encode(images);
    features.flat_view(begin * width, (end - begin) * width).copy_(f);
    for (i64 i = begin; i < end; ++i) {
      labels[static_cast<size_t>(i)] =
          batch_labels[static_cast<size_t>(i - begin)];
    }
  }
  return {features, labels};
}

namespace {

struct Eval {
  double top1;
  double top5;
};

Eval evaluate(nn::Linear& head, const Tensor& features,
              const std::vector<i64>& labels) {
  Tensor logits = head.forward(features);
  return {ops::topk_accuracy(logits, labels, 1),
          ops::topk_accuracy(logits, labels, 5)};
}

}  // namespace

ProbeResult linear_probe(models::MAE& encoder,
                         const data::SceneDataset& dataset,
                         const ProbeConfig& cfg) {
  GEOFM_CHECK(cfg.epochs > 0 && cfg.batch_size > 0);

  auto [train_x, train_y] =
      extract_features(encoder, dataset, data::Split::kTrain);
  auto [test_x, test_y] =
      extract_features(encoder, dataset, data::Split::kTest);

  const i64 n_train = train_x.dim(0);
  const i64 width = train_x.dim(1);
  const i64 classes = dataset.n_classes();

  // MAE's probing protocol places a (non-affine) BatchNorm before the
  // linear head. With a frozen backbone that is equivalent to z-scoring
  // both splits with the training-set feature statistics.
  {
    for (i64 d = 0; d < width; ++d) {
      double mean = 0;
      for (i64 i = 0; i < n_train; ++i) mean += train_x.at({i, d});
      mean /= static_cast<double>(n_train);
      double var = 0;
      for (i64 i = 0; i < n_train; ++i) {
        const double diff = train_x.at({i, d}) - mean;
        var += diff * diff;
      }
      var /= static_cast<double>(n_train);
      const float rstd = static_cast<float>(1.0 / std::sqrt(var + 1e-6));
      for (i64 i = 0; i < n_train; ++i) {
        train_x.at({i, d}) =
            (train_x.at({i, d}) - static_cast<float>(mean)) * rstd;
      }
      for (i64 i = 0; i < test_x.dim(0); ++i) {
        test_x.at({i, d}) =
            (test_x.at({i, d}) - static_cast<float>(mean)) * rstd;
      }
    }
  }

  Rng rng(cfg.seed ^ hash_name(dataset.name().c_str()));
  nn::Linear head("probe.head", width, classes, rng);
  head.weight.value.zero_();  // MAE linear-probe convention: zero-init head
  if (head.bias.value.defined()) head.bias.value.zero_();

  const double peak_lr =
      cfg.base_lr * static_cast<double>(cfg.batch_size) / 256.0;
  optim::Lars opt(head.parameters(), peak_lr, kMomentum,
                  /*weight_decay=*/0.0, /*trust=*/0.01);

  const i64 steps_per_epoch =
      std::max<i64>(1, n_train / cfg.batch_size);
  const i64 total_steps = steps_per_epoch * cfg.epochs;
  const i64 warmup = static_cast<i64>(total_steps * kWarmupFrac);

  ProbeResult result;
  std::vector<i64> order(static_cast<size_t>(n_train));
  for (i64 i = 0; i < n_train; ++i) order[static_cast<size_t>(i)] = i;

  i64 global_step = 0;
  for (i64 epoch = 0; epoch < cfg.epochs; ++epoch) {
    // Reshuffle per epoch, reproducibly.
    Rng shuffle_rng = Rng(cfg.seed).split(0xf00dULL).split(
        static_cast<u64>(epoch));
    for (i64 i = n_train - 1; i > 0; --i) {
      const i64 j = shuffle_rng.uniform_int(i + 1);
      std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    }

    for (i64 s = 0; s < steps_per_epoch; ++s) {
      const i64 begin = s * cfg.batch_size;
      const i64 end = std::min<i64>(begin + cfg.batch_size, n_train);
      std::vector<i64> idx(order.begin() + begin, order.begin() + end);
      Tensor xb = ops::gather_rows(train_x, idx);
      std::vector<i64> yb;
      yb.reserve(idx.size());
      for (i64 i : idx) yb.push_back(train_y[static_cast<size_t>(i)]);

      opt.set_lr(optim::cosine_warmup_lr(peak_lr, global_step, warmup,
                                         total_steps));
      opt.zero_grad();
      Tensor logits = head.forward(xb);
      auto ce = ops::softmax_cross_entropy(logits, yb);
      head.backward(ops::softmax_cross_entropy_backward(ce, yb));
      opt.step();
      ++global_step;
    }

    const Eval ev = evaluate(head, test_x, test_y);
    result.top1_per_epoch.push_back(ev.top1);
    result.top5_per_epoch.push_back(ev.top5);
    if (cfg.verbose) {
      GEOFM_INFO("probe " << dataset.name() << " epoch " << epoch << " top1 "
                          << ev.top1);
    }
  }
  result.final_top1 = result.top1_per_epoch.back();
  result.final_top5 = result.top5_per_epoch.back();
  return result;
}

}  // namespace geofm::train

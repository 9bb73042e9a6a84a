// Data layer tests: generator determinism, Table II facades, loader
// ordering/coverage/determinism.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/dataloader.hpp"
#include "data/datasets.hpp"
#include "obs/metrics.hpp"

namespace geofm {
namespace {

using data::DataLoader;
using data::SceneDataset;
using data::SceneGenerator;
using data::Split;

TEST(SceneGenerator, DeterministicPerClassAndKey) {
  SceneGenerator gen(16, 3, 10, 42);
  Tensor a = gen.render(3, 100);
  Tensor b = gen.render(3, 100);
  EXPECT_TRUE(a.allclose(b, 0.f, 0.f));
  Tensor c = gen.render(3, 101);
  EXPECT_FALSE(a.allclose(c, 1e-3f, 1e-3f));
  Tensor d = gen.render(4, 100);
  EXPECT_FALSE(a.allclose(d, 1e-3f, 1e-3f));
}

TEST(SceneGenerator, OutputShapeAndRange) {
  SceneGenerator gen(24, 3, 51, 7);
  Tensor img = gen.render(50, 1);
  EXPECT_EQ(img.shape(), (std::vector<i64>{3, 24, 24}));
  EXPECT_TRUE(std::isfinite(img.sum()));
  EXPECT_LE(img.abs_max(), 5.f);  // sensor-normalized-ish range
}

TEST(SceneGenerator, ClassesAreVisuallyDistinct) {
  // Within-class distance (different samples) should on average be smaller
  // than between-class distance, else the probing task is unlearnable.
  SceneGenerator gen(16, 3, 12, 9);
  double within = 0, between = 0;
  int n = 0;
  for (int cls = 0; cls < 12; ++cls) {
    Tensor a = gen.render(cls, 1);
    Tensor b = gen.render(cls, 2);
    Tensor c = gen.render((cls + 5) % 12, 1);
    Tensor dab = a.clone();
    dab.add_(b, -1.f);
    Tensor dac = a.clone();
    dac.add_(c, -1.f);
    within += dab.norm();
    between += dac.norm();
    ++n;
  }
  EXPECT_LT(within / n, between / n);
}

TEST(SceneGenerator, RejectsBadClass) {
  SceneGenerator gen(8, 3, 4, 1);
  EXPECT_THROW(gen.render(4, 0), Error);
  EXPECT_THROW(gen.render(-1, 0), Error);
}

TEST(Datasets, TableTwoSizesAndClasses) {
  auto ma = data::million_aid();
  EXPECT_EQ(ma.size(Split::kTrain), 1000);
  EXPECT_EQ(ma.size(Split::kTest), 9000);
  EXPECT_EQ(ma.n_classes(), 51);

  auto u = data::ucm();
  EXPECT_EQ(u.size(Split::kTrain), 1050);
  EXPECT_EQ(u.size(Split::kTest), 1050);
  EXPECT_EQ(u.n_classes(), 21);

  auto a = data::aid();
  EXPECT_EQ(a.size(Split::kTrain), 2000);
  EXPECT_EQ(a.size(Split::kTest), 8000);
  EXPECT_EQ(a.n_classes(), 30);

  auto n = data::nwpu();
  EXPECT_EQ(n.size(Split::kTrain), 3150);
  EXPECT_EQ(n.size(Split::kTest), 28350);
  EXPECT_EQ(n.n_classes(), 45);

  auto pre = data::million_aid_pretrain(4096);
  EXPECT_EQ(pre.size(Split::kTrain), 4096);
}

TEST(Datasets, ScaleDividesSplits) {
  auto n = data::nwpu(32, {.divisor = 9});
  EXPECT_EQ(n.size(Split::kTrain), 350);
  EXPECT_EQ(n.size(Split::kTest), 3150);
  EXPECT_EQ(n.n_classes(), 45);  // class count unaffected
}

TEST(Datasets, LabelsBalancedAndInRange) {
  auto u = data::ucm();
  std::vector<int> counts(static_cast<size_t>(u.n_classes()), 0);
  for (i64 i = 0; i < u.size(Split::kTrain); ++i) {
    const i64 y = u.label_of(Split::kTrain, i);
    ASSERT_GE(y, 0);
    ASSERT_LT(y, u.n_classes());
    counts[static_cast<size_t>(y)]++;
  }
  // 1050 / 21 = 50 exactly.
  for (int c : counts) EXPECT_EQ(c, 50);
}

TEST(Datasets, TrainTestSamplesDiffer) {
  auto u = data::ucm();
  // Same label, same index, different splits: must be different scenes.
  data::Sample tr = u.get(Split::kTrain, 0);
  i64 test_idx = -1;
  for (i64 i = 0; i < u.size(Split::kTest); ++i) {
    if (u.label_of(Split::kTest, i) == tr.label) {
      test_idx = i;
      break;
    }
  }
  ASSERT_GE(test_idx, 0);
  data::Sample te = u.get(Split::kTest, test_idx);
  EXPECT_EQ(te.label, tr.label);
  EXPECT_FALSE(tr.image.allclose(te.image, 1e-3f, 1e-3f));
}

TEST(Datasets, MakeBatchStacksCorrectly) {
  auto u = data::ucm(16);
  auto [images, labels] = u.make_batch(Split::kTrain, {0, 5, 10});
  EXPECT_EQ(images.shape(), (std::vector<i64>{3, 3, 16, 16}));
  ASSERT_EQ(labels.size(), 3u);
  data::Sample s5 = u.get(Split::kTrain, 5);
  Tensor row1({3, 16, 16});
  row1.copy_(images.flat_view(3 * 16 * 16, 3 * 16 * 16));
  EXPECT_TRUE(row1.allclose(s5.image, 0.f, 0.f));
  EXPECT_EQ(labels[1], s5.label);
}

TEST(DataLoader, EpochCoversEveryIndexOnce) {
  auto ds = data::ucm(16, {.divisor = 5});  // 210 train samples
  DataLoader::Options opts;
  opts.batch_size = 32;
  opts.n_workers = 3;
  opts.drop_last = false;
  opts.seed = 11;
  DataLoader loader(ds, Split::kTrain, opts);
  loader.start_epoch(0);
  std::set<i64> seen;
  i64 batches = 0;
  while (auto b = loader.next()) {
    for (i64 i : b->sample_indices) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
    ++batches;
  }
  EXPECT_EQ(static_cast<i64>(seen.size()), ds.size(Split::kTrain));
  EXPECT_EQ(batches, loader.batches_per_epoch());
}

TEST(DataLoader, DropLastTruncates) {
  auto ds = data::ucm(16, {.divisor = 5});  // 210 train samples
  DataLoader::Options opts;
  opts.batch_size = 100;
  opts.n_workers = 0;
  opts.drop_last = true;
  DataLoader loader(ds, Split::kTrain, opts);
  EXPECT_EQ(loader.batches_per_epoch(), 2);
  loader.start_epoch(0);
  i64 total = 0;
  while (auto b = loader.next()) total += b->images.dim(0);
  EXPECT_EQ(total, 200);
}

TEST(DataLoader, DeterministicAcrossInstancesAndWorkerCounts) {
  auto ds = data::aid(16, {.divisor = 20});
  auto collect = [&](int workers) {
    DataLoader::Options opts;
    opts.batch_size = 16;
    opts.n_workers = workers;
    opts.seed = 99;
    DataLoader loader(ds, Split::kTrain, opts);
    loader.start_epoch(3);
    std::vector<i64> order;
    while (auto b = loader.next()) {
      for (i64 i : b->sample_indices) order.push_back(i);
    }
    return order;
  };
  const auto with_workers = collect(4);
  const auto without = collect(0);
  EXPECT_EQ(with_workers, without);
  EXPECT_FALSE(with_workers.empty());
}

TEST(DataLoader, ShuffleVariesByEpochButNotBySeedReplay) {
  auto ds = data::aid(16, {.divisor = 20});
  DataLoader::Options opts;
  opts.batch_size = 16;
  opts.n_workers = 2;
  opts.seed = 5;
  DataLoader loader(ds, Split::kTrain, opts);

  auto epoch_order = [&](i64 epoch) {
    loader.start_epoch(epoch);
    std::vector<i64> order;
    while (auto b = loader.next()) {
      for (i64 i : b->sample_indices) order.push_back(i);
    }
    return order;
  };
  const auto e0 = epoch_order(0);
  const auto e1 = epoch_order(1);
  const auto e0_again = epoch_order(0);
  EXPECT_NE(e0, e1);
  EXPECT_EQ(e0, e0_again);
}

TEST(DataLoader, BatchImagesMatchDataset) {
  auto ds = data::ucm(16, {.divisor = 10});
  DataLoader::Options opts;
  opts.batch_size = 8;
  opts.n_workers = 2;
  opts.shuffle = false;
  DataLoader loader(ds, Split::kTest, opts);
  loader.start_epoch(0);
  auto b = loader.next();
  ASSERT_TRUE(b.has_value());
  data::Sample s0 = ds.get(Split::kTest, 0);
  Tensor first({3, 16, 16});
  first.copy_(b->images.flat_view(0, 3 * 16 * 16));
  EXPECT_TRUE(first.allclose(s0.image, 0.f, 0.f));
  EXPECT_EQ(b->labels[0], s0.label);
}

// ----- worker-side batch slicing (distributed input pipeline) ----------------

double samples_rendered_total() {
  for (const auto& s : obs::MetricsRegistry::instance().snapshot()) {
    if (s.name == "loader.samples_rendered") return s.value;
  }
  return 0;
}

TEST(DataLoader, SliceMatchesSameRowsOfFullBatch) {
  auto ds = data::million_aid_pretrain(48, 16);
  DataLoader::Options opts;
  opts.batch_size = 12;
  opts.n_workers = 2;
  opts.shuffle = true;
  opts.seed = 21;
  auto sliced_opts = opts;
  sliced_opts.slice_offset = 4;  // rank 1 of 3
  sliced_opts.slice_count = 4;
  DataLoader full(ds, Split::kTrain, opts);
  DataLoader sliced(ds, Split::kTrain, sliced_opts);
  full.start_epoch(1);
  sliced.start_epoch(1);

  i64 batches = 0;
  while (auto fb = full.next()) {
    auto sb = sliced.next();
    ASSERT_TRUE(sb.has_value());
    ASSERT_EQ(sb->images.dim(0), 4);
    ASSERT_EQ(std::vector<i64>(fb->sample_indices.begin() + 4,
                               fb->sample_indices.begin() + 8),
              sb->sample_indices);
    // Bitwise: slicing must not perturb the rendered pixels (per-sample
    // rendering and per-sample-keyed augmentation).
    const i64 per = fb->images.numel() / fb->images.dim(0);
    i64 mismatches = 0;
    for (i64 i = 0; i < 4 * per; ++i) {
      if (sb->images[i] != fb->images[4 * per + i]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    ++batches;
  }
  EXPECT_FALSE(sliced.next().has_value());
  EXPECT_GT(batches, 0);
}

TEST(DataLoader, SliceCutsRenderWorkByWorldSize) {
  auto ds = data::million_aid_pretrain(48, 16);
  DataLoader::Options opts;
  opts.batch_size = 12;
  opts.n_workers = 0;  // render in next(): exact metric accounting
  opts.shuffle = true;
  opts.seed = 3;
  opts.slice_offset = 8;
  opts.slice_count = 4;
  DataLoader loader(ds, Split::kTrain, opts);
  const double before = samples_rendered_total();
  loader.start_epoch(0);
  i64 batches = 0;
  i64 rows = 0;
  while (auto b = loader.next()) {
    rows += b->images.dim(0);
    ++batches;
  }
  ASSERT_GT(batches, 0);
  EXPECT_EQ(rows, 4 * batches);
  // Only the slice was rendered — a third of each global batch's work.
  EXPECT_EQ(samples_rendered_total() - before, static_cast<double>(rows));
}

TEST(DataLoader, StartEpochFastForwardReplaysExactBatches) {
  auto ds = data::million_aid_pretrain(48, 16);
  DataLoader::Options opts;
  opts.batch_size = 8;
  opts.n_workers = 0;
  opts.shuffle = true;
  opts.seed = 13;
  DataLoader a(ds, Split::kTrain, opts);
  a.start_epoch(2);
  a.next();
  a.next();
  auto want = a.next();  // batch 2 of epoch 2
  ASSERT_TRUE(want.has_value());

  // The resume path: jump straight to batch 2 without rendering 0 and 1.
  const double before = samples_rendered_total();
  DataLoader b(ds, Split::kTrain, opts);
  b.start_epoch(2, /*first_batch=*/2);
  auto got = b.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(samples_rendered_total() - before,
            static_cast<double>(got->images.dim(0)));
  ASSERT_EQ(got->sample_indices, want->sample_indices);
  i64 mismatches = 0;
  for (i64 i = 0; i < got->images.numel(); ++i) {
    if (got->images[i] != want->images[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

// ----- prefetch across the epoch boundary -------------------------------------

double counter(const std::string& name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

DataLoader::Options boundary_opts(int workers) {
  DataLoader::Options opts;
  opts.batch_size = 8;  // 48 images: 6 batches per epoch
  opts.n_workers = workers;
  opts.seed = 17;
  opts.enable_augment = true;  // the augment draw is keyed by epoch too
  return opts;
}

std::vector<data::Batch> drain(DataLoader& loader) {
  std::vector<data::Batch> out;
  while (auto b = loader.next()) out.push_back(std::move(*b));
  return out;
}

// Batches [first_batch, end) of `epoch` from a loader that never ran
// another epoch.
std::vector<data::Batch> fresh_epoch(const SceneDataset& ds, i64 epoch,
                                     i64 first_batch = 0) {
  DataLoader loader(ds, Split::kTrain, boundary_opts(0));
  loader.start_epoch(epoch, first_batch);
  return drain(loader);
}

void expect_same_batches(const std::vector<data::Batch>& got,
                         const std::vector<data::Batch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < got.size(); ++b) {
    EXPECT_EQ(got[b].index, want[b].index);
    ASSERT_EQ(got[b].sample_indices, want[b].sample_indices) << "batch " << b;
    ASSERT_EQ(got[b].images.numel(), want[b].images.numel());
    EXPECT_EQ(std::memcmp(got[b].images.data(), want[b].images.data(),
                          sizeof(float) * static_cast<size_t>(
                                              got[b].images.numel())),
              0)
        << "batch " << b;
  }
}

// Polls `loader.batches_rendered` until it reaches `target` (10 s cap).
double await_rendered(double target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter("loader.batches_rendered") < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return counter("loader.batches_rendered");
}

TEST(DataLoaderEpochBoundary, EpochsMatchFreshLoadersBitwise) {
  auto ds = data::million_aid_pretrain(48, 16);
  for (int workers : {1, 2}) {
    DataLoader loader(ds, Split::kTrain, boundary_opts(workers));
    for (i64 epoch = 0; epoch < 3; ++epoch) {
      loader.start_epoch(epoch);
      expect_same_batches(drain(loader), fresh_epoch(ds, epoch));
    }
  }
}

TEST(DataLoaderEpochBoundary, NextEpochHeadRendersBeforeItStarts) {
  auto ds = data::million_aid_pretrain(48, 16);
  DataLoader loader(ds, Split::kTrain, boundary_opts(1));
  const i64 n = loader.batches_per_epoch();
  ASSERT_EQ(n, 6);
  const auto want = fresh_epoch(ds, 1);  // before counting renders
  const double rendered0 = counter("loader.batches_rendered");
  const double discarded0 = counter("loader.discarded_renders");
  loader.start_epoch(0);
  ASSERT_EQ(static_cast<i64>(drain(loader).size()), n);
  // Epoch 0 is fully claimed, so the worker fills the prefetch window (4
  // batches) with the head of epoch 1 before anyone starts it.
  EXPECT_EQ(await_rendered(rendered0 + n + 4), rendered0 + n + 4);
  loader.start_epoch(1);
  expect_same_batches(drain(loader), want);
  // The head was adopted, not rendered again: epoch 1 cost n renders in
  // all, and the window now holds the head of epoch 2 and stays full.
  EXPECT_EQ(await_rendered(rendered0 + 2 * n + 4), rendered0 + 2 * n + 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(counter("loader.batches_rendered"), rendered0 + 2 * n + 4);
  EXPECT_EQ(counter("loader.discarded_renders"), discarded0);
}

TEST(DataLoaderEpochBoundary, ResumeOrSkipDiscardsTheRenderedHead) {
  auto ds = data::million_aid_pretrain(48, 16);
  struct Case {
    i64 epoch, first_batch, discarded;
  };
  // Resume at batch 3 of epoch 1 keeps the rendered batch 3 and discards
  // batches 0-2; skipping to epoch 2 discards the whole head.
  for (const Case c : {Case{1, 3, 3}, Case{2, 0, 4}}) {
    DataLoader loader(ds, Split::kTrain, boundary_opts(1));
    const i64 n = loader.batches_per_epoch();
    const double rendered0 = counter("loader.batches_rendered");
    loader.start_epoch(0);
    ASSERT_EQ(static_cast<i64>(drain(loader).size()), n);
    ASSERT_EQ(await_rendered(rendered0 + n + 4), rendered0 + n + 4);
    const double discarded0 = counter("loader.discarded_renders");
    loader.start_epoch(c.epoch, c.first_batch);
    EXPECT_EQ(counter("loader.discarded_renders") - discarded0, c.discarded)
        << "epoch " << c.epoch << ", first batch " << c.first_batch;
    expect_same_batches(drain(loader),
                        fresh_epoch(ds, c.epoch, c.first_batch));
  }
}

}  // namespace
}  // namespace geofm

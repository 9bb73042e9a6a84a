// Tests for util/: RNG determinism, thread pool, table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "obs/trace.hpp"
#include "parallel/fsdp.hpp"
#include "train/distributed.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace geofm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng root(7);
  Rng a1 = root.split(0), a2 = root.split(0), b = root.split(1);
  EXPECT_EQ(a1.next_u64(), a2.next_u64());
  Rng c1 = root.split(0);
  EXPECT_NE(c1.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(5);
  std::set<i64> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, HashNameDistinct) {
  EXPECT_NE(hash_name("weights"), hash_name("bias"));
  EXPECT_EQ(hash_name("x"), hash_name("x"));
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(10000, [&](i64 b, i64 e) {
    for (i64 i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  i64 total = 0;
  pool.parallel_for(100, [&](i64 b, i64 e) { total += e - b; });
  EXPECT_EQ(total, 100);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](i64, i64) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(10000,
                        [&](i64 b, i64) {
                          if (b == 0) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, ConcurrentCallersDegradeGracefully) {
  // Two threads hammer the global pool simultaneously; each call must
  // still cover its range exactly.
  std::atomic<i64> total{0};
  auto work = [&] {
    for (int rep = 0; rep < 20; ++rep) {
      parallel_for(5000, [&](i64 b, i64 e) { total += e - b; });
    }
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 2 * 20 * 5000);
}

TEST(ThreadPool, GrainAtLeastRangeTakesSingleChunkBypass) {
  // grain >= n must run inline on the caller thread as one chunk, even
  // when workers are available (no dispatch lock, no fan-out).
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  i64 got_b = -1, got_e = -1;
  std::thread::id ran_on;
  pool.parallel_for(
      1000,
      [&](i64 b, i64 e) {
        ++calls;
        got_b = b;
        got_e = e;
        ran_on = std::this_thread::get_id();
      },
      /*grain=*/1000);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_e, 1000);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, GrainBoundsChunkSizeFromBelow) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<i64, i64>> chunks;
  pool.parallel_for(
      10000,
      [&](i64 b, i64 e) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(b, e);
      },
      /*grain=*/2500);
  // Exact coverage, and no chunk smaller than the grain except the tail.
  std::sort(chunks.begin(), chunks.end());
  i64 covered = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, covered);
    covered = chunks[i].second;
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].second - chunks[i].first, 2500);
    }
  }
  EXPECT_EQ(covered, 10000);
  EXPECT_LE(chunks.size(), 4u);
}

TEST(ThreadPool, GrainZeroKeepsLegacySmallRangeInline) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(511, [&](i64, i64) { ++calls; }, /*grain=*/0);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, GrainRejectsNegative) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(10, [&](i64, i64) {}, /*grain=*/-1), Error);
}

// ----- compute shares: rank threads own disjoint slices of the cores --------

TEST(ComputeShare, ShareTableOverWorldAndHardware) {
  struct Case {
    int world, hw, share;
  };
  const Case cases[] = {
      {1, 4, 4},  {2, 4, 2},  {3, 4, 1},   {4, 4, 1},  {8, 4, 1},
      {1, 1, 1},  {2, 1, 1},  {4, 1, 1},   {2, 8, 4},  {3, 8, 2},
      {5, 16, 3}, {16, 16, 1}, {1, 16, 16}, {64, 16, 1}};
  for (const Case& c : cases) {
    EXPECT_EQ(compute_share(c.world, c.hw), c.share)
        << "world " << c.world << ", hw " << c.hw;
  }
  EXPECT_THROW(compute_share(0, 4), Error);
  EXPECT_THROW(compute_share(2, 0), Error);
}

TEST(ComputeShare, LoaderWorkersLeaveTheShare) {
  struct Case {
    int world, hw, workers, share;
  };
  const Case cases[] = {
      {1, 4, 0, 4},  {1, 4, 1, 3},  {1, 4, 2, 2}, {1, 4, 3, 1},
      {1, 4, 4, 1},  {1, 4, 9, 1},  {1, 1, 1, 1}, {1, 16, 4, 12},
      {2, 4, 1, 1},  {2, 8, 1, 3},  {2, 8, 4, 1}, {3, 8, 1, 1},
      {4, 4, 1, 1},  {2, 16, 2, 6}};
  for (const Case& c : cases) {
    EXPECT_EQ(compute_share(c.world, c.hw, c.workers), c.share)
        << "world " << c.world << ", hw " << c.hw << ", workers "
        << c.workers;
  }
  // No loader workers: the world-only table, unchanged.
  for (int world : {2, 3, 4, 8}) {
    for (int hw : {1, 4, 8, 16}) {
      EXPECT_EQ(compute_share(world, hw, 0), compute_share(world, hw));
      EXPECT_EQ(compute_share(world, hw, 0), std::max(1, hw / world));
    }
  }
  EXPECT_THROW(compute_share(1, 4, -1), Error);
}

TEST(ComputeShare, NestedShareOfTheSameSizeKeepsTheEnclosingPool) {
  const int hw = ThreadPool::hardware_participants();
  if (hw < 4) GTEST_SKIP() << "needs a share of 2 below the hardware budget";
  // world = hw / 2 gives a share of 2: a private pool of one worker.
  const ComputeShare outer(hw / 2);
  ASSERT_EQ(outer.threads(), 2);
  ThreadPool* const pool = &ThreadPool::current();
  EXPECT_EQ(pool->n_workers(), 1);
  {
    const ComputeShare inner(hw / 2);
    EXPECT_EQ(&ThreadPool::current(), pool);
  }
  {
    const ComputeShare inner(hw / 2, /*loader_workers=*/1);
    EXPECT_EQ(inner.threads(), 1);
    EXPECT_EQ(ThreadPool::current().n_workers(), 0);
  }
  EXPECT_EQ(&ThreadPool::current(), pool);
  EXPECT_EQ(outer.threads(), 1);  // the fewest its regions ran with
}

TEST(ComputeShare, WorldOneLoaderWorkerRunsStepsOnTheRest) {
  // A world-1 step loop with one loader worker runs its kernels on
  // hw - 1 participants, and the rank.run span says so.
  const int hw = ThreadPool::hardware_participants();
  const int want = compute_share(1, hw, 1);
  ASSERT_EQ(want, std::max(1, hw - 1));
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 1, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  const auto corpus = data::million_aid_pretrain(32, 16);
  train::DistributedPretrainConfig cfg;
  cfg.steps = 3;
  cfg.global_batch = 8;
  cfg.seed = 5;
  cfg.loader_workers = 1;
  auto participants = std::make_shared<std::vector<int>>();
  comm::FaultPlan plan;
  plan.events.push_back(comm::FaultEvent::callback_every_step(
      [participants](comm::Communicator&, i64) {
        participants->push_back(ThreadPool::current().n_workers() + 1);
      }));
  cfg.fault_injector = std::make_shared<comm::FaultInjector>(plan);

  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  recorder.clear();
  comm::run_ranks(1, [&](comm::Communicator& c) {
    Rng rng(1);
    models::MAE mae(models::mae_for(enc), rng);
    parallel::Fsdp fsdp(mae, c, {});
    train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
  });
  int spans = 0;
  for (const auto& e : recorder.snapshot()) {
    if (e.name == nullptr || std::string(e.name) != "rank.run") continue;
    ++spans;
    EXPECT_EQ(e.arg2, want);
  }
  recorder.disable();
  EXPECT_EQ(spans, 1);
  ASSERT_EQ(participants->size(), 3u);
  for (int p : *participants) EXPECT_EQ(p, want);
}

// Thread ids seen by one parallel region. With `want_threads` > 1 the
// first chunk of each thread waits (up to 10 s) until that many distinct
// threads have joined, so a pool that can fan out provably does.
std::set<std::thread::id> region_threads(int want_threads) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  parallel_for(
      1 << 16,
      [&](i64, i64) {
        {
          std::lock_guard<std::mutex> lk(mu);
          seen.insert(std::this_thread::get_id());
        }
        while (std::chrono::steady_clock::now() < deadline) {
          {
            std::lock_guard<std::mutex> lk(mu);
            if (static_cast<int>(seen.size()) >= want_threads) break;
          }
          std::this_thread::yield();
        }
      },
      /*grain=*/1);
  return seen;
}

TEST(ComputeShare, FullWorldRunsEveryRegionOnTheRankThread) {
  // A world that fills the cores (run_ranks(4) on a 4-thread budget)
  // gives every rank a share of 1: regions run inline, and no pool
  // thread exists for the rank.
  const int world = std::max(4, ThreadPool::hardware_participants());
  ASSERT_EQ(compute_share(world, ThreadPool::hardware_participants()), 1);
  std::atomic<int> off_thread{0};
  comm::run_ranks(world, [&](comm::Communicator&) {
    EXPECT_EQ(ThreadPool::current().n_workers(), 0);
    for (int rep = 0; rep < 8; ++rep) {
      const auto seen = region_threads(1);
      if (seen != std::set<std::thread::id>{std::this_thread::get_id()}) {
        ++off_thread;
      }
    }
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ComputeShare, TwoRanksGetDisjointPrivateShares) {
  const int share = compute_share(2, ThreadPool::hardware_participants());
  std::mutex mu;
  std::vector<std::set<std::thread::id>> per_rank(2);
  comm::run_ranks(2, [&](comm::Communicator& c) {
    EXPECT_EQ(ThreadPool::current().n_workers(), share - 1);
    EXPECT_NE(&ThreadPool::current(), &ThreadPool::global());
    std::set<std::thread::id> mine;
    for (int rep = 0; rep < 4; ++rep) {
      const auto seen = region_threads(share);
      mine.insert(seen.begin(), seen.end());
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      per_rank[static_cast<size_t>(c.rank())] = mine;
    }
    // Both private pools stay alive until both ranks have recorded: a
    // pool joined early frees its workers' thread ids for reuse by the
    // other rank's pool, which would read as a shared thread.
    c.barrier();
  });
  for (const auto& threads : per_rank) {
    EXPECT_LE(static_cast<int>(threads.size()), share);
    EXPECT_GE(threads.size(), 1u);
  }
  for (const auto& id : per_rank[0]) {
    EXPECT_EQ(per_rank[1].count(id), 0u) << "a thread served both ranks";
  }
}

TEST(ComputeShare, WorldOneFansOutToTheGlobalPool) {
  if (ThreadPool::global().n_workers() == 0) {
    GTEST_SKIP() << "single-thread budget: the global pool has no workers";
  }
  comm::run_ranks(1, [&](comm::Communicator&) {
    EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
    EXPECT_GE(region_threads(2).size(), 2u);
  });
}

TEST(ComputeShare, ScopeRestoresThePreviousPoolAndNestedRegionsRunInline) {
  {
    const ComputeShare share(1 << 20);  // any world past the core count
    EXPECT_EQ(share.threads(), 1);
    EXPECT_EQ(ThreadPool::current().n_workers(), 0);
  }
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
  // A region nested inside a chunk runs on that chunk's thread.
  std::atomic<int> nested_off_thread{0};
  parallel_for(
      4096,
      [&](i64, i64) {
        const auto outer = std::this_thread::get_id();
        parallel_for(
            4096,
            [&](i64, i64) {
              if (std::this_thread::get_id() != outer) ++nested_off_thread;
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(nested_off_thread.load(), 0);
}

TEST(ComputeShare, RankSpanRecordsTheShare) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  recorder.clear();
  comm::run_ranks(2, [](comm::Communicator&) {});
  int spans = 0;
  for (const auto& e : recorder.snapshot()) {
    if (e.name == nullptr || std::string(e.name) != "rank.run") continue;
    ++spans;
    ASSERT_NE(e.arg2_name, nullptr);
    EXPECT_EQ(std::string(e.arg2_name), "threads");
    EXPECT_EQ(e.arg2, compute_share(2, ThreadPool::hardware_participants()));
  }
  recorder.disable();
  EXPECT_EQ(spans, 2);
}

// ----- pool stress: wakeups are never lost, tasks never outlive regions ---

// Regions separated by gaps below, around and above the spin bound, so
// both the spinning and the parked wake and join paths run.
TEST(ThreadPoolStress, BackToBackTinyRegionsWithGaps) {
  ThreadPool pool(3);
  Rng rng(17);
  for (int rep = 0; rep < 3000; ++rep) {
    const i64 n = 2 + rng.uniform_int(6);
    std::vector<int> hits(static_cast<size_t>(n), 0);
    pool.parallel_for(
        n,
        [&](i64 b, i64 e) {
          for (i64 i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
        },
        /*grain=*/1);
    for (int h : hits) ASSERT_EQ(h, 1) << "rep " << rep;
    if (rep % 97 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    } else if (rep % 13 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(60));
    }
  }
}

TEST(ThreadPoolStress, ChunksOfRandomLength) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 200; ++rep) {
    const i64 n = 64;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    pool.parallel_for(
        n,
        [&](i64 b, i64 e) {
          for (i64 i = b; i < e; ++i) {
            // Busy for 0-40 µs, picked per index and repetition.
            const auto until =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds((i * 7919 + rep * 104729) % 41);
            while (std::chrono::steady_clock::now() < until) {
            }
            hits[static_cast<size_t>(i)].fetch_add(1);
          }
        },
        /*grain=*/1);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "rep " << rep;
  }
}

TEST(ThreadPoolStress, NestedRegionsAndErrorsLeaveThePoolUsable) {
  ThreadPool pool(3);
  const ScopedPool scope(pool);
  for (int rep = 0; rep < 300; ++rep) {
    std::atomic<i64> total{0};
    parallel_for(
        8,
        [&](i64 b, i64 e) {
          for (i64 i = b; i < e; ++i) {
            parallel_for(
                16, [&](i64 b2, i64 e2) { total.fetch_add(e2 - b2); },
                /*grain=*/1);
          }
        },
        /*grain=*/1);
    ASSERT_EQ(total.load(), 8 * 16);
    if (rep % 50 == 0) {
      EXPECT_THROW(parallel_for(
                       8,
                       [&](i64 b, i64) {
                         if (b == 5) throw std::runtime_error("chunk 5");
                       },
                       /*grain=*/1),
                   std::runtime_error);
    }
  }
}

TEST(ThreadPoolStress, PoolDestroyedRightAfterARegion) {
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<i64> total{0};
    {
      ThreadPool pool(1 + rep % 3);
      pool.parallel_for(
          4, [&](i64 b, i64 e) { total.fetch_add(e - b); }, /*grain=*/1);
      if (rep % 2 == 1) {
        // Let the workers park before the pool goes.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    ASSERT_EQ(total.load(), 4);
  }
}

TEST(Check, ThrowsGeofmError) {
  EXPECT_THROW(GEOFM_CHECK(false, "context " << 42), Error);
  EXPECT_NO_THROW(GEOFM_CHECK(true));
}

TEST(Table, FormatsAndCounts) {
  TextTable t({"model", "ips"});
  t.add_row({"ViT-3B", fmt_f(123.456, 1)});
  EXPECT_EQ(t.n_rows(), 1u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("ViT-3B"), std::string::npos);
  EXPECT_NE(s.find("123.5"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, CsvEscaping) {
  TextTable t({"name", "v"});
  t.add_row({"a,b", "x\"y"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"x\"\"y\""), std::string::npos);
}

TEST(Fmt, Bytes) {
  EXPECT_EQ(fmt_bytes(512.0), "512.0 B");
  EXPECT_EQ(fmt_bytes(2048.0), "2.0 KB");
  EXPECT_EQ(fmt_bytes(3.5 * 1024.0 * 1024.0 * 1024.0), "3.5 GB");
}

}  // namespace
}  // namespace geofm

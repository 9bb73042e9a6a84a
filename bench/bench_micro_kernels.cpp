// Interleaved scalar-vs-SIMD A/B microbenchmark of the kernel engine
// (tensor/kernels/): GEMM variants, layernorm and softmax forward +
// backward, the fused attention core and GELU at the proxy model's
// shapes, and the AdamW update. A second table times the SIMD GEMM at
// every shape a proxy_3b step runs on one participant against the
// global pool, and the cost of an empty parallel region.
//
// Methodology: for each case the two modes alternate round-robin
// (scalar, simd, scalar, simd, ...) so frequency drift, cache state, and
// background load hit both sides equally; each round times `reps`
// back-to-back calls after one warmup call, and the reported number is
// the best round per mode. Speedup = best scalar / best simd (second
// table: best one-participant / best hw-participant). Results go to
// stdout as tables and to <cache>/BENCH_kernels.json.
//
// GEOFM_BENCH_QUICK=1 shrinks sizes and rounds for smoke runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/table.hpp"
#include "util/thread_context.hpp"
#include "util/thread_pool.hpp"

using namespace geofm;

namespace {

struct CaseResult {
  std::string name;
  std::string shape;
  i64 flops = 0;  // per call; 0 = bandwidth-bound, no GFLOP/s column
  double scalar_s = 0;
  double simd_s = 0;

  double speedup() const { return scalar_s / simd_s; }
};

int rounds() { return bench::quick_mode() ? 2 : 5; }

// Best-of-rounds seconds per call of `fn` on two sides (0 and 1),
// interleaved within every round; `on_side(side, timed)` runs `timed`
// under that side's setting.
std::pair<double, double> interleaved(
    int reps, const std::function<void()>& fn,
    const std::function<void(int, const std::function<void()>&)>& on_side) {
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  const int n_rounds = rounds();
  for (int round = 0; round < n_rounds; ++round) {
    for (int turn = 0; turn < 2; ++turn) {
      // Alternate which side leads each round.
      const int side = (round + turn) % 2;
      on_side(side, [&] {
        fn();  // warmup: page in, populate caches under this side
        const u64 t0 = monotonic_ns();
        for (int i = 0; i < reps; ++i) fn();
        best[side] = std::min(
            best[side], static_cast<double>(monotonic_ns() - t0) * 1e-9 / reps);
      });
    }
  }
  return {best[0], best[1]};
}

// Scalar (side 0) against SIMD (side 1).
CaseResult ab_run(const std::string& name, const std::string& shape,
                  i64 flops, int reps, const std::function<void()>& fn) {
  const auto [scalar_s, simd_s] =
      interleaved(reps, fn, [](int side, const std::function<void()>& timed) {
        kernels::ModeGuard guard(side == 0 ? kernels::Mode::kScalar
                                           : kernels::Mode::kSimd);
        timed();
      });
  return {name, shape, flops, scalar_s, simd_s};
}

// One participant (side 0) against the global pool's hw participants
// (side 1), both in the default kernel mode.
std::pair<double, double> participants_run(int reps,
                                           const std::function<void()>& fn) {
  ThreadPool one(0);
  return interleaved(reps, fn,
                     [&](int side, const std::function<void()>& timed) {
                       const ScopedPool scope(side == 0 ? one
                                                        : ThreadPool::global());
                       timed();
                     });
}

// A GEMM of one proxy_3b step at batch 64: the logical (m, k, n) and the
// layout of its call (NT forward, NN input gradient, TN weight gradient).
struct StepGemm {
  const char* layout;
  i64 m, k, n;
};

// The non-tiny GEMMs of a proxy_3b MAE step at batch 64 (encoder rows
// 320, patch-embed rows 1024, decoder rows 1088): 30 call kinds over 24
// distinct (m, k, n).
const StepGemm kStepGemms[] = {
    {"nt", 1024, 192, 32}, {"nn", 1024, 32, 192}, {"nt", 1088, 128, 32},
    {"nn", 1088, 128, 32}, {"nn", 1088, 192, 32}, {"nt", 1088, 32, 128},
    {"nn", 1088, 32, 128}, {"nt", 1088, 32, 192}, {"nt", 1088, 32, 32},
    {"nn", 1088, 32, 32},  {"nt", 1088, 32, 96},  {"nn", 1088, 96, 32},
    {"tn", 128, 1088, 32}, {"tn", 128, 320, 32},  {"tn", 192, 1088, 32},
    {"tn", 32, 1024, 192}, {"tn", 32, 1088, 128}, {"tn", 32, 1088, 32},
    {"tn", 32, 320, 128},  {"tn", 32, 320, 32},   {"nt", 320, 128, 32},
    {"nn", 320, 128, 32},  {"nt", 320, 32, 128},  {"nn", 320, 32, 128},
    {"nt", 320, 32, 32},   {"nn", 320, 32, 32},   {"nt", 320, 32, 96},
    {"nn", 320, 96, 32},   {"tn", 96, 1088, 32},  {"tn", 96, 320, 32}};

std::string dims(std::initializer_list<i64> d) {
  std::string s;
  for (i64 v : d) {
    if (!s.empty()) s += "x";
    s += std::to_string(v);
  }
  return s;
}

double gflops(const CaseResult& r, double seconds) {
  return static_cast<double>(r.flops) / seconds * 1e-9;
}

}  // namespace

int main() {
  bench::banner("micro-kernel A/B: scalar oracle vs SIMD engine",
                "kernel engine validation (DESIGN §5); not a paper figure");
  std::printf("simd lanes: %d, mode default: %s\n", kernels::simd_lanes(),
              kernels::mode_name(kernels::active_mode()));

  const bool quick = bench::quick_mode();
  const int reps = quick ? 1 : 3;
  std::vector<CaseResult> results;
  Rng rng(42);

  // --- GEMM: NN / NT / TN at growing cubes --------------------------------
  std::vector<i64> sizes = quick ? std::vector<i64>{128}
                                 : std::vector<i64>{128, 256, 320};
  for (i64 n : sizes) {
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    const i64 flops = 2 * n * n * n;
    results.push_back(ab_run("gemm_nn", dims({n, n, n}), flops, reps,
                             [&] { ops::matmul(a, b); }));
    results.push_back(ab_run("gemm_nt", dims({n, n, n}), flops, reps,
                             [&] { ops::matmul_nt(a, b); }));
    results.push_back(ab_run("gemm_tn", dims({n, n, n}), flops, reps,
                             [&] { ops::matmul_tn(a, b); }));
  }

  // --- layernorm fwd/bwd ---------------------------------------------------
  {
    const i64 rows = quick ? 256 : 1024, cols = 768;
    Tensor x = Tensor::randn({rows, cols}, rng);
    Tensor gamma = Tensor::ones({cols});
    Tensor beta = Tensor::zeros({cols});
    ops::LayerNormCache cache;
    Tensor y = ops::layernorm(x, gamma, beta, 1e-5f, cache);
    Tensor dy = Tensor::randn({rows, cols}, rng);
    Tensor dgamma = Tensor::zeros({cols});
    Tensor dbeta = Tensor::zeros({cols});
    results.push_back(ab_run("layernorm_fwd", dims({rows, cols}),
                             8 * rows * cols, reps,
                             [&] { ops::layernorm(x, gamma, beta, 1e-5f,
                                                  cache); }));
    results.push_back(ab_run("layernorm_bwd", dims({rows, cols}),
                             14 * rows * cols, reps, [&] {
                               dgamma.zero_();
                               dbeta.zero_();
                               ops::layernorm_backward(dy, x, gamma, cache,
                                                       dgamma, dbeta);
                             }));
  }

  // --- softmax fwd/bwd -----------------------------------------------------
  {
    // L2-resident working set (~1.5 MB): softmax is attention-score sized
    // in practice, and an L3/DRAM-spilling shape would measure memory
    // bandwidth instead of the kernel.
    const i64 rows = quick ? 128 : 256, cols = 512;
    const int sreps = reps * 8;
    Tensor x = Tensor::randn({rows, cols}, rng, 3.f);
    Tensor y = ops::softmax_lastdim(x);
    Tensor dy = Tensor::randn({rows, cols}, rng);
    results.push_back(ab_run("softmax_fwd", dims({rows, cols}),
                             5 * rows * cols, sreps,
                             [&] { ops::softmax_lastdim(x); }));
    results.push_back(ab_run("softmax_bwd", dims({rows, cols}),
                             4 * rows * cols, sreps, [&] {
                               ops::softmax_backward_lastdim(dy, y);
                             }));
  }

  // --- fused attention + GELU at proxy_3b's shapes ------------------------
  // B*H = 64*4 = 256 slices of head_dim 8: T = 5 is the encoder's visible
  // tokens (16 patches at 75% masking + cls), T = 17 the decoder's full
  // sequence. GELU runs on the MLP hidden of both: [64*5, 128] and
  // [64*17, 128]. Its backward is one multiply with one implementation,
  // so the gelu_bwd speedup column reads ~1.
  {
    const i64 batch = 64, heads = 4, hd = 8, c = heads * hd;
    const float scale = 1.f / std::sqrt(static_cast<float>(hd));
    for (i64 t : {i64{5}, i64{17}}) {
      const i64 slices = batch * heads, tt = t * t;
      Tensor qkv = Tensor::randn({batch, t, 3 * c}, rng);
      Tensor attn({slices, t, t});
      Tensor ctx({batch, t, c});
      Tensor dctx = Tensor::randn({batch, t, c}, rng);
      Tensor dqkv({batch, t, 3 * c});
      kernels::attention_fwd(batch, t, heads, hd, scale, qkv.data(),
                             attn.data(), ctx.data());
      const std::string shape = dims({slices, t, hd});
      results.push_back(ab_run(
          "attention_fwd", shape, slices * (4 * tt * hd + 6 * tt), reps * 8,
          [&] {
            kernels::attention_fwd(batch, t, heads, hd, scale, qkv.data(),
                                   attn.data(), ctx.data());
          }));
      results.push_back(ab_run(
          "attention_bwd", shape, slices * (8 * tt * hd + 5 * tt), reps * 8,
          [&] {
            kernels::attention_bwd(batch, t, heads, hd, scale, qkv.data(),
                                   attn.data(), dctx.data(), dqkv.data());
          }));
    }
    const i64 hidden = 128;
    for (i64 t : {i64{5}, i64{17}}) {
      const i64 rows = batch * t, n = rows * hidden;
      Tensor pre = Tensor::randn({rows, hidden}, rng);
      Tensor x({rows, hidden});
      Tensor y({rows, hidden});
      // gelu_fwd overwrites its input with the derivative: restore it per
      // call (a copy is a few % of the SIMD pass).
      results.push_back(ab_run("gelu_fwd", dims({rows, hidden}), 20 * n,
                               reps * 8, [&] {
                                 x.copy_(pre);
                                 kernels::gelu_fwd(n, x.data(), y.data());
                               }));
    }
    const i64 rows = batch * 17, n = rows * hidden;
    Tensor d = Tensor::randn({rows, hidden}, rng);
    Tensor dy = Tensor::randn({rows, hidden}, rng);
    Tensor dx({rows, hidden});
    results.push_back(ab_run("gelu_bwd", dims({rows, hidden}), n, reps * 8,
                             [&] {
                               kernels::gelu_bwd(n, dy.data(), d.data(),
                                                 dx.data());
                             }));
  }

  // --- AdamW update --------------------------------------------------------
  {
    const i64 n = quick ? (1 << 18) : (1 << 21);
    Tensor w = Tensor::randn({n}, rng);
    Tensor g = Tensor::randn({n}, rng);
    Tensor m = Tensor::zeros({n});
    Tensor v = Tensor::zeros({n});
    kernels::AdamWConfig cfg;
    cfg.lr = 1e-3;
    cfg.weight_decay = 0.05;
    cfg.bias_c1 = 0.1;
    cfg.bias_c2 = 0.001;
    results.push_back(ab_run("adamw", dims({n}), 12 * n, reps, [&] {
      kernels::adamw_update(n, w.data(), g.data(), m.data(), v.data(), cfg);
    }));
  }

  // --- GEMM at proxy_3b's step shapes: 1 against hw participants ---------
  // The per-kernel A/B of the intra-op split: the same SIMD GEMM on one
  // participant and on the global pool. Bits are equal on both sides
  // (KernelParity.GemmBitwiseAcrossParticipants*).
  TextTable scaling({"gemm", "m x k x n", "1_thread_gfs",
                    "hw_gfs", "speedup"});
  std::string scaling_json;
  const int hw = ThreadPool::hardware_participants();
  for (const StepGemm& g : kStepGemms) {
    const std::string layout = g.layout;
    // Operands stored as the step stores them: A [m, k] (TN: [k, m]),
    // B [k, n] (NT: [n, k]).
    Tensor a = layout == "tn" ? Tensor::randn({g.k, g.m}, rng)
                              : Tensor::randn({g.m, g.k}, rng);
    Tensor b = layout == "nt" ? Tensor::randn({g.n, g.k}, rng)
                              : Tensor::randn({g.k, g.n}, rng);
    const auto call = [&] {
      if (layout == "nn") ops::matmul(a, b);
      if (layout == "nt") ops::matmul_nt(a, b);
      if (layout == "tn") ops::matmul_tn(a, b);
    };
    const double flops = 2.0 * static_cast<double>(g.m * g.k * g.n);
    const auto [one_s, hw_s] = participants_run(reps * 8, call);
    const std::string shape = dims({g.m, g.k, g.n});
    scaling.add_row({layout, shape, fmt_f(flops / one_s * 1e-9, 2),
                    fmt_f(flops / hw_s * 1e-9, 2), fmt_f(one_s / hw_s, 2)});
    scaling_json += std::string(scaling_json.empty() ? "" : ",\n") +
                   "  {\"kernel\": \"gemm_" + layout + "_participants\", " +
                   "\"shape\": \"" + shape + "\", \"one_ms\": " +
                   fmt_f(one_s * 1e3, 4) + ", \"hw_ms\": " +
                   fmt_f(hw_s * 1e3, 4) + ", \"hw\": " + std::to_string(hw) +
                   ", \"flops\": " + fmt_f(flops, 0) + "}";
  }

  // --- empty-region fork-join -----------------------------------------------
  // One chunk per participant and no work: what a region costs on its own.
  const int fj_reps = quick ? 2000 : 20000;
  const auto [fj_one_s, fj_hw_s] = participants_run(fj_reps, [&] {
    parallel_for(hw, [](i64, i64) {}, /*grain=*/1);
  });
  std::printf("%s", scaling.to_string().c_str());
  std::printf("empty-region fork-join: %.2f us on %d participants "
              "(%.3f us inline)\n",
              fj_hw_s * 1e6, hw, fj_one_s * 1e6);
  scaling_json += ",\n  {\"kernel\": \"fork_join\", \"shape\": \"empty\", "
                 "\"one_ms\": " + fmt_f(fj_one_s * 1e3, 6) +
                 ", \"hw_ms\": " + fmt_f(fj_hw_s * 1e3, 6) +
                 ", \"hw\": " + std::to_string(hw) + "}";

  // --- report --------------------------------------------------------------
  TextTable table({"kernel", "shape", "scalar_ms", "simd_ms", "scalar_gfs",
                   "simd_gfs", "speedup"});
  std::string json = "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    table.add_row({r.name, r.shape, fmt_f(r.scalar_s * 1e3, 3),
                   fmt_f(r.simd_s * 1e3, 3),
                   r.flops > 0 ? fmt_f(gflops(r, r.scalar_s), 2) : "-",
                   r.flops > 0 ? fmt_f(gflops(r, r.simd_s), 2) : "-",
                   fmt_f(r.speedup(), 2)});
    json += "  {\"kernel\": \"" + r.name + "\", \"shape\": \"" + r.shape +
            "\", \"scalar_ms\": " + fmt_f(r.scalar_s * 1e3, 4) +
            ", \"simd_ms\": " + fmt_f(r.simd_s * 1e3, 4) +
            ", \"flops\": " + std::to_string(r.flops) +
            ", \"speedup\": " + fmt_f(r.speedup(), 3) + "}";
    json += ",\n";
  }
  json += scaling_json + "\n]\n";
  std::printf("%s", table.to_string().c_str());
  bench::save_csv(table, "BENCH_kernels");
  const std::string json_path = bench::cache_dir() + "/BENCH_kernels.json";
  write_file(json_path, json);
  std::printf("[saved %s]\n", json_path.c_str());
  return 0;
}

// Interleaved scalar-vs-SIMD A/B microbenchmark of the kernel engine
// (tensor/kernels/): GEMM variants, layernorm and softmax forward +
// backward, the fused attention core and GELU at the proxy model's
// shapes, and the AdamW update.
//
// Methodology: for each case the two modes alternate round-robin
// (scalar, simd, scalar, simd, ...) so frequency drift, cache state, and
// background load hit both sides equally; each round times `reps`
// back-to-back calls after one warmup call, and the reported number is
// the best round per mode. Speedup = best scalar / best simd. Results go
// to stdout as a table and to <cache>/BENCH_kernels.json.
//
// GEOFM_BENCH_QUICK=1 shrinks sizes and rounds for smoke runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/table.hpp"
#include "util/thread_context.hpp"

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

// Best-of-rounds, modes interleaved within every round.
CaseResult ab_run(const std::string& name, const std::string& shape,
                  i64 flops, int reps, const std::function<void()>& fn) {
  CaseResult res{name, shape, flops,
                 std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::infinity()};
  const int n_rounds = rounds();
  for (int round = 0; round < n_rounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      // Alternate which mode leads each round.
      const bool scalar_now = ((round + side) % 2) == 0;
      kernels::ModeGuard guard(scalar_now ? kernels::Mode::kScalar
                                          : kernels::Mode::kSimd);
      fn();  // warmup: page in, populate caches under this mode
      const u64 t0 = monotonic_ns();
      for (int i = 0; i < reps; ++i) fn();
      const double per_call =
          static_cast<double>(monotonic_ns() - t0) * 1e-9 / reps;
      double& best = scalar_now ? res.scalar_s : res.simd_s;
      best = std::min(best, per_call);
    }
  }
  return res;
}

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
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "]\n";
  std::printf("%s", table.to_string().c_str());
  bench::save_csv(table, "BENCH_kernels");
  const std::string json_path = bench::cache_dir() + "/BENCH_kernels.json";
  write_file(json_path, json);
  std::printf("[saved %s]\n", json_path.c_str());
  return 0;
}

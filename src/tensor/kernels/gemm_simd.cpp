// SIMD GEMM: register-tiled, cache-blocked, packed-panel — the classic
// GotoBLAS/BLIS decomposition scaled down to this repo's needs.
//
//   one parallel region over tm x tn tiles of C (whole MR rows, NR cols)
//     per tile [m0,m1) x [n0,n1):
//       for jc over the tile's N in NC panels  (Bp panel lives in L2)
//         for pc over K in KC panels, ascending
//           pack B[pc:pc+KC, jc:jc+NC] -> Bp   (NR-wide slivers, zero-padded)
//           for ic over the tile's M in MC blocks
//             pack A[ic:ic+MC, pc:pc+KC] -> Ap (MR-tall slivers)
//             for each NR sliver of Bp         (sliver stays in L1)
//               for each MR sliver of Ap
//                 microkernel: MR x NR register tile of C += Ap * Bp
//
// The grid (plan_grid) has at most two tiles per participant of the
// calling thread's pool, each of at least kMinJobFlops, and is the one
// with the least estimated makespan, repacking included: a tall
// activation GEMM (m = 1088, n = 32) splits over M, a small-M
// weight-gradient GEMM (m = 32, k = 1088, n = 128) over M and N. One tile, or a thread with
// no pool to share (share 1, or a region nested in another), runs the
// whole slice as one tile on the caller: the serial loop.
//
// The microkernel holds an MR x (2 vectors) accumulator block in
// registers and broadcasts A; edge tiles route through a small stack
// buffer so the hot path never masks. Strides on A and B are arbitrary
// (packing is where strided/transposed inputs get linearized), so one
// core serves NN/NT/TN and padded sub-views. Every tile adds the KC
// panels into C in ascending order, so each output element is the same
// sum in the same order whatever the grid: results are deterministic and
// bitwise independent of the participant count. The pack buffers are
// thread-local and sized to the largest panel the thread has packed.
//
// This TU is compiled with -march=native (when available) so the vector
// type in simd.hpp maps to the widest ISA on the build machine; tiny
// problems are routed to the scalar oracle by the dispatcher before
// getting here (packing would dominate).
#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/simd.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels::detail {
namespace {

using simd::kLanes;
using simd::vf;

constexpr i64 MR = 6;             // microkernel rows
constexpr i64 NR = 2 * kLanes;    // microkernel cols (2 vector registers)
constexpr i64 KC = 192;           // k panel: Bp sliver = KC*NR floats in L1
constexpr i64 MC = 96;            // m block: Ap block = MC*KC floats in L2
constexpr i64 NC = 2048;          // n panel: Bp panel = KC*NC floats in L2

// Most tiles per participant of one GEMM region. plan_grid takes a
// second round of tiles only where it shortens the estimated makespan.
constexpr i64 kJobsPerParticipant = 2;
// Least work per tile (flops). Below it the fork-join and the repacking
// a split costs outweigh the tile's compute, and the one-image encodes
// of serving stay on the caller.
constexpr i64 kMinJobFlops = i64{1} << 20;
// Multiply-adds one packed float costs, for weighing a grid's repacking
// against its balance.
constexpr i64 kPackCost = 8;

// Packs kc x nc of B (element stride brs/bcs) into NR-wide slivers,
// zero-padding the last sliver: dst[sliver][p][0..NR).
void pack_b(const float* b, i64 brs, i64 bcs, i64 kc, i64 nc, float* dst) {
  for (i64 j0 = 0; j0 < nc; j0 += NR) {
    const i64 jw = std::min<i64>(NR, nc - j0);
    for (i64 p = 0; p < kc; ++p) {
      const float* src = b + p * brs + j0 * bcs;
      if (bcs == 1) {
        std::memcpy(dst, src, static_cast<size_t>(jw) * sizeof(float));
      } else {
        for (i64 j = 0; j < jw; ++j) dst[j] = src[j * bcs];
      }
      for (i64 j = jw; j < NR; ++j) dst[j] = 0.f;
      dst += NR;
    }
  }
}

// Packs mc x kc of A (element stride ars/acs) into MR-tall slivers,
// zero-padding the last: dst[sliver][p][0..MR).
void pack_a(const float* a, i64 ars, i64 acs, i64 mc, i64 kc, float* dst) {
  for (i64 i0 = 0; i0 < mc; i0 += MR) {
    const i64 iw = std::min<i64>(MR, mc - i0);
    for (i64 p = 0; p < kc; ++p) {
      const float* src = a + i0 * ars + p * acs;
      for (i64 i = 0; i < iw; ++i) dst[i] = src[i * ars];
      for (i64 i = iw; i < MR; ++i) dst[i] = 0.f;
      dst += MR;
    }
  }
}

// C[0..mr, 0..nr] += Ap(MR x kc sliver) * Bp(kc x NR sliver). Full tiles
// accumulate straight into C; edge tiles go through `spill`.
void micro(const float* ap, const float* bp, i64 kc, float* c, i64 ldc,
           i64 mr, i64 nr) {
  vf acc0[MR], acc1[MR];
  for (i64 r = 0; r < MR; ++r) {
    acc0[r] = vf{};
    acc1[r] = vf{};
  }
  for (i64 p = 0; p < kc; ++p) {
    const vf b0 = simd::load(bp + p * NR);
    const vf b1 = simd::load(bp + p * NR + kLanes);
    const float* arow = ap + p * MR;
    for (i64 r = 0; r < MR; ++r) {
      const vf av = simd::splat(arow[r]);
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  if (mr == MR && nr == NR) {
    for (i64 r = 0; r < MR; ++r) {
      float* crow = c + r * ldc;
      simd::store(crow, simd::load(crow) + acc0[r]);
      simd::store(crow + kLanes, simd::load(crow + kLanes) + acc1[r]);
    }
    return;
  }
  float spill[MR * NR];
  for (i64 r = 0; r < MR; ++r) {
    simd::store(spill + r * NR, acc0[r]);
    simd::store(spill + r * NR + kLanes, acc1[r]);
  }
  for (i64 r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* srow = spill + r * NR;
    for (i64 j = 0; j < nr; ++j) crow[j] += srow[j];
  }
}

// One batch slice: C[m x n] = A[m x k] * B[k x n] at arbitrary strides.
struct Slice {
  const float* a;
  i64 ars, acs;
  const float* b;
  i64 brs, bcs;
  float* c;
  i64 ldc;
  i64 m, k, n;
};

i64 ceil_div(i64 a, i64 b) { return (a + b - 1) / b; }

// Grows a thread-local pack buffer to `floats`; never shrinks it, so a
// thread keeps the largest panel it has packed, not the KC x NC bound.
float* pack_buffer(std::vector<float>& buf, i64 floats) {
  if (static_cast<i64>(buf.size()) < floats) {
    buf.resize(static_cast<size_t>(floats));
  }
  return buf.data();
}

// Rows [m0, m1) x cols [n0, n1) of C, through every KC panel in ascending
// order: each output element sums the same panels in the same order
// whatever the tile, so tiling never moves a bit.
void gemm_tile(const Slice& s, i64 m0, i64 m1, i64 n0, i64 n1) {
  for (i64 i = m0; i < m1; ++i) {
    std::fill(s.c + i * s.ldc + n0, s.c + i * s.ldc + n1, 0.f);
  }
  if (s.k <= 0) return;

  const i64 kc_max = std::min(KC, s.k);
  thread_local std::vector<float> bpack, apack;
  float* const bp = pack_buffer(
      bpack, kc_max * ceil_div(std::min(NC, n1 - n0), NR) * NR);
  float* const ap = pack_buffer(
      apack, ceil_div(std::min(MC, m1 - m0), MR) * MR * kc_max);

  for (i64 jc = n0; jc < n1; jc += NC) {
    const i64 nc = std::min(NC, n1 - jc);
    for (i64 pc = 0; pc < s.k; pc += KC) {
      const i64 kc = std::min(KC, s.k - pc);
      pack_b(s.b + pc * s.brs + jc * s.bcs, s.brs, s.bcs, kc, nc, bp);
      for (i64 ic = m0; ic < m1; ic += MC) {
        const i64 mc = std::min(MC, m1 - ic);
        pack_a(s.a + ic * s.ars + pc * s.acs, s.ars, s.acs, mc, kc, ap);
        for (i64 jr = 0; jr < nc; jr += NR) {
          const i64 nr = std::min(NR, nc - jr);
          const float* bsliver = bp + (jr / NR) * kc * NR;
          for (i64 ir = 0; ir < mc; ir += MR) {
            const i64 mr = std::min(MR, mc - ir);
            micro(ap + (ir / MR) * kc * MR, bsliver, kc,
                  s.c + (ic + ir) * s.ldc + jc + jr, s.ldc, mr, nr);
          }
        }
      }
    }
  }
}

// A split of the slice into tm x tn tiles of whole MR rows and NR columns.
struct Grid {
  i64 tm = 1, tn = 1;
};

// At most kJobsPerParticipant tiles per participant and none under
// kMinJobFlops; among those grids, the one with the least estimated
// makespan: rounds of tiles (tiles / participants, rounded up) times the
// largest tile's multiply-adds per k, its packing included (each row of
// tiles packs all of B, each column all of A).
Grid plan_grid(i64 m, i64 k, i64 n, int participants) {
  const i64 want =
      std::min(kJobsPerParticipant * participants,
               std::max<i64>(1, 2 * m * k * n / kMinJobFlops));
  const i64 m_slivers = ceil_div(m, MR), n_slivers = ceil_div(n, NR);
  Grid best;
  i64 best_cost = m * n + kPackCost * (m + n);
  for (i64 tm = 1; tm <= std::min(want, m_slivers); ++tm) {
    for (i64 tn = 1; tn <= std::min(want / tm, n_slivers); ++tn) {
      const i64 rows = std::min(m, ceil_div(m_slivers, tm) * MR);
      const i64 cols = std::min(n, ceil_div(n_slivers, tn) * NR);
      const i64 cost = ceil_div(tm * tn, participants) *
                       (rows * cols + kPackCost * (rows + cols));
      if (cost < best_cost) {
        best = {tm, tn};
        best_cost = cost;
      }
    }
  }
  return best;
}

// One parallel region over the slice's tiles, or the serial loop when the
// slice makes one tile or the calling thread has no one to share it with.
void gemm_slice(const Slice& s) {
  const int participants = ThreadPool::current().n_workers() + 1;
  const Grid g = participants > 1 ? plan_grid(s.m, s.k, s.n, participants)
                                  : Grid{};
  if (g.tm * g.tn == 1) {
    gemm_tile(s, 0, s.m, 0, s.n);
    return;
  }
  const i64 m_slivers = ceil_div(s.m, MR), n_slivers = ceil_div(s.n, NR);
  parallel_for(
      g.tm * g.tn,
      [&](i64 j0, i64 j1) {
        for (i64 j = j0; j < j1; ++j) {
          const i64 im = j / g.tn, in = j % g.tn;
          gemm_tile(s, std::min(s.m, im * m_slivers / g.tm * MR),
                    std::min(s.m, (im + 1) * m_slivers / g.tm * MR),
                    std::min(s.n, in * n_slivers / g.tn * NR),
                    std::min(s.n, (in + 1) * n_slivers / g.tn * NR));
        }
      },
      /*grain=*/1);
}

}  // namespace

int simd_lanes_impl() { return kLanes; }

void simd_gemm(i64 batch, i64 m, i64 k, i64 n,
               const float* a, i64 a_batch, i64 ars, i64 acs,
               const float* b, i64 b_batch, i64 brs, i64 bcs,
               float* c, i64 c_batch, i64 ldc) {
  if (batch <= 0 || m <= 0 || n <= 0) return;
  if (batch == 1) {
    gemm_slice({a, ars, acs, b, brs, bcs, c, ldc, m, k, n});
    return;
  }
  parallel_for(
      batch,
      [&](i64 b0, i64 b1) {
        for (i64 i = b0; i < b1; ++i) {
          gemm_tile({a + i * a_batch, ars, acs, b + i * b_batch, brs, bcs,
                     c + i * c_batch, ldc, m, k, n},
                    0, m, 0, n);
        }
      },
      /*grain=*/1);
}

}  // namespace geofm::kernels::detail

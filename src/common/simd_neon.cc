/**
 * @file
 * NEON (aarch64 Advanced SIMD) kernel table: 4-wide census
 * bit-packing (vcltq_f32 masks shifted in MSB-first), 2-lane
 * float64x2_t SAD spans,
 * 8-lane saturating-uint16 SGM aggregation rows (vminvq_u16
 * horizontal min), and the 4 x 16 register-blocked FMLA f32 GEMM
 * tile + bias/ReLU epilogue for the DNN path (FMLA is fused, so
 * gemmTile is bit-identical to the scalar std::fmaf reference).
 *
 * NEON is baseline on armv8-a, so no per-file target flags are
 * strictly required; the whole file degrades to a nullptr getter off
 * aarch64 so the dispatch layer never sees a table it cannot
 * execute. Exercised in CI by the aarch64 cross-compile job under
 * qemu-user with ASV_SIMD=neon.
 */

#include "common/simd.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "common/simd_reference.hh"

namespace asv::simd::detail
{

namespace
{

void
censusRowNeon(const float *const *rows, int radius, int x0, int x1,
              uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    const uint64x2_t one = vdupq_n_u64(1);
    int x = x0;
    // 4 pixels per iteration: two 2x64-bit accumulators collect one
    // comparison bit per tap, MSB-first — the scalar encoding. The
    // widened 32-bit mask keeps its low word all-ones, so AND-ing
    // with 1 extracts the predicate bit.
    for (; x + 4 <= x1; x += 4) {
        const float32x4_t c = vld1q_f32(center + x);
        uint64x2_t lo = vdupq_n_u64(0); // pixels x, x+1
        uint64x2_t hi = vdupq_n_u64(0); // pixels x+2, x+3
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                const float32x4_t nb = vld1q_f32(row + x + dx);
                const uint32x4_t m = vcltq_f32(nb, c);
                const uint64x2_t mlo = vmovl_u32(vget_low_u32(m));
                const uint64x2_t mhi = vmovl_u32(vget_high_u32(m));
                lo = vorrq_u64(vshlq_n_u64(lo, 1),
                               vandq_u64(mlo, one));
                hi = vorrq_u64(vshlq_n_u64(hi, 1),
                               vandq_u64(mhi, one));
            }
        }
        vst1q_u64(out + x, lo);
        vst1q_u64(out + x + 2, hi);
    }
    // Sub-vector tail: the shared scalar reference loop.
    censusRowRef(rows, radius, x, x1, out);
}

void
sadSpanNeon(const float *const *lrows, const float *const *rrows,
            int radius, int x, int d0, int n, double *cost)
{
    const int taps = 2 * radius + 1;
    int j = 0;
    // Two candidates per 128-bit double lane pair. Lane k holds
    // candidate d0+j+k; for a fixed tap the right-image addresses
    // decrease with the candidate, so load ascending and reverse.
    for (; j + 2 <= n; j += 2) {
        const int d = d0 + j;
        float64x2_t acc = vdupq_n_f64(0.0);
        for (int t = 0; t < taps; ++t) {
            const float *l = lrows[t];
            const float *r = rrows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                const float64x2_t lv =
                    vdupq_n_f64(double(l[x + dx]));
                const float32x2_t rf =
                    vrev64_f32(vld1_f32(r + x + dx - d - 1));
                const float64x2_t rv = vcvt_f64_f32(rf);
                acc = vaddq_f64(acc, vabsq_f64(vsubq_f64(lv, rv)));
            }
        }
        vst1q_f64(cost + j, acc);
    }
    sadSpanRef(lrows, rrows, radius, x, d0, j, n - j, cost);
}

uint16_t
aggregateRowNeon(const uint16_t *cost, const uint16_t *prev,
                 uint16_t prev_min, int nd, uint16_t p1, uint16_t p2,
                 uint16_t *cur, uint32_t *total)
{
    // 8 disparity lanes per iteration. The neighbor loads at
    // prev +/- 1 are covered by the caller's 0xFFFF sentinels, so
    // every block is uniform; saturating adds + unsigned mins replay
    // the scalar clamped-uint32 order exactly (see AggregateRowFn).
    const uint16x8_t vp1 = vdupq_n_u16(p1);
    const uint16x8_t vpm = vdupq_n_u16(prev_min);
    const uint16x8_t vcap = vqaddq_u16(vpm, vdupq_n_u16(p2));
    uint16x8_t vmin = vdupq_n_u16(0xFFFF);
    int d = 0;
    for (; d + 8 <= nd; d += 8) {
        const uint16x8_t pv = vld1q_u16(prev + d);
        const uint16x8_t pl = vld1q_u16(prev + d - 1);
        const uint16x8_t pr = vld1q_u16(prev + d + 1);
        uint16x8_t best = vminq_u16(pv, vqaddq_u16(pl, vp1));
        best = vminq_u16(best, vqaddq_u16(pr, vp1));
        best = vminq_u16(best, vcap);
        // Every candidate >= prev_min, so the subtract cannot wrap.
        best = vsubq_u16(best, vpm);
        const uint16x8_t c = vqaddq_u16(vld1q_u16(cost + d), best);
        vst1q_u16(cur + d, c);
        vmin = vminq_u16(vmin, c);
        uint32x4_t t0 = vld1q_u32(total + d);
        uint32x4_t t1 = vld1q_u32(total + d + 4);
        t0 = vaddw_u16(t0, vget_low_u16(c));
        t1 = vaddw_u16(t1, vget_high_u16(c));
        vst1q_u32(total + d, t0);
        vst1q_u32(total + d + 4, t1);
    }
    const uint16_t vec_min = vminvq_u16(vmin);
    const uint16_t tail_min = aggregateRowRef(
        cost, prev, prev_min, nd, p1, p2, d, nd, cur, total);
    return std::min(vec_min, tail_min);
}

void
costRowNeon(const uint64_t *cl, const uint64_t *cr, int w, int nd,
            uint16_t *out)
{
    // Left-border pixels whose candidate window clamps to column 0
    // take the shared reference loop; interior pixels popcount two
    // candidates per iteration with vcnt + pairwise widening adds.
    // Candidate d reads cr[x - d] — descending addresses — so the
    // ascending 2x64-bit load is stored back lane-swapped.
    const int x_interior = std::min(nd - 1, w);
    costRowRef(cl, cr, nd, 0, x_interior, out);
    for (int x = x_interior; x < w; ++x) {
        const uint64x2_t c = vdupq_n_u64(cl[x]);
        const uint64_t *r = cr + x;
        uint16_t *o = out + size_t(x) * size_t(nd);
        int d = 0;
        for (; d + 2 <= nd; d += 2) {
            const uint64x2_t rv = vld1q_u64(r - d - 1);
            const uint8x16_t v =
                vcntq_u8(vreinterpretq_u8_u64(veorq_u64(c, rv)));
            const uint64x2_t sums =
                vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(v)));
            o[d] = static_cast<uint16_t>(vgetq_lane_u64(sums, 1));
            o[d + 1] = static_cast<uint16_t>(vgetq_lane_u64(sums, 0));
        }
        for (; d < nd; ++d)
            o[d] = static_cast<uint16_t>(std::popcount(cl[x] ^ r[-d]));
    }
}

/** Loads lanes [0, lanes) of a 4-lane vector, +0 above; never
 *  touches memory past p[lanes - 1]. */
inline float32x4_t
loadPartialNeon(const float *p, int lanes)
{
    const float32x2_t zero = vdup_n_f32(0.0f);
    switch (lanes) {
      case 1:
        return vcombine_f32(vld1_lane_f32(p, zero, 0), zero);
      case 2:
        return vcombine_f32(vld1_f32(p), zero);
      case 3:
        return vcombine_f32(vld1_f32(p),
                            vld1_lane_f32(p + 2, zero, 0));
      default:
        return vld1q_f32(p);
    }
}

/** Stores lanes [0, lanes) of @p v. */
inline void
storePartialNeon(float *p, float32x4_t v, int lanes)
{
    switch (lanes) {
      case 1:
        vst1q_lane_f32(p, v, 0);
        break;
      case 2:
        vst1_f32(p, vget_low_f32(v));
        break;
      case 3:
        vst1_f32(p, vget_low_f32(v));
        vst1q_lane_f32(p + 2, v, 2);
        break;
      default:
        vst1q_f32(p, v);
        break;
    }
}

/**
 * Columns [0, 4 * NV) of an M-row GEMM tile; with Partial, the last
 * vector holds only @p lanes columns. vfmaq_f32 is a fused
 * multiply-add (one rounding per step), so each lane — partial ones
 * included — replays the scalar std::fmaf chain bit-exactly
 * (fusedF32 == true).
 */
template <int M, int NV, bool Partial>
inline void
gemmBlockNeon(const float *a, int64_t lda, int k, const float *b,
              int64_t ldb, float *out, int64_t ldo, bool accumulate,
              int lanes)
{
    const auto load = [lanes](const float *p, int v) {
        return Partial && v == NV - 1 ? loadPartialNeon(p, lanes)
                                      : vld1q_f32(p);
    };
    float32x4_t acc[M][NV];
#pragma GCC unroll 4
    for (int r = 0; r < M; ++r)
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v)
            acc[r][v] = accumulate ? load(out + r * ldo + 4 * v, v)
                                   : vdupq_n_f32(0.0f);
    for (int i = 0; i < k; ++i) {
        const float *bi = b + i * ldb;
        float32x4_t bv[NV];
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v)
            bv[v] = load(bi + 4 * v, v);
#pragma GCC unroll 4
        for (int r = 0; r < M; ++r) {
            const float32x4_t av = vdupq_n_f32(a[r * lda + i]);
#pragma GCC unroll 4
            for (int v = 0; v < NV; ++v)
                acc[r][v] = vfmaq_f32(acc[r][v], av, bv[v]);
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < M; ++r) {
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
            float *p = out + r * ldo + 4 * v;
            if (Partial && v == NV - 1)
                storePartialNeon(p, acc[r][v], lanes);
            else
                vst1q_f32(p, acc[r][v]);
        }
    }
}

/** An M-row tile: 4 x 16 register blocks (16 of the 32 q registers
 *  accumulate), then one block of up to 15 tail columns with a
 *  partial last vector. */
template <int M>
void
gemmRowsNeon(const float *a, int64_t lda, int k, const float *b,
             int64_t ldb, float *out, int64_t ldo, int n,
             bool accumulate)
{
    int j = 0;
    for (; j + 16 <= n; j += 16)
        gemmBlockNeon<M, 4, false>(a, lda, k, b + j, ldb, out + j,
                                   ldo, accumulate, 4);
    const int rem = n - j;
    if (rem == 0)
        return;
    const int lanes = rem % 4 != 0 ? rem % 4 : 4;
    switch ((rem + 3) / 4) {
      case 1:
        gemmBlockNeon<M, 1, true>(a, lda, k, b + j, ldb, out + j, ldo,
                                  accumulate, lanes);
        break;
      case 2:
        gemmBlockNeon<M, 2, true>(a, lda, k, b + j, ldb, out + j, ldo,
                                  accumulate, lanes);
        break;
      case 3:
        gemmBlockNeon<M, 3, true>(a, lda, k, b + j, ldb, out + j, ldo,
                                  accumulate, lanes);
        break;
      default:
        gemmBlockNeon<M, 4, true>(a, lda, k, b + j, ldb, out + j, ldo,
                                  accumulate, lanes);
        break;
    }
}

void
gemmTileNeon(const float *a, int64_t lda, int m, int k, const float *b,
             int64_t ldb, float *out, int64_t ldo, int n,
             bool accumulate)
{
    switch (m) {
      case 1:
        gemmRowsNeon<1>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      case 2:
        gemmRowsNeon<2>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      case 3:
        gemmRowsNeon<3>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      default:
        static_assert(kGemmTileRows == 4);
        gemmRowsNeon<4>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
    }
}

void
biasReluRowNeon(float *out, int n, float bias, bool relu)
{
    const float32x4_t vb = vdupq_n_f32(bias);
    const float32x4_t zero = vdupq_n_f32(0.0f);
    int j = 0;
    if (relu) {
        // NOT vmaxq_f32: aarch64 FMAX propagates NaN, but the
        // contract is `v > 0 ? v : +0` (NaN and -0 both map to +0,
        // matching the x86 maxps(v, 0) semantics). Compare + select
        // reproduces it: the NaN compare is false, selecting zero.
        for (; j + 4 <= n; j += 4) {
            const float32x4_t v =
                vaddq_f32(vld1q_f32(out + j), vb);
            const uint32x4_t pos = vcgtq_f32(v, zero);
            vst1q_f32(out + j, vbslq_f32(pos, v, zero));
        }
    } else {
        for (; j + 4 <= n; j += 4)
            vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), vb));
    }
    biasReluRowRef(out, j, n, bias, relu);
}

constexpr Kernels kNeonKernels = {
    "neon",      Level::Neon, censusRowNeon,
    sadSpanNeon, aggregateRowNeon, costRowNeon,
    gemmTileNeon, biasReluRowNeon,
    /*fusedF32=*/true,
};

} // namespace

const Kernels *
neonKernels()
{
    return &kNeonKernels;
}

} // namespace asv::simd::detail

#else // !aarch64

namespace asv::simd::detail
{

const Kernels *
neonKernels()
{
    return nullptr;
}

} // namespace asv::simd::detail

#endif

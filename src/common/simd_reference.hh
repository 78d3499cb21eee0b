/**
 * @file
 * Shared scalar reference loops for the SIMD kernel table.
 *
 * One definition of the census bit-pack, fused pixel-major cost
 * row, SAD accumulation, semi-global aggregation, f32 GEMM tile,
 * and bias+ReLU epilogue semantics, included by
 * every per-ISA translation unit: the scalar table uses them as its
 * kernels, and the vector tables use most of them for sub-vector
 * tails (the GEMM tile's tails are masked vectors instead).
 * Keeping a single copy means a future change to the encoding or
 * accumulation order cannot silently diverge between the scalar
 * baseline and a tail path — the exact breakage the bit-identity
 * contract guards against.
 *
 * Almost all operations are exact (integer, predicate, or IEEE
 * add/sub/abs with no fusable multiply-adds), so compiling these
 * inline functions under different target flags cannot change their
 * results. The one multiply-accumulate loop — the f32 GEMM tile for
 * the DNN path — spells its fusion out with std::fmaf (correctly
 * rounded by definition, never silently contracted or split), so it
 * too is flag-independent; see docs/KERNELS.md for the f32 contract.
 *
 * Everything here sits in an unnamed namespace, so each per-ISA
 * translation unit compiles and keeps its own copy under its own
 * target flags. With external linkage, the linker would keep one
 * out-of-line copy per function for the whole program — possibly the
 * one built with -mavx2 — and hand it to the scalar or SSE4.2 table
 * too, which faults on a host without AVX2.
 */

#ifndef ASV_COMMON_SIMD_REFERENCE_HH
#define ASV_COMMON_SIMD_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace asv::simd::detail
{

namespace
{

/** Census bit-pack of pixels [x0, x1); see CensusRowFn. */
inline void
censusRowRef(const float *const *rows, int radius, int x0, int x1,
             uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    for (int x = x0; x < x1; ++x) {
        const float c = center[x];
        uint64_t bits = 0;
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                bits = (bits << 1) | (row[x + dx] < c ? 1u : 0u);
            }
        }
        out[x] = bits;
    }
}

/**
 * SAD of candidates [j0, j0 + count) of a span; see SadSpanFn. The
 * vector tables call this with j0 > 0 for the sub-vector tail.
 */
inline void
sadSpanRef(const float *const *lrows, const float *const *rrows,
           int radius, int x, int d0, int j0, int count, double *cost)
{
    const int taps = 2 * radius + 1;
    for (int j = j0; j < j0 + count; ++j) {
        const int d = d0 + j;
        double s = 0.0;
        for (int t = 0; t < taps; ++t) {
            const float *l = lrows[t];
            const float *r = rrows[t];
            for (int dx = -radius; dx <= radius; ++dx)
                s += std::abs(double(l[x + dx]) - r[x + dx - d]);
        }
        cost[j] = s;
    }
}

/**
 * Semi-global aggregation of disparities [d0, d1) of one pixel; see
 * AggregateRowFn. The vector tables call this with d0 > 0 for the
 * sub-vector tail; out-of-range neighbors are skipped by branching,
 * which the sentinel contract makes equivalent to the vector bodies'
 * 0xFFFF loads. All arithmetic is uint32 with a final clamp — the
 * semantics every saturating-uint16 vector lane must reproduce.
 */
inline uint16_t
aggregateRowRef(const uint16_t *cost, const uint16_t *prev,
                uint16_t prev_min, int nd, uint16_t p1, uint16_t p2,
                int d0, int d1, uint16_t *cur, uint32_t *total)
{
    uint16_t cur_min = 0xFFFF;
    for (int d = d0; d < d1; ++d) {
        uint32_t best = prev[d];
        if (d > 0)
            best = std::min(best, uint32_t(prev[d - 1]) + p1);
        if (d + 1 < nd)
            best = std::min(best, uint32_t(prev[d + 1]) + p1);
        best = std::min(best, uint32_t(prev_min) + p2);
        best -= prev_min;
        const uint32_t v = uint32_t(cost[d]) + best;
        const uint16_t c =
            static_cast<uint16_t>(std::min<uint32_t>(v, 0xFFFF));
        cur[d] = c;
        total[d] += c;
        cur_min = std::min(cur_min, c);
    }
    return cur_min;
}

/**
 * Fused pixel-major cost row for pixels [x0, x1); see CostRowFn. The
 * vector tables call this for the left-border pixels whose
 * candidates clamp to column 0. For each pixel the first
 * min(nd, x + 1) candidates read descending right-census addresses;
 * the rest all clamp to cr[0] and therefore share one popcount.
 */
inline void
costRowRef(const uint64_t *cl, const uint64_t *cr, int nd, int x0,
           int x1, uint16_t *out)
{
    for (int x = x0; x < x1; ++x) {
        const uint64_t c = cl[x];
        uint16_t *o = out + size_t(x) * size_t(nd);
        const int m = std::min(x + 1, nd);
        for (int d = 0; d < m; ++d)
            o[d] = static_cast<uint16_t>(std::popcount(c ^ cr[x - d]));
        if (m < nd) {
            const uint16_t edge =
                static_cast<uint16_t>(std::popcount(c ^ cr[0]));
            for (int d = m; d < nd; ++d)
                o[d] = edge;
        }
    }
}

/**
 * costRow by one popcount per candidate, shared by the SSE4.2 and
 * AVX2 tables: left-border pixels take costRowRef, interior pixels
 * run an unrolled sweep over descending right-census addresses
 * (candidate d reads cr[x - d]). In a translation unit built with
 * -mpopcnt, std::popcount is the POPCNT instruction. A 4 x 64-bit
 * nibble-lookup body measured slower than this on AVX2 hosts: its
 * per-4-candidate store and lane-reversed scalar writes cost more
 * than four POPCNTs.
 */
inline void
costRowPopcount(const uint64_t *cl, const uint64_t *cr, int w, int nd,
                uint16_t *out)
{
    const int x_interior = std::min(nd - 1, w);
    costRowRef(cl, cr, nd, 0, x_interior, out);
    for (int x = x_interior; x < w; ++x) {
        const uint64_t c = cl[x];
        const uint64_t *r = cr + x;
        uint16_t *o = out + size_t(x) * size_t(nd);
        int d = 0;
        for (; d + 4 <= nd; d += 4) {
            o[d] = static_cast<uint16_t>(std::popcount(c ^ r[-d]));
            o[d + 1] =
                static_cast<uint16_t>(std::popcount(c ^ r[-d - 1]));
            o[d + 2] =
                static_cast<uint16_t>(std::popcount(c ^ r[-d - 2]));
            o[d + 3] =
                static_cast<uint16_t>(std::popcount(c ^ r[-d - 3]));
        }
        for (; d < nd; ++d)
            o[d] = static_cast<uint16_t>(std::popcount(c ^ r[-d]));
    }
}

/**
 * f32 GEMM tile; see GemmTileFn. Each output is an independent
 * fused-multiply-add chain over i ascending, starting from +0.0f (or,
 * with @p accumulate, from the float already in @p out) — the
 * accumulation order every vector lane replays. std::fmaf is
 * correctly rounded (a single rounding per step), so a fused vector
 * lane (AVX2+FMA, NEON FMLA) reproduces these bits exactly; a
 * mul-then-add lane (SSE4.2) rounds twice per step and is
 * tolerance-tested instead. docs/KERNELS.md spells out the contract.
 */
inline void
gemmTileRef(const float *a, int64_t lda, int m, int k, const float *b,
            int64_t ldb, float *out, int64_t ldo, int n,
            bool accumulate)
{
    for (int r = 0; r < m; ++r) {
        const float *ar = a + r * lda;
        float *orow = out + r * ldo;
        for (int j = 0; j < n; ++j) {
            float acc = accumulate ? orow[j] : 0.0f;
            for (int i = 0; i < k; ++i)
                acc = std::fmaf(ar[i], b[i * ldb + j], acc);
            orow[j] = acc;
        }
    }
}

/**
 * Bias + optional ReLU epilogue for outputs [j0, j1); see
 * BiasReluRowFn. Plain IEEE add (exact across ISAs); the ReLU is
 * `v > 0 ? v : +0`, which sends NaN and -0 to +0 — the semantics the
 * x86 maxps(v, 0) idiom happens to share and the NEON lane must
 * reproduce with a compare+select (FMAX would propagate NaN).
 */
inline void
biasReluRowRef(float *out, int j0, int j1, float bias, bool relu)
{
    for (int j = j0; j < j1; ++j) {
        const float v = out[j] + bias;
        out[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
    }
}

} // namespace

} // namespace asv::simd::detail

#endif // ASV_COMMON_SIMD_REFERENCE_HH

/**
 * @file
 * SSE4.2 kernel table: 4-wide census bit-packing, 2-lane double SAD
 * spans, 8-lane saturating-uint16 SGM aggregation rows (PHMINPOSUW
 * horizontal min), the hardware-POPCNT fused cost row, and the 4 x 8
 * register-blocked f32 GEMM tile + bias/ReLU epilogue for the DNN
 * path. SSE4.2 has no FMA, so gemmTile is the table's one
 * tolerance-tested kernel (fusedF32 == false; see docs/KERNELS.md).
 *
 * Compiled with -msse4.2 -mpopcnt (see CMakeLists); the whole file
 * degrades to a nullptr getter when those flags are unavailable so
 * the dispatch layer never sees a table it cannot execute.
 */

#include "common/simd.hh"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE4_2__)

#include <nmmintrin.h>

#include "common/simd_reference.hh"

namespace asv::simd::detail
{

namespace
{

void
censusRowSse42(const float *const *rows, int radius, int x0, int x1,
               uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    int x = x0;
    // 4 pixels per iteration: two 2x64-bit accumulators collect one
    // comparison bit per tap, MSB-first — the scalar encoding.
    for (; x + 4 <= x1; x += 4) {
        const __m128 c = _mm_loadu_ps(center + x);
        __m128i lo = _mm_setzero_si128(); // pixels x, x+1
        __m128i hi = _mm_setzero_si128(); // pixels x+2, x+3
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                const __m128 nb = _mm_loadu_ps(row + x + dx);
                const __m128i m =
                    _mm_castps_si128(_mm_cmplt_ps(nb, c));
                const __m128i mlo = _mm_cvtepi32_epi64(m);
                const __m128i mhi =
                    _mm_cvtepi32_epi64(_mm_srli_si128(m, 8));
                lo = _mm_or_si128(_mm_slli_epi64(lo, 1),
                                  _mm_srli_epi64(mlo, 63));
                hi = _mm_or_si128(_mm_slli_epi64(hi, 1),
                                  _mm_srli_epi64(mhi, 63));
            }
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + x), lo);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + x + 2),
                         hi);
    }
    // Sub-vector tail: the shared scalar reference loop.
    censusRowRef(rows, radius, x, x1, out);
}

void
sadSpanSse42(const float *const *lrows, const float *const *rrows,
             int radius, int x, int d0, int n, double *cost)
{
    const int taps = 2 * radius + 1;
    const __m128d sign = _mm_set1_pd(-0.0);
    int j = 0;
    // Two candidates per 128-bit double lane pair. Lane k holds
    // candidate d0+j+k; for a fixed tap the right-image addresses
    // decrease with the candidate, so load ascending and reverse.
    for (; j + 2 <= n; j += 2) {
        const int d = d0 + j;
        __m128d acc = _mm_setzero_pd();
        for (int t = 0; t < taps; ++t) {
            const float *l = lrows[t];
            const float *r = rrows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                const __m128d lv = _mm_set1_pd(double(l[x + dx]));
                const float *rp = r + x + dx - d - 1;
                __m128 rf = _mm_castsi128_ps(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(rp)));
                rf = _mm_shuffle_ps(rf, rf, _MM_SHUFFLE(3, 2, 0, 1));
                const __m128d rv = _mm_cvtps_pd(rf);
                const __m128d diff = _mm_sub_pd(lv, rv);
                acc = _mm_add_pd(acc, _mm_andnot_pd(sign, diff));
            }
        }
        _mm_storeu_pd(cost + j, acc);
    }
    sadSpanRef(lrows, rrows, radius, x, d0, j, n - j, cost);
}

uint16_t
aggregateRowSse42(const uint16_t *cost, const uint16_t *prev,
                  uint16_t prev_min, int nd, uint16_t p1,
                  uint16_t p2, uint16_t *cur, uint32_t *total)
{
    // 8 disparity lanes per iteration. The neighbor loads at
    // prev +/- 1 are covered by the caller's 0xFFFF sentinels, so
    // every block is uniform; saturating adds + unsigned mins replay
    // the scalar clamped-uint32 order exactly (see AggregateRowFn).
    const __m128i vp1 = _mm_set1_epi16(short(p1));
    const __m128i vpm = _mm_set1_epi16(short(prev_min));
    const __m128i vcap =
        _mm_adds_epu16(vpm, _mm_set1_epi16(short(p2)));
    __m128i vmin = _mm_set1_epi16(short(0xFFFF));
    int d = 0;
    for (; d + 8 <= nd; d += 8) {
        const __m128i pv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + d));
        const __m128i pl = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + d - 1));
        const __m128i pr = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + d + 1));
        __m128i best = _mm_min_epu16(pv, _mm_adds_epu16(pl, vp1));
        best = _mm_min_epu16(best, _mm_adds_epu16(pr, vp1));
        best = _mm_min_epu16(best, vcap);
        // Every candidate >= prev_min, so the subtract cannot wrap.
        best = _mm_sub_epi16(best, vpm);
        const __m128i c = _mm_adds_epu16(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(cost + d)),
            best);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(cur + d), c);
        vmin = _mm_min_epu16(vmin, c);
        __m128i t0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(total + d));
        __m128i t1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(total + d + 4));
        t0 = _mm_add_epi32(t0, _mm_cvtepu16_epi32(c));
        t1 = _mm_add_epi32(t1,
                           _mm_cvtepu16_epi32(_mm_srli_si128(c, 8)));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(total + d), t0);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(total + d + 4),
                         t1);
    }
    const uint16_t vec_min = static_cast<uint16_t>(
        _mm_extract_epi16(_mm_minpos_epu16(vmin), 0));
    const uint16_t tail_min = aggregateRowRef(
        cost, prev, prev_min, nd, p1, p2, d, nd, cur, total);
    return std::min(vec_min, tail_min);
}

void
costRowSse42(const uint64_t *cl, const uint64_t *cr, int w, int nd,
             uint16_t *out)
{
    costRowPopcount(cl, cr, w, nd, out);
}

/** Loads lanes [0, lanes) of a 4-lane vector, +0 above; never
 *  touches memory past p[lanes - 1]. */
inline __m128
loadPartialSse42(const float *p, int lanes)
{
    switch (lanes) {
      case 1:
        return _mm_load_ss(p);
      case 2:
        return _mm_castsi128_ps(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
      case 3:
        return _mm_movelh_ps(
            _mm_castsi128_ps(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(p))),
            _mm_load_ss(p + 2));
      default:
        return _mm_loadu_ps(p);
    }
}

/** Stores lanes [0, lanes) of @p v. */
inline void
storePartialSse42(float *p, __m128 v, int lanes)
{
    switch (lanes) {
      case 1:
        _mm_store_ss(p, v);
        break;
      case 2:
        _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                         _mm_castps_si128(v));
        break;
      case 3:
        _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                         _mm_castps_si128(v));
        _mm_store_ss(p + 2, _mm_movehl_ps(v, v));
        break;
      default:
        _mm_storeu_ps(p, v);
        break;
    }
}

/**
 * Columns [0, 4 * NV) of an M-row GEMM tile; with Partial, the last
 * vector holds only @p lanes columns. This TU has no FMA, so each step is
 * a separate MULPS + ADDPS rounding — the one tolerance-tested
 * gemmTile lane (Kernels::fusedF32 == false; see docs/KERNELS.md).
 * Partial vectors run the same mul-then-add, so the tolerance
 * contract is uniform across columns.
 */
template <int M, int NV, bool Partial>
inline void
gemmBlockSse42(const float *a, int64_t lda, int k, const float *b,
               int64_t ldb, float *out, int64_t ldo, bool accumulate,
               int lanes)
{
    const auto load = [lanes](const float *p, int v) {
        return Partial && v == NV - 1 ? loadPartialSse42(p, lanes)
                                      : _mm_loadu_ps(p);
    };
    __m128 acc[M][NV];
#pragma GCC unroll 4
    for (int r = 0; r < M; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            acc[r][v] = accumulate ? load(out + r * ldo + 4 * v, v)
                                   : _mm_setzero_ps();
    for (int i = 0; i < k; ++i) {
        const float *bi = b + i * ldb;
        __m128 bv[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            bv[v] = load(bi + 4 * v, v);
#pragma GCC unroll 4
        for (int r = 0; r < M; ++r) {
            const __m128 av = _mm_set1_ps(a[r * lda + i]);
#pragma GCC unroll 2
            for (int v = 0; v < NV; ++v)
                acc[r][v] =
                    _mm_add_ps(acc[r][v], _mm_mul_ps(av, bv[v]));
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < M; ++r) {
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
            float *p = out + r * ldo + 4 * v;
            if (Partial && v == NV - 1)
                storePartialSse42(p, acc[r][v], lanes);
            else
                _mm_storeu_ps(p, acc[r][v]);
        }
    }
}

/** An M-row tile: 4 x 8 register blocks, then one block of up to 7
 *  tail columns with a partial last vector. */
template <int M>
void
gemmRowsSse42(const float *a, int64_t lda, int k, const float *b,
              int64_t ldb, float *out, int64_t ldo, int n,
              bool accumulate)
{
    int j = 0;
    for (; j + 8 <= n; j += 8)
        gemmBlockSse42<M, 2, false>(a, lda, k, b + j, ldb, out + j,
                                    ldo, accumulate, 4);
    const int rem = n - j;
    if (rem == 0)
        return;
    const int lanes = rem % 4 != 0 ? rem % 4 : 4;
    if (rem > 4)
        gemmBlockSse42<M, 2, true>(a, lda, k, b + j, ldb, out + j,
                                   ldo, accumulate, lanes);
    else
        gemmBlockSse42<M, 1, true>(a, lda, k, b + j, ldb, out + j,
                                   ldo, accumulate, lanes);
}

void
gemmTileSse42(const float *a, int64_t lda, int m, int k,
              const float *b, int64_t ldb, float *out, int64_t ldo,
              int n, bool accumulate)
{
    switch (m) {
      case 1:
        gemmRowsSse42<1>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      case 2:
        gemmRowsSse42<2>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      case 3:
        gemmRowsSse42<3>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      default:
        static_assert(kGemmTileRows == 4);
        gemmRowsSse42<4>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
    }
}

void
biasReluRowSse42(float *out, int n, float bias, bool relu)
{
    const __m128 vb = _mm_set1_ps(bias);
    const __m128 zero = _mm_setzero_ps();
    int j = 0;
    if (relu) {
        // MAXPS(v, 0) returns the second operand on NaN and +0 for
        // -0 — exactly the reference `v > 0 ? v : +0`.
        for (; j + 4 <= n; j += 4) {
            const __m128 v =
                _mm_add_ps(_mm_loadu_ps(out + j), vb);
            _mm_storeu_ps(out + j, _mm_max_ps(v, zero));
        }
    } else {
        for (; j + 4 <= n; j += 4)
            _mm_storeu_ps(out + j,
                          _mm_add_ps(_mm_loadu_ps(out + j), vb));
    }
    biasReluRowRef(out, j, n, bias, relu);
}

constexpr Kernels kSse42Kernels = {
    "sse42",      Level::Sse42, censusRowSse42,
    sadSpanSse42, aggregateRowSse42, costRowSse42,
    gemmTileSse42, biasReluRowSse42,
    /*fusedF32=*/false,
};

} // namespace

const Kernels *
sse42Kernels()
{
    return &kSse42Kernels;
}

} // namespace asv::simd::detail

#else // !x86 or no -msse4.2

namespace asv::simd::detail
{

const Kernels *
sse42Kernels()
{
    return nullptr;
}

} // namespace asv::simd::detail

#endif

/**
 * @file
 * AVX2 kernel table: 8-wide census bit-packing, 8-wide (two 4-lane
 * double accumulators) SAD spans, 16-lane
 * saturating-uint16 SGM aggregation rows, the POPCNT fused cost row
 * it shares with SSE4.2, and the 4 x 24 register-blocked FMA f32
 * GEMM tile + bias/ReLU epilogue for the DNN path (bit-identical to
 * the scalar std::fmaf reference when built with FMA).
 *
 * Compiled with -mavx2 -mfma -mpopcnt (see CMakeLists); degrades to
 * a nullptr getter without AVX2.
 */

#include "common/simd.hh"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

#include "common/simd_reference.hh"

namespace asv::simd::detail
{

namespace
{

void
censusRowAvx2(const float *const *rows, int radius, int x0, int x1,
              uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    int x = x0;
    // 8 pixels per iteration: the float comparison mask is widened to
    // two 4x64-bit registers and shifted in MSB-first, matching the
    // scalar (dy, dx) encoding bit for bit.
    for (; x + 8 <= x1; x += 8) {
        const __m256 c = _mm256_loadu_ps(center + x);
        __m256i lo = _mm256_setzero_si256(); // pixels x .. x+3
        __m256i hi = _mm256_setzero_si256(); // pixels x+4 .. x+7
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                const __m256 nb = _mm256_loadu_ps(row + x + dx);
                const __m256i m = _mm256_castps_si256(
                    _mm256_cmp_ps(nb, c, _CMP_LT_OQ));
                const __m256i mlo = _mm256_cvtepi32_epi64(
                    _mm256_castsi256_si128(m));
                const __m256i mhi = _mm256_cvtepi32_epi64(
                    _mm256_extracti128_si256(m, 1));
                lo = _mm256_or_si256(_mm256_slli_epi64(lo, 1),
                                     _mm256_srli_epi64(mlo, 63));
                hi = _mm256_or_si256(_mm256_slli_epi64(hi, 1),
                                     _mm256_srli_epi64(mhi, 63));
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + x), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + x + 4),
                            hi);
    }
    // Sub-vector tail: the shared scalar reference loop.
    censusRowRef(rows, radius, x, x1, out);
}

void
sadSpanAvx2(const float *const *lrows, const float *const *rrows,
            int radius, int x, int d0, int n, double *cost)
{
    const int taps = 2 * radius + 1;
    const __m256d sign = _mm256_set1_pd(-0.0);
    int j = 0;
    // 8 candidates per iteration in two 4-lane double accumulators.
    // Lane k of block m holds candidate d0+j+4m+k; right-image
    // addresses decrease with the candidate, so load ascending and
    // reverse before widening to double.
    for (; j + 8 <= n; j += 8) {
        const int d = d0 + j;
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int t = 0; t < taps; ++t) {
            const float *l = lrows[t];
            const float *r = rrows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                const __m256d lv = _mm256_set1_pd(double(l[x + dx]));
                const float *rp = r + x + dx - d;
                __m128 r0 = _mm_loadu_ps(rp - 3);
                __m128 r1 = _mm_loadu_ps(rp - 7);
                r0 = _mm_shuffle_ps(r0, r0, _MM_SHUFFLE(0, 1, 2, 3));
                r1 = _mm_shuffle_ps(r1, r1, _MM_SHUFFLE(0, 1, 2, 3));
                const __m256d d0v =
                    _mm256_sub_pd(lv, _mm256_cvtps_pd(r0));
                const __m256d d1v =
                    _mm256_sub_pd(lv, _mm256_cvtps_pd(r1));
                acc0 = _mm256_add_pd(acc0,
                                     _mm256_andnot_pd(sign, d0v));
                acc1 = _mm256_add_pd(acc1,
                                     _mm256_andnot_pd(sign, d1v));
            }
        }
        _mm256_storeu_pd(cost + j, acc0);
        _mm256_storeu_pd(cost + j + 4, acc1);
    }
    for (; j + 4 <= n; j += 4) {
        const int d = d0 + j;
        __m256d acc = _mm256_setzero_pd();
        for (int t = 0; t < taps; ++t) {
            const float *l = lrows[t];
            const float *r = rrows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                const __m256d lv = _mm256_set1_pd(double(l[x + dx]));
                __m128 rf = _mm_loadu_ps(r + x + dx - d - 3);
                rf = _mm_shuffle_ps(rf, rf, _MM_SHUFFLE(0, 1, 2, 3));
                const __m256d diff =
                    _mm256_sub_pd(lv, _mm256_cvtps_pd(rf));
                acc = _mm256_add_pd(acc,
                                    _mm256_andnot_pd(sign, diff));
            }
        }
        _mm256_storeu_pd(cost + j, acc);
    }
    sadSpanRef(lrows, rrows, radius, x, d0, j, n - j, cost);
}

uint16_t
aggregateRowAvx2(const uint16_t *cost, const uint16_t *prev,
                 uint16_t prev_min, int nd, uint16_t p1, uint16_t p2,
                 uint16_t *cur, uint32_t *total)
{
    // 16 disparity lanes per iteration. The neighbor loads at
    // prev +/- 1 are covered by the caller's 0xFFFF sentinels, so
    // every block is uniform; saturating adds + unsigned mins replay
    // the scalar clamped-uint32 order exactly (see AggregateRowFn).
    const __m256i vp1 = _mm256_set1_epi16(short(p1));
    const __m256i vpm = _mm256_set1_epi16(short(prev_min));
    const __m256i vcap =
        _mm256_adds_epu16(vpm, _mm256_set1_epi16(short(p2)));
    __m256i vmin = _mm256_set1_epi16(short(0xFFFF));
    int d = 0;
    for (; d + 16 <= nd; d += 16) {
        const __m256i pv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + d));
        const __m256i pl = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + d - 1));
        const __m256i pr = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + d + 1));
        __m256i best =
            _mm256_min_epu16(pv, _mm256_adds_epu16(pl, vp1));
        best = _mm256_min_epu16(best, _mm256_adds_epu16(pr, vp1));
        best = _mm256_min_epu16(best, vcap);
        // Every candidate >= prev_min, so the subtract cannot wrap.
        best = _mm256_sub_epi16(best, vpm);
        const __m256i c = _mm256_adds_epu16(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(cost + d)),
            best);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(cur + d), c);
        vmin = _mm256_min_epu16(vmin, c);
        __m256i t0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(total + d));
        __m256i t1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(total + d + 8));
        t0 = _mm256_add_epi32(
            t0, _mm256_cvtepu16_epi32(_mm256_castsi256_si128(c)));
        t1 = _mm256_add_epi32(
            t1,
            _mm256_cvtepu16_epi32(_mm256_extracti128_si256(c, 1)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(total + d),
                            t0);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(total + d + 8), t1);
    }
    const __m128i m128 =
        _mm_min_epu16(_mm256_castsi256_si128(vmin),
                      _mm256_extracti128_si256(vmin, 1));
    const uint16_t vec_min = static_cast<uint16_t>(
        _mm_extract_epi16(_mm_minpos_epu16(m128), 0));
    const uint16_t tail_min = aggregateRowRef(
        cost, prev, prev_min, nd, p1, p2, d, nd, cur, total);
    return std::min(vec_min, tail_min);
}

void
costRowAvx2(const uint64_t *cl, const uint64_t *cr, int w, int nd,
            uint16_t *out)
{
    costRowPopcount(cl, cr, w, nd, out);
}

#if defined(__FMA__)
// Fused multiply-add: one rounding per step, bit-identical to the
// scalar std::fmaf reference chain.
inline __m256
gemmStep(__m256 acc, __m256 av, __m256 bv)
{
    return _mm256_fmadd_ps(av, bv, acc);
}
constexpr bool kAvx2GemmFused = true;
#else
// Built without -mfma (shouldn't happen with the CMake flag probe,
// but keep the TU self-contained): falls back to mul-then-add and
// honestly reports itself as a tolerance lane.
inline __m256
gemmStep(__m256 acc, __m256 av, __m256 bv)
{
    return _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
}
constexpr bool kAvx2GemmFused = false;
#endif

/**
 * Columns [0, 8 * NV) of an M-row GEMM tile: M * NV 8-lane
 * accumulators, each B vector loaded once per M FMAs. With Masked,
 * the last vector covers only the lanes set in @p mask — masked
 * loads read +0 there without touching memory, masked stores leave
 * it alone — so the column tail runs the same per-lane chain as the
 * full vectors.
 */
template <int M, int NV, bool Masked>
inline void
gemmBlockAvx2(const float *a, int64_t lda, int k, const float *b,
              int64_t ldb, float *out, int64_t ldo, bool accumulate,
              __m256i mask)
{
    const auto load = [mask](const float *p, int v) {
        if (Masked && v == NV - 1)
            return _mm256_maskload_ps(p, mask);
        return _mm256_loadu_ps(p);
    };
    __m256 acc[M][NV];
#pragma GCC unroll 4
    for (int r = 0; r < M; ++r)
#pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            acc[r][v] = accumulate ? load(out + r * ldo + 8 * v, v)
                                   : _mm256_setzero_ps();
    for (int i = 0; i < k; ++i) {
        const float *bi = b + i * ldb;
        __m256 bv[NV];
#pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            bv[v] = load(bi + 8 * v, v);
#pragma GCC unroll 4
        for (int r = 0; r < M; ++r) {
            const __m256 av = _mm256_broadcast_ss(a + r * lda + i);
#pragma GCC unroll 3
            for (int v = 0; v < NV; ++v)
                acc[r][v] = gemmStep(acc[r][v], av, bv[v]);
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < M; ++r) {
#pragma GCC unroll 3
        for (int v = 0; v < NV; ++v) {
            float *p = out + r * ldo + 8 * v;
            if (Masked && v == NV - 1)
                _mm256_maskstore_ps(p, mask, acc[r][v]);
            else
                _mm256_storeu_ps(p, acc[r][v]);
        }
    }
}

/** An M-row tile: 4 x 24 register blocks (12 accumulators plus 3 B
 *  vectors and a broadcast fill the 16 ymm registers), then one
 *  masked block of up to 23 tail columns. */
template <int M>
void
gemmRowsAvx2(const float *a, int64_t lda, int k, const float *b,
             int64_t ldb, float *out, int64_t ldo, int n,
             bool accumulate)
{
    int j = 0;
    for (; j + 24 <= n; j += 24)
        gemmBlockAvx2<M, 3, false>(a, lda, k, b + j, ldb, out + j,
                                   ldo, accumulate, __m256i{});
    const int rem = n - j;
    if (rem == 0)
        return;
    const int lanes = rem % 8 != 0 ? rem % 8 : 8;
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    switch ((rem + 7) / 8) {
      case 1:
        gemmBlockAvx2<M, 1, true>(a, lda, k, b + j, ldb, out + j, ldo,
                                  accumulate, mask);
        break;
      case 2:
        gemmBlockAvx2<M, 2, true>(a, lda, k, b + j, ldb, out + j, ldo,
                                  accumulate, mask);
        break;
      default:
        gemmBlockAvx2<M, 3, true>(a, lda, k, b + j, ldb, out + j, ldo,
                                  accumulate, mask);
        break;
    }
}

void
gemmTileAvx2(const float *a, int64_t lda, int m, int k, const float *b,
             int64_t ldb, float *out, int64_t ldo, int n,
             bool accumulate)
{
    switch (m) {
      case 1:
        gemmRowsAvx2<1>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      case 2:
        gemmRowsAvx2<2>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      case 3:
        gemmRowsAvx2<3>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
      default:
        static_assert(kGemmTileRows == 4);
        gemmRowsAvx2<4>(a, lda, k, b, ldb, out, ldo, n, accumulate);
        break;
    }
}

void
biasReluRowAvx2(float *out, int n, float bias, bool relu)
{
    const __m256 vb = _mm256_set1_ps(bias);
    const __m256 zero = _mm256_setzero_ps();
    int j = 0;
    if (relu) {
        // VMAXPS(v, 0) returns the second operand on NaN and +0 for
        // -0 — exactly the reference `v > 0 ? v : +0`.
        for (; j + 8 <= n; j += 8) {
            const __m256 v =
                _mm256_add_ps(_mm256_loadu_ps(out + j), vb);
            _mm256_storeu_ps(out + j, _mm256_max_ps(v, zero));
        }
    } else {
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(
                out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), vb));
    }
    biasReluRowRef(out, j, n, bias, relu);
}

constexpr Kernels kAvx2Kernels = {
    "avx2",      Level::Avx2, censusRowAvx2,
    sadSpanAvx2, aggregateRowAvx2, costRowAvx2,
    gemmTileAvx2, biasReluRowAvx2,
    kAvx2GemmFused,
};

} // namespace

const Kernels *
avx2Kernels()
{
    return &kAvx2Kernels;
}

} // namespace asv::simd::detail

#else // !x86 or no -mavx2

namespace asv::simd::detail
{

const Kernels *
avx2Kernels()
{
    return nullptr;
}

} // namespace asv::simd::detail

#endif

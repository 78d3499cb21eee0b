/**
 * @file
 * Property tests for the f32 DNN-path SIMD kernels (gemmTile /
 * biasReluRow) and everything routed through them: the convNd GEMM
 * route, the fused transformedDeconv epilogue, and the
 * dnn::NetworkRuntime end-to-end path.
 *
 * The contract under test is docs/KERNELS.md's f32 contract:
 *  - tables with fusedF32 == true (scalar, AVX2+FMA, NEON) replay
 *    the scalar std::fmaf accumulation chain bit-exactly for finite
 *    inputs, across odd widths, non-lane-multiple reductions,
 *    denormals, and worker counts;
 *  - tables with fusedF32 == false (SSE4.2) round twice per step and
 *    agree to relative tolerance only — the one documented carve-out;
 *  - NaN *positions* propagate identically everywhere (payload bits
 *    may differ between software fmaf and hardware FMA);
 *  - biasReluRow is bit-identical on every level, and its ReLU sends
 *    NaN, -0 and -inf to +0 (`v > 0 ? v : +0`);
 *  - deconv::Plan (transformedDeconv and NetworkRuntime's deconv
 *    layers) matches the per-phase crop -> convGemm -> gather
 *    oracle bit for bit on the fused levels, and the GEMM route's
 *    pooled scratch does not grow with the input's spatial size;
 *  - NetworkRuntime::forward is allocation-free in the steady state
 *    and equivalent to the zero-insertion double-accumulation
 *    reference within an explicit tolerance.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "debug/alloc_tracker.hh"
#include "deconv/transform.hh"
#include "dnn/network.hh"
#include "dnn/runtime.hh"
#include "reference/conv_gemm_reference.hh"
#include "reference/deconv_reference.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"
#include "tensor/tensor.hh"

namespace
{

using namespace asv;
using tensor::Shape;
using tensor::Tensor;

std::vector<simd::Level>
supportedLevels()
{
    std::vector<simd::Level> levels;
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Sse42, simd::Level::Avx2,
          simd::Level::Neon}) {
        if (simd::levelSupported(level))
            levels.push_back(level);
    }
    return levels;
}

/** Force a SIMD level for one scope; restores the previous level. */
class LevelGuard
{
  public:
    explicit LevelGuard(simd::Level level)
        : previous_(simd::activeLevel())
    {
        simd::setLevel(level);
    }
    ~LevelGuard() { simd::setLevel(previous_); }

  private:
    simd::Level previous_;
};

std::vector<float>
randomVec(size_t n, Rng &rng, double lo = -1.0, double hi = 1.0)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.uniformReal(lo, hi));
    return v;
}

Tensor
randomTensor(const Shape &shape, Rng &rng, double lo = -1.0,
             double hi = 1.0)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniformReal(lo, hi));
    return t;
}

void
expectBitEqual(const float *a, const float *b, size_t n,
               const std::string &what)
{
    for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(a[i]),
                  std::bit_cast<uint32_t>(b[i]))
            << what << ": element " << i << ": " << a[i]
            << " != " << b[i];
    }
}

void
expectNear(const float *a, const float *b, size_t n, double rtol,
           double atol, const std::string &what)
{
    for (size_t i = 0; i < n; ++i) {
        const double tol =
            atol + rtol * std::max(std::abs(double(a[i])),
                                   std::abs(double(b[i])));
        ASSERT_NEAR(a[i], b[i], tol)
            << what << ": element " << i;
    }
}

// --------------------------------------------------------------- gemmTile

constexpr int kMR = simd::kGemmTileRows;
constexpr int kKC = tensor::kGemmKBlock;

std::vector<const simd::Kernels *>
vectorTables()
{
    std::vector<const simd::Kernels *> tables;
    for (simd::Level level :
         {simd::Level::Sse42, simd::Level::Avx2, simd::Level::Neon})
        if (const simd::Kernels *t = simd::kernelsFor(level))
            tables.push_back(t);
    return tables;
}

/**
 * A gemmTile result @p got against the scalar table's @p want, both
 * m x n with leading dimension @p ldo, for the operands a/b (and the
 * accumulated starting values @p init, or nullptr): bitwise on fused
 * tables. The mul-then-add tolerance lane is held to the classical
 * forward error bound instead — each of the two chains is within
 * gamma_(k+1) * (|init| + sum |a b|) of the exact sum, so they differ
 * by at most twice that.
 */
void
expectTileAgrees(const simd::Kernels *t, const float *got,
                 const float *want, int m, int n, int64_t ldo,
                 const float *a, int64_t lda, const float *b,
                 int64_t ldb, int k, const float *init,
                 const std::string &what)
{
    for (int r = 0; r < m; ++r) {
        if (t->fusedF32) {
            expectBitEqual(got + r * ldo, want + r * ldo, size_t(n),
                           what + " row " + std::to_string(r));
            continue;
        }
        for (int j = 0; j < n; ++j) {
            double mag = init ? std::abs(double(init[r * ldo + j])) : 0;
            for (int i = 0; i < k; ++i)
                mag += std::abs(double(a[r * lda + i]) * b[i * ldb + j]);
            const double tol = 1.01 * (k + 1) * 0x1p-23 * mag;
            ASSERT_NEAR(got[r * ldo + j], want[r * ldo + j], tol)
                << what << " row " << r << " column " << j;
        }
    }
}

/** One gemmTile call on strided operands (lda, ldb, ldo all wider
 *  than the tile) into an output pre-filled with @p fill. */
std::vector<float>
runTile(const simd::Kernels *t, const std::vector<float> &a, int64_t lda,
        int m, int k, const std::vector<float> &b, int64_t ldb, int n,
        int64_t ldo, float fill)
{
    std::vector<float> out(size_t(kMR) * size_t(ldo) + 3, fill);
    t->gemmTile(a.data(), lda, m, k, b.data(), ldb, out.data(), ldo,
                n, /*accumulate=*/false);
    return out;
}

TEST(GemmTile, MatchesScalarAcrossShapes)
{
    Rng rng(7);
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    ASSERT_NE(scalar, nullptr);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float guard = -777.0f;

    std::vector<int> ns = {1, 2, 3, 4, 5, 6, 7, 30};
    for (int j = 1; j <= 6; ++j)
        for (int r : {0, 1, 5})
            ns.push_back(8 * j + r);
    for (int m = 1; m <= kMR; ++m) {
        for (int k : {1, 7, kKC - 1, kKC, kKC + 1, 2 * kKC + 3}) {
            for (int n : ns) {
                const int64_t lda = k + 2;
                const int64_t ldb = n + 3;
                const int64_t ldo = n + 5;
                const std::vector<float> a =
                    randomVec(size_t(kMR) * size_t(lda), rng);
                const std::vector<float> b =
                    randomVec(size_t(k) * size_t(ldb), rng);
                const std::vector<float> want =
                    runTile(scalar, a, lda, m, k, b, ldb, n, ldo, guard);
                for (const simd::Kernels *t : vectorTables()) {
                    // Poisoned: gemmTile writes, it must not read out.
                    const std::vector<float> got =
                        runTile(t, a, lda, m, k, b, ldb, n, ldo, nan);
                    const std::string what =
                        std::string(t->name) + " m=" +
                        std::to_string(m) + " k=" + std::to_string(k) +
                        " n=" + std::to_string(n);
                    expectTileAgrees(t, got.data(), want.data(), m, n,
                                     ldo, a.data(), lda, b.data(), ldb,
                                     k, nullptr, what);
                    // Nothing outside the m x n tile is written.
                    for (size_t i = 0; i < got.size(); ++i) {
                        const bool in_tile =
                            int64_t(i) < m * ldo &&
                            int64_t(i) % ldo < n;
                        if (!in_tile) {
                            ASSERT_TRUE(std::isnan(got[i]))
                                << what << ": wrote index " << i;
                        }
                    }
                }
            }
        }
    }
}

TEST(GemmTile, AccumulateContinuesOneUnbrokenChain)
{
    Rng rng(9);
    const int k = 2 * kKC + 3;
    const int m = kMR;
    for (int n : {5, 24, 30, 53}) {
        const std::vector<float> a = randomVec(size_t(m) * k, rng);
        const std::vector<float> b = randomVec(size_t(k) * n, rng);
        const std::vector<float> init = randomVec(size_t(m) * n, rng);
        for (const simd::Kernels *t :
             {simd::kernelsFor(simd::Level::Scalar),
              simd::kernelsFor(simd::Level::Sse42),
              simd::kernelsFor(simd::Level::Avx2),
              simd::kernelsFor(simd::Level::Neon)}) {
            if (!t)
                continue;
            std::vector<float> whole(size_t(m) * n);
            t->gemmTile(a.data(), k, m, k, b.data(), n, whole.data(), n,
                        n, false);
            // The conv route's k-blocks, and uneven splits: the first
            // block writes, the rest continue from the stored float.
            for (const std::vector<int> &cuts :
                 {std::vector<int>{kKC, 2 * kKC}, std::vector<int>{1},
                  std::vector<int>{5, 6, kKC + 1}}) {
                std::vector<float> split(size_t(m) * n, 1e30f);
                int i0 = 0;
                for (size_t c = 0; c <= cuts.size(); ++c) {
                    const int i1 = c < cuts.size() ? cuts[c] : k;
                    t->gemmTile(a.data() + i0, k, m, i1 - i0,
                                b.data() + int64_t(i0) * n, n,
                                split.data(), n, n, i0 > 0);
                    i0 = i1;
                }
                // Exact on every table, the tolerance lane included:
                // a float partial is a float partial.
                expectBitEqual(split.data(), whole.data(), split.size(),
                               std::string(t->name) + " split n=" +
                                   std::to_string(n));
            }
            // Accumulating onto arbitrary starting values is the
            // scalar chain seeded with them.
            std::vector<float> want = init;
            simd::kernelsFor(simd::Level::Scalar)
                ->gemmTile(a.data(), k, m, k, b.data(), n, want.data(),
                           n, n, true);
            std::vector<float> got = init;
            t->gemmTile(a.data(), k, m, k, b.data(), n, got.data(), n, n,
                        true);
            expectTileAgrees(t, got.data(), want.data(), m, n, n,
                             a.data(), k, b.data(), n, k, init.data(),
                             std::string(t->name) + " seeded n=" +
                                 std::to_string(n));
        }
    }
}

TEST(GemmTile, NaNPositionsPropagate)
{
    Rng rng(11);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const int k = 9;
    const int n = 29;
    for (const simd::Kernels *t :
         {simd::kernelsFor(simd::Level::Scalar),
          simd::kernelsFor(simd::Level::Sse42),
          simd::kernelsFor(simd::Level::Avx2),
          simd::kernelsFor(simd::Level::Neon)}) {
        if (!t)
            continue;
        // NaN in one B column: only that column of every row is NaN.
        std::vector<float> a = randomVec(size_t(kMR) * k, rng);
        std::vector<float> b = randomVec(size_t(k) * size_t(n), rng);
        b[size_t(3) * n + 5] = nan;
        b[size_t(7) * n + 27] = nan; // in the masked tail
        std::vector<float> out(size_t(kMR) * n);
        t->gemmTile(a.data(), k, kMR, k, b.data(), n, out.data(), n, n,
                    false);
        for (int r = 0; r < kMR; ++r)
            for (int j = 0; j < n; ++j)
                EXPECT_EQ(j == 5 || j == 27,
                          std::isnan(out[size_t(r) * n + j]))
                    << t->name << " row " << r << " column " << j;
        // NaN in one A row: every output of that row only.
        b[size_t(3) * n + 5] = 0.5f;
        b[size_t(7) * n + 27] = 0.5f;
        a[size_t(2) * k + 4] = nan;
        t->gemmTile(a.data(), k, kMR, k, b.data(), n, out.data(), n, n,
                    false);
        for (int r = 0; r < kMR; ++r)
            for (int j = 0; j < n; ++j)
                EXPECT_EQ(r == 2, std::isnan(out[size_t(r) * n + j]))
                    << t->name << " row " << r << " column " << j;
    }
}

TEST(GemmTile, DenormalsStayExactOnFusedLanes)
{
    Rng rng(13);
    const int k = 8;
    const int n = 19;
    // Products around 1e-39..1e-41: results live in the denormal
    // range. No FTZ/DAZ anywhere (no -ffast-math), so fused lanes
    // must still match the scalar chain bit-for-bit.
    std::vector<float> a =
        randomVec(size_t(kMR) * k, rng, 1e-20, 2e-20);
    std::vector<float> b =
        randomVec(size_t(k) * size_t(n), rng, -2e-20, 2e-20);
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    std::vector<float> want(size_t(kMR) * n);
    scalar->gemmTile(a.data(), k, kMR, k, b.data(), n, want.data(), n,
                     n, false);
    bool any_denormal = false;
    for (float w : want)
        any_denormal = any_denormal ||
                       (w != 0.0f && std::abs(w) <
                                         std::numeric_limits<
                                             float>::min());
    EXPECT_TRUE(any_denormal) << "test inputs failed to produce "
                                 "denormal outputs";
    for (const simd::Kernels *t : vectorTables()) {
        std::vector<float> got(size_t(kMR) * n);
        t->gemmTile(a.data(), k, kMR, k, b.data(), n, got.data(), n, n,
                    false);
        if (t->fusedF32) {
            expectBitEqual(got.data(), want.data(), got.size(),
                           std::string(t->name) + " denormal");
        } else {
            for (size_t j = 0; j < got.size(); ++j)
                EXPECT_NEAR(got[j], want[j], 1e-42)
                    << t->name << " " << j;
        }
    }
}

// ------------------------------------------------------------ biasReluRow

TEST(BiasReluRow, BitIdenticalOnEveryLevel)
{
    Rng rng(17);
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    for (int n : {1, 3, 4, 7, 8, 9, 16, 33}) {
        for (float bias : {0.0f, 0.5f, -0.25f}) {
            for (bool relu : {false, true}) {
                const std::vector<float> in =
                    randomVec(size_t(n), rng, -2.0, 2.0);
                std::vector<float> want = in;
                scalar->biasReluRow(want.data(), n, bias, relu);
                for (const simd::Kernels *t :
                     {simd::kernelsFor(simd::Level::Sse42),
                      simd::kernelsFor(simd::Level::Avx2),
                      simd::kernelsFor(simd::Level::Neon)}) {
                    if (!t)
                        continue;
                    std::vector<float> got = in;
                    t->biasReluRow(got.data(), n, bias, relu);
                    expectBitEqual(
                        got.data(), want.data(), size_t(n),
                        std::string(t->name) +
                            " bias=" + std::to_string(bias) +
                            " relu=" + std::to_string(relu));
                }
            }
        }
    }
}

TEST(BiasReluRow, ReluSendsNaNNegZeroAndNegInfToPlusZero)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm =
        std::numeric_limits<float>::denorm_min();
    const std::vector<float> in = {nan,     -nan, -0.0f,  0.0f,
                                   -1.0f,   2.0f, denorm, -denorm,
                                   -inf,    inf,  0.25f,  -0.25f};
    for (const simd::Kernels *t :
         {simd::kernelsFor(simd::Level::Scalar),
          simd::kernelsFor(simd::Level::Sse42),
          simd::kernelsFor(simd::Level::Avx2),
          simd::kernelsFor(simd::Level::Neon)}) {
        if (!t)
            continue;
        std::vector<float> got = in;
        t->biasReluRow(got.data(), static_cast<int>(got.size()),
                       0.0f, /*relu=*/true);
        const std::vector<float> want = {0.0f,   0.0f, 0.0f, 0.0f,
                                         0.0f,   2.0f, denorm, 0.0f,
                                         0.0f,   inf,  0.25f,  0.0f};
        expectBitEqual(got.data(), want.data(), got.size(),
                       std::string(t->name) + " relu specials");
        // Without relu, NaN must survive (position, not payload).
        got = in;
        t->biasReluRow(got.data(), static_cast<int>(got.size()),
                       1.0f, /*relu=*/false);
        EXPECT_TRUE(std::isnan(got[0])) << t->name;
        EXPECT_TRUE(std::isnan(got[1])) << t->name;
        EXPECT_EQ(got[5], 3.0f) << t->name;
    }
}

// ----------------------------------------------------------- convNd route

TEST(ConvGemmRoute, MatchesDoubleAccumulationReference)
{
    Rng rng(23);
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);

    struct Case
    {
        Shape in, w;
        int64_t stride, pad;
    };
    // Odd spatial extents, non-lane-multiple channels, pointwise
    // (direct route), strided and padded variants.
    const std::vector<Case> cases = {
        {{3, 17, 13}, {5, 3, 3, 3}, 1, 1},
        {{1, 9, 7}, {1, 1, 3, 2}, 2, 0},
        {{4, 12, 10}, {2, 4, 1, 1}, 1, 0}, // 1x1 s1 p0: direct
        {{7, 5, 5}, {3, 7, 5, 5}, 1, 2},
        {{2, 21}, {3, 2, 4}, 3, 1},        // 1-D
    };
    for (const auto &[in_shape, w_shape, stride, pad] : cases) {
        const int nd = static_cast<int>(in_shape.size()) - 1;
        const Tensor in = randomTensor(in_shape, rng);
        const Tensor w = randomTensor(w_shape, rng);
        const auto spec = tensor::ConvSpec::uniform(nd, stride, pad);
        const Tensor fast = tensor::convNd(
            in, w, spec, tensor::ConvOp::MAC, nullptr, ctx);
        tensor::ConvStats stats;
        const Tensor ref = tensor::convNd(
            in, w, spec, tensor::ConvOp::MAC, &stats, ctx);
        ASSERT_EQ(fast.shape(), ref.shape());
        EXPECT_GT(stats.totalOps, 0);
        EXPECT_TRUE(fast.allClose(ref, 1e-4))
            << "max diff " << fast.maxAbsDiff(ref);
    }
}

TEST(ConvGemmRoute, EpilogueMatchesManualBiasRelu)
{
    Rng rng(29);
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    const Tensor in = randomTensor({3, 11, 9}, rng);
    const Tensor w = randomTensor({4, 3, 3, 3}, rng);
    const auto spec = tensor::ConvSpec::uniform(2, 1, 1);
    const std::vector<float> bias = randomVec(4, rng);

    tensor::ConvEpilogue epi;
    epi.bias = bias.data();
    epi.relu = true;
    const Tensor fused =
        tensor::convNd(in, w, spec, epi, nullptr, ctx);

    Tensor manual = tensor::convNd(in, w, spec, tensor::ConvOp::MAC,
                                   nullptr, ctx);
    const int64_t P = manual.size() / manual.dim(0);
    for (int64_t f = 0; f < manual.dim(0); ++f) {
        for (int64_t j = 0; j < P; ++j) {
            float &v = manual.data()[f * P + j];
            v += bias[size_t(f)];
            v = v > 0.0f ? v : 0.0f;
        }
    }
    // Same route + exact epilogue ops: bitwise.
    expectBitEqual(fused.data(), manual.data(), size_t(fused.size()),
                   "fused epilogue");
}

TEST(ConvGemmRoute, CrossLevelAndThreadIdentity)
{
    Rng rng(31);
    const Tensor in = randomTensor({5, 14, 11}, rng);
    const Tensor w = randomTensor({6, 5, 3, 3}, rng);
    const auto spec = tensor::ConvSpec::uniform(2, 1, 1);

    Tensor want;
    {
        LevelGuard g(simd::Level::Scalar);
        ThreadPool serial(1);
        BufferPool buffers;
        want = tensor::convNd(in, w, spec, tensor::ConvOp::MAC,
                              nullptr,
                              ExecContext(serial, buffers));
    }
    for (simd::Level level : supportedLevels()) {
        LevelGuard g(level);
        const bool fused = simd::kernelsFor(level)->fusedF32;
        for (int threads : {1, 3}) {
            ThreadPool pool(threads);
            BufferPool buffers;
            const Tensor got =
                tensor::convNd(in, w, spec, tensor::ConvOp::MAC,
                               nullptr, ExecContext(pool, buffers));
            const std::string what =
                std::string(simd::levelName(level)) + " threads=" +
                std::to_string(threads);
            if (fused) {
                expectBitEqual(got.data(), want.data(),
                               size_t(got.size()), what);
            } else {
                expectNear(got.data(), want.data(),
                           size_t(got.size()), 1e-5 * 45, 1e-7,
                           what);
            }
        }
    }
}

/** One convNdInto case against the unblocked oracle. */
struct RouteCase
{
    std::string name;
    Shape in, w;
    tensor::ConvSpec spec;
};

tensor::ConvSpec
makeSpec(Shape stride, Shape pad_lo, Shape pad_hi)
{
    tensor::ConvSpec spec;
    spec.stride = std::move(stride);
    spec.padLo = std::move(pad_lo);
    spec.padHi = std::move(pad_hi);
    return spec;
}

std::vector<RouteCase>
routeCases()
{
    using tensor::ConvSpec;
    return {
        // K = 1 head; R = 288 spans two k-blocks, P = 960 five panels.
        {"k1_head", {32, 48, 20}, {1, 32, 3, 3}, ConvSpec::uniform(2, 1, 1)},
        // K % MR != 0 and P = 6 < 8: one masked tail vector only.
        {"k6_p6", {3, 2, 3}, {6, 3, 3, 3}, ConvSpec::uniform(2, 1, 1)},
        // P = 30 (DispNet conv5 / upconv4 phases), R = 576 > 2 KC.
        {"p30", {64, 6, 20}, {9, 64, 3, 3}, ConvSpec::uniform(2, 2, 1)},
        // DispNet conv1 geometry: k7 s2 p3.
        {"k7s2p3", {3, 19, 23}, {5, 3, 7, 7}, ConvSpec::uniform(2, 2, 3)},
        // Stride 2 with padding beyond the kernel half: whole rows and
        // column spans of some taps land in the padding.
        {"s2_pad3", {2, 9, 11}, {4, 2, 3, 3}, ConvSpec::uniform(2, 2, 3)},
        {"asym_pad", {3, 8, 9}, {7, 3, 3, 2},
         makeSpec({2, 1}, {3, 0}, {1, 4})},
        // Pointwise stride-1 unpadded: the direct route, R = 300.
        {"direct", {300, 13, 17}, {7, 300, 1, 1},
         ConvSpec::uniform(2, 1, 0)},
        // Several panels with a ragged last one, K % MR = 1.
        {"panels", {16, 20, 25}, {13, 16, 3, 3},
         ConvSpec::uniform(2, 1, 1)},
        {"1d", {5, 37}, {3, 5, 4}, ConvSpec::uniform(1, 3, 2)},
        {"3d", {2, 5, 6, 7}, {5, 2, 3, 2, 3},
         makeSpec({1, 2, 1}, {1, 0, 2}, {1, 1, 0})},
    };
}

/** Runs every routeCases() entry through convNdInto at every
 *  supported level and 1/2/4 workers, twice into the same poisoned
 *  output; fused levels must memcmp-equal the oracle. */
void
checkRouteAgainstReference(bool with_epilogue)
{
    Rng rng(59);
    for (const RouteCase &rc : routeCases()) {
        const Tensor in = randomTensor(rc.in, rng);
        const Tensor w = randomTensor(rc.w, rng);
        const std::vector<float> bias =
            randomVec(size_t(rc.w[0]), rng, -0.5, 0.5);
        tensor::ConvEpilogue epi;
        epi.bias = bias.data();
        epi.relu = true;
        const tensor::ConvEpilogue *ep =
            with_epilogue ? &epi : nullptr;
        const Tensor want =
            tensor::reference::convGemm(in, w, rc.spec, ep);
        int64_t reduction = rc.w[1];
        for (size_t d = 2; d < rc.w.size(); ++d)
            reduction *= rc.w[d];
        for (simd::Level level : supportedLevels()) {
            LevelGuard g(level);
            const bool fused = simd::kernelsFor(level)->fusedF32;
            for (int threads : {1, 2, 4}) {
                ThreadPool pool(threads);
                BufferPool buffers;
                const ExecContext ctx(pool, buffers);
                Tensor got(want.shape());
                for (int rep = 0; rep < 2; ++rep) {
                    got.fill(std::numeric_limits<float>::quiet_NaN());
                    tensor::convNdInto(in, w, rc.spec, ep, ctx, got);
                    const std::string what =
                        rc.name + " " + simd::levelName(level) +
                        " threads=" + std::to_string(threads);
                    if (fused) {
                        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                              size_t(got.size()) *
                                                  sizeof(float)),
                                  0)
                            << what;
                    } else {
                        expectNear(got.data(), want.data(),
                                   size_t(got.size()),
                                   1e-5 * double(reduction), 1e-6,
                                   what);
                    }
                }
            }
        }
    }
}

TEST(ConvGemmRoute, MatchesReferenceBitwiseOnFusedLevels)
{
    checkRouteAgainstReference(/*with_epilogue=*/false);
}

TEST(ConvGemmRoute, MatchesReferenceWithEpilogue)
{
    checkRouteAgainstReference(/*with_epilogue=*/true);
}

// ------------------------------------------------------- transformedDeconv

TEST(TransformedDeconvF32, FusedEpilogueMatchesSeparatePass)
{
    Rng rng(37);
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    const Tensor in = randomTensor({3, 9, 7}, rng);
    const Tensor w = randomTensor({4, 3, 4, 4}, rng);
    const auto spec = tensor::DeconvSpec::uniform(2, 2, 1);
    const std::vector<float> bias = randomVec(4, rng);

    tensor::ConvEpilogue epi;
    epi.bias = bias.data();
    epi.relu = true;
    const Tensor fused =
        deconv::transformedDeconv(in, w, spec, epi, nullptr, ctx);

    Tensor manual =
        deconv::transformedDeconv(in, w, spec, nullptr, ctx);
    const int64_t P = manual.size() / manual.dim(0);
    for (int64_t f = 0; f < manual.dim(0); ++f) {
        for (int64_t j = 0; j < P; ++j) {
            float &v = manual.data()[f * P + j];
            v += bias[size_t(f)];
            v = v > 0.0f ? v : 0.0f;
        }
    }
    // Disjoint-phase fusion is exact: bitwise.
    expectBitEqual(fused.data(), manual.data(), size_t(fused.size()),
                   "fused deconv epilogue");
}

// ------------------------------------------------------------ deconv::Plan

/** One deconvolution shape for the plan-vs-oracle sweep. */
struct DeconvCase
{
    std::string name;
    Shape in, w;
    tensor::DeconvSpec spec;
};

tensor::DeconvSpec
deconvSpec(Shape stride, Shape pad)
{
    tensor::DeconvSpec spec;
    spec.stride = std::move(stride);
    spec.pad = std::move(pad);
    return spec;
}

std::vector<DeconvCase>
deconvCases()
{
    using tensor::DeconvSpec;
    return {
        // The DispNet upconv geometry: four 2 x 2 phases.
        {"k4s2p1", {5, 9, 11}, {6, 5, 4, 4}, DeconvSpec::uniform(2, 2, 1)},
        // q = k - 1 - p = 0: phase 1's ifmap shift is +1 (a leading
        // crop, i.e. a positive origin).
        {"crop", {3, 7, 8}, {5, 3, 3, 3}, DeconvSpec::uniform(2, 2, 2)},
        // k < s: one phase per dim has no taps (epilogue of zero).
        {"empty_phases", {2, 5, 6}, {3, 2, 2, 2},
         DeconvSpec::uniform(2, 3, 0)},
        {"asym_stride", {4, 6, 5}, {5, 4, 4, 3}, deconvSpec({2, 3}, {1, 0})},
        {"1d", {4, 37}, {5, 4, 4}, DeconvSpec::uniform(1, 2, 1)},
        {"3d", {3, 4, 5, 6}, {4, 3, 3, 4, 3}, DeconvSpec::uniform(3, 2, 1)},
        // 20 x 23 positions per phase = 192 + 192 + 76 (ragged last
        // panel); R = 70 * 4 = 280 spans two k-blocks.
        {"ragged_panels", {70, 20, 23}, {6, 70, 4, 4},
         DeconvSpec::uniform(2, 2, 1)},
        {"k1_filter", {8, 9, 10}, {1, 8, 4, 4}, DeconvSpec::uniform(2, 2, 1)},
        // K > kGemmTileFilters: a chunk's filter range fills the
        // output tile more than once.
        {"k261", {2, 3, 4}, {261, 2, 4, 4}, DeconvSpec::uniform(2, 2, 1)},
    };
}

/**
 * @p got against the oracle's @p want: memcmp on fused levels; on
 * the mul-then-add lane within the classical forward error bound of
 * a @p k-step chain, 1.01 (k + 1) 2^-23 (sum |a b| + |bias|), with
 * the magnitudes @p mag computed by the oracle on absolute values
 * (ReLU is 1-Lipschitz, so the bound survives it).
 */
void
expectMatchesOracle(const Tensor &got, const Tensor &want,
                    const Tensor &mag, int64_t k, bool fused,
                    const std::string &what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    if (fused) {
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              size_t(got.size()) * sizeof(float)),
                  0)
            << what;
        return;
    }
    for (int64_t i = 0; i < got.size(); ++i) {
        const double tol = 1.01 * double(k + 1) * 0x1p-23 *
                           std::abs(double(mag.data()[i]));
        ASSERT_NEAR(got.data()[i], want.data()[i], tol)
            << what << ": element " << i;
    }
}

Tensor
absTensor(const Tensor &t)
{
    Tensor a(t.shape());
    for (int64_t i = 0; i < t.size(); ++i)
        a.data()[i] = std::abs(t.data()[i]);
    return a;
}

void
checkPlanAgainstReference(bool with_epilogue)
{
    Rng rng(61);
    for (const DeconvCase &dc : deconvCases()) {
        const Tensor in = randomTensor(dc.in, rng);
        const Tensor w = randomTensor(dc.w, rng);
        std::vector<float> bias = randomVec(size_t(dc.w[0]), rng, -0.5, 0.5);
        tensor::ConvEpilogue epi{bias.data(), true};
        const tensor::ConvEpilogue *ep = with_epilogue ? &epi : nullptr;
        const Tensor want = deconv::reference::deconv(in, w, dc.spec, ep);
        std::vector<float> abs_bias(bias.size());
        for (size_t f = 0; f < bias.size(); ++f)
            abs_bias[f] = with_epilogue ? std::abs(bias[f]) : 0.0f;
        const tensor::ConvEpilogue abs_epi{abs_bias.data(), false};
        const Tensor mag = deconv::reference::deconv(
            absTensor(in), absTensor(w), dc.spec, &abs_epi);
        const int64_t reduction = w.size() / w.dim(0);
        const deconv::Plan plan =
            deconv::compilePlan(in.shape(), w, dc.spec);
        for (simd::Level level : supportedLevels()) {
            LevelGuard g(level);
            const bool fused = simd::kernelsFor(level)->fusedF32;
            for (int threads : {1, 2, 3, 4}) {
                ThreadPool pool(threads);
                BufferPool buffers;
                const ExecContext ctx(pool, buffers);
                const std::string what =
                    dc.name + " " + simd::levelName(level) +
                    " threads=" + std::to_string(threads);
                const Tensor got =
                    with_epilogue
                        ? deconv::transformedDeconv(in, w, dc.spec, epi,
                                                    nullptr, ctx)
                        : deconv::transformedDeconv(in, w, dc.spec,
                                                    nullptr, ctx);
                expectMatchesOracle(got, want, mag, reduction, fused,
                                    what);
                // The compiled plan, run twice into one poisoned
                // output: every position is written each time.
                Tensor again(plan.outShape);
                for (int rep = 0; rep < 2; ++rep) {
                    again.fill(std::numeric_limits<float>::quiet_NaN());
                    deconv::runPlan(plan, in, ep, ctx, again);
                    expectMatchesOracle(again, want, mag, reduction,
                                        fused, what + " runPlan");
                }
            }
        }
    }
}

TEST(DeconvPlan, MatchesReferenceBitwiseOnFusedLevels)
{
    checkPlanAgainstReference(/*with_epilogue=*/false);
}

TEST(DeconvPlan, MatchesReferenceWithEpilogue)
{
    checkPlanAgainstReference(/*with_epilogue=*/true);
}

/**
 * A chain with every deconv geometry the plan distinguishes — k4 s2
 * p1, a leading crop, k < s empty phases — plus convs, run through
 * NetworkRuntime::forward and, step by step with the runtime's own
 * weights, through the conv and deconv oracles.
 */
TEST(DeconvPlan, NetworkRuntimeMatchesReference)
{
    dnn::NetworkBuilder nb("plan-chain", 5, {7, 9});
    nb.conv("c1", 6, 3, 1, 1, dnn::Stage::FeatureExtraction);
    nb.activation("r1");
    nb.deconv("k4s2p1", 5, 4, 2, 1, dnn::Stage::DisparityRefinement);
    nb.activation("r2");
    nb.deconv("crop", 4, 3, 2, 2, dnn::Stage::DisparityRefinement);
    nb.deconv("empty", 3, 2, 3, 0, dnn::Stage::DisparityRefinement);
    nb.activation("r3");
    nb.conv("head", 1, 3, 1, 1, dnn::Stage::DisparityRefinement);
    const dnn::Network net = nb.build();
    dnn::NetworkRuntime rt(net, 17);
    ASSERT_EQ(rt.numSteps(), 5u);

    Rng rng(67);
    const Tensor in = randomTensor(rt.inputShape(), rng);
    // The same chain through the oracles, and the error-bound
    // magnitudes through them on absolute values.
    Tensor want = in, mag = absTensor(in);
    int64_t depth = 0; // reduction steps along the longest chain
    const bool relu[] = {true, true, false, true, false};
    size_t step = 0;
    for (const dnn::LayerDesc &l : net.layers()) {
        if (l.kind == dnn::LayerKind::Activation)
            continue;
        const Tensor &w = rt.weight(step);
        const tensor::ConvEpilogue epi{rt.bias(step).data(),
                                       relu[step]};
        std::vector<float> abs_bias = rt.bias(step);
        for (float &b : abs_bias)
            b = std::abs(b);
        const tensor::ConvEpilogue abs_epi{abs_bias.data(), false};
        if (l.kind == dnn::LayerKind::Conv) {
            const auto spec = tensor::ConvSpec::uniform(2, l.stride[0],
                                                        l.pad[0]);
            want = tensor::reference::convGemm(want, w, spec, &epi);
            mag = tensor::reference::convGemm(mag, absTensor(w), spec,
                                              &abs_epi);
        } else {
            const auto spec = tensor::DeconvSpec::uniform(2, l.stride[0],
                                                          l.pad[0]);
            want = deconv::reference::deconv(want, w, spec, &epi);
            mag = deconv::reference::deconv(mag, absTensor(w), spec,
                                            &abs_epi);
        }
        depth += w.size() / w.dim(0) + 1;
        ++step;
    }

    for (simd::Level level : supportedLevels()) {
        LevelGuard g(level);
        const bool fused = simd::kernelsFor(level)->fusedF32;
        for (int threads : {1, 2, 3, 4}) {
            ThreadPool pool(threads);
            BufferPool buffers;
            const Tensor &got = rt.forward(in, ExecContext(pool, buffers));
            // Per-layer rounding compounds through the chain; the
            // summed step counts bound it to first order.
            expectMatchesOracle(got, want, mag, depth, fused,
                                std::string(simd::levelName(level)) +
                                    " threads=" +
                                    std::to_string(threads));
        }
    }
}

/**
 * The GEMM route's only pooled memory is one packed block plus one
 * output tile per worker: after a forward pass the pool holds at
 * most that, and the same bytes when the input's spatial size
 * doubles (a materialized R x P column matrix grew with it).
 */
TEST(GemmScratch, PoolFootprintBoundedAndSizeIndependent)
{
    const auto resident = [](int64_t h, int64_t w, int threads) {
        dnn::NetworkBuilder nb("footprint", 6, {h, w});
        nb.conv("conv1", 16, 7, 2, 3, dnn::Stage::FeatureExtraction);
        nb.activation("relu1");
        nb.conv("conv2", 32, 5, 2, 2, dnn::Stage::FeatureExtraction);
        nb.activation("relu2");
        nb.deconv("upconv2", 16, 4, 2, 1,
                  dnn::Stage::DisparityRefinement);
        nb.activation("relu_u2");
        nb.deconv("upconv1", 8, 4, 2, 1,
                  dnn::Stage::DisparityRefinement);
        nb.conv("pr1", 1, 3, 1, 1, dnn::Stage::DisparityRefinement);
        dnn::NetworkRuntime rt(nb.build(), 3);
        Rng rng(71);
        const Tensor in = randomTensor(rt.inputShape(), rng);
        ThreadPool pool(threads);
        BufferPool buffers;
        rt.forward(in, ExecContext(pool, buffers));
        return buffers.stats().residentBytes;
    };
    const uint64_t scratch_bytes =
        uint64_t(tensor::kGemmKBlock + tensor::kGemmTileFilters) *
        tensor::kGemmPanel * sizeof(float);
    for (int threads : {1, 2, 4}) {
        const uint64_t small = resident(24, 40, threads);
        const uint64_t large = resident(48, 80, threads);
        // One cache line of alignment slack per buffer.
        EXPECT_LE(small, threads * scratch_bytes + 64)
            << "threads=" << threads;
        EXPECT_GT(small, 0u) << "threads=" << threads;
        EXPECT_EQ(small, large) << "threads=" << threads;
    }
}

// --------------------------------------------------------- NetworkRuntime

dnn::Network
makeTestNet()
{
    dnn::NetworkBuilder nb("e2e", 6, {11, 13});
    nb.conv("c1", 8, 3, 1, 1, dnn::Stage::FeatureExtraction);
    nb.activation("r1");
    nb.deconv("d1", 4, 4, 2, 1, dnn::Stage::DisparityRefinement);
    nb.activation("r2");
    nb.conv("c2", 3, 3, 1, 1, dnn::Stage::DisparityRefinement);
    nb.pool("p1", 2, 2);
    return nb.build();
}

TEST(NetworkRuntime, ForwardMatchesZeroInsertionReference)
{
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    dnn::NetworkRuntime rt(makeTestNet(), 42);
    EXPECT_EQ(rt.numSteps(), 4u); // two activations fused away

    Rng rng(41);
    const Tensor in = randomTensor(rt.inputShape(), rng);
    const Tensor &got = rt.forward(in, ctx);
    EXPECT_EQ(got.shape(), rt.outputShape());
    const Tensor ref = rt.referenceForward(in, ctx);
    ASSERT_EQ(got.shape(), ref.shape());
    // f32 FMA chains vs double accumulation: tolerance, not bits.
    EXPECT_TRUE(got.allClose(ref, 1e-3))
        << "max diff " << got.maxAbsDiff(ref);
}

TEST(NetworkRuntime, EmptyDeconvPhaseGetsEpilogueOfZero)
{
    // k=2, s=3: one output phase per dim has no kernel taps — its
    // positions must still receive relu(0 + bias).
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    dnn::NetworkBuilder nb("empty-phase", 2, {5, 5});
    nb.deconv("d", 3, 2, 3, 0, dnn::Stage::DisparityRefinement);
    nb.activation("r");
    dnn::NetworkRuntime rt(nb.build(), 7);

    Rng rng(43);
    const Tensor in = randomTensor(rt.inputShape(), rng);
    const Tensor &got = rt.forward(in, ctx);
    const Tensor ref = rt.referenceForward(in, ctx);
    EXPECT_TRUE(got.allClose(ref, 1e-4))
        << "max diff " << got.maxAbsDiff(ref);
}

TEST(NetworkRuntime, BitIdenticalAcrossWorkerCountsAndFusedLevels)
{
    dnn::NetworkRuntime rt(makeTestNet(), 42);
    Rng rng(47);
    const Tensor in = randomTensor(rt.inputShape(), rng);

    Tensor want;
    {
        LevelGuard g(simd::Level::Scalar);
        ThreadPool serial(1);
        BufferPool buffers;
        want = rt.forward(in, ExecContext(serial, buffers));
    }
    for (simd::Level level : supportedLevels()) {
        LevelGuard g(level);
        const bool fused = simd::kernelsFor(level)->fusedF32;
        for (int threads : {1, 4}) {
            ThreadPool pool(threads);
            BufferPool buffers;
            const Tensor &got =
                rt.forward(in, ExecContext(pool, buffers));
            const std::string what =
                std::string(simd::levelName(level)) + " threads=" +
                std::to_string(threads);
            if (fused) {
                expectBitEqual(got.data(), want.data(),
                               size_t(got.size()), what);
            } else {
                expectNear(got.data(), want.data(),
                           size_t(got.size()), 1e-4, 1e-6, what);
            }
        }
    }
}

TEST(NetworkRuntime, SteadyStateIsAllocationFree)
{
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    dnn::NetworkRuntime rt(makeTestNet(), 42);
    Rng rng(53);
    const Tensor in = randomTensor(rt.inputShape(), rng);

    // Warm the BufferPool (im2col scratch) and any lazy init.
    rt.forward(in, ctx);
    rt.forward(in, ctx);

    debug::AllocScope scope;
    rt.forward(in, ctx);
    EXPECT_EQ(scope.counts().allocs, 0u)
        << "DNN steady-state frame allocated";
}

} // namespace

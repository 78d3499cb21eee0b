/**
 * @file
 * Property tests for the runtime-dispatched SIMD kernel layer and the
 * wavefront SGM aggregation.
 *
 * The contract under test is bit-identity: every ASV_SIMD level must
 * produce output bit-identical to the scalar reference for census,
 * fused cost rows, SAD spans, and the full SGM / block-matching
 * pipelines (including through the Matcher registry), across odd
 * image sizes, sub-vector tails, census radii 1-3, and disparity
 * ranges that are not a multiple of any vector lane width. The
 * wavefront aggregation is additionally checked against a
 * straightforward serial directional reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "image/image.hh"
#include "reference/sgm_materialized.hh"
#include "stereo/block_matching.hh"
#include "stereo/matcher.hh"
#include "stereo/sgm.hh"

namespace
{

using namespace asv;

/** All levels this host/build can execute (always includes scalar). */
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

image::Image
randomImage(int w, int h, Rng &rng)
{
    image::Image img(w, h);
    for (int64_t i = 0; i < img.size(); ++i)
        img.data()[i] = float(rng.uniformReal(0.0, 255.0));
    return img;
}

/** Shifted copy with noise: a plausible "right" view of img. */
image::Image
shiftedImage(const image::Image &img, int shift, Rng &rng)
{
    image::Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            const int xs = std::max(0, x - shift);
            out.at(x, y) = img.at(xs, y) +
                           float(rng.uniformReal(-1.0, 1.0));
        }
    }
    return out;
}

void
expectBitIdentical(const stereo::DisparityMap &a,
                   const stereo::DisparityMap &b, const char *what)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            // Bit-level compare (no tolerance, and robust even if a
            // NaN sentinel were ever introduced).
            const float av = a.at(x, y), bv = b.at(x, y);
            ASSERT_EQ(std::bit_cast<uint32_t>(av),
                      std::bit_cast<uint32_t>(bv))
                << what << " differs at (" << x << ", " << y
                << "): " << av << " vs " << bv;
        }
    }
}

TEST(SimdDispatch, ScalarAlwaysSupported)
{
    EXPECT_TRUE(simd::levelSupported(simd::Level::Scalar));
    EXPECT_NE(simd::kernelsFor(simd::Level::Scalar), nullptr);
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
}

TEST(SimdDispatch, ActiveTableIsSupported)
{
    const simd::Kernels &k = simd::kernels();
    EXPECT_TRUE(simd::levelSupported(k.level));
    EXPECT_STREQ(k.name, simd::levelName(k.level));
    EXPECT_EQ(&k, simd::kernelsFor(k.level));
}

TEST(SimdDispatch, BestSupportedIsOrdered)
{
    // bestSupported() must name a level whose table exists, and no
    // listed-supported level may outrank it in the detection order.
    const simd::Level best = simd::bestSupported();
    EXPECT_TRUE(simd::levelSupported(best));
    if (simd::levelSupported(simd::Level::Avx2)) {
        EXPECT_EQ(best, simd::Level::Avx2);
    }
}

TEST(SimdDispatch, SetLevelRoundTrips)
{
    const simd::Level before = simd::activeLevel();
    for (simd::Level level : supportedLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(simd::activeLevel(), level);
        EXPECT_STREQ(simd::activeName(), simd::levelName(level));
    }
    EXPECT_EQ(simd::activeLevel(), before);
}

// ---------------------------------------------------------- kernel level

TEST(SimdKernels, SadSpanMatchesScalarOnOddSpans)
{
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    ASSERT_NE(scalar, nullptr);
    Rng rng(12);
    const int w = 96, h = 9;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = randomImage(w, h, rng);
    for (simd::Level level : supportedLevels()) {
        const simd::Kernels *k = simd::kernelsFor(level);
        ASSERT_NE(k, nullptr);
        for (int radius : {1, 2, 4}) {
            std::vector<const float *> lrows, rrows;
            for (int dy = -radius; dy <= radius; ++dy) {
                const int yr =
                    std::clamp(4 + dy, 0, h - 1);
                lrows.push_back(left.data() + int64_t(yr) * w);
                rrows.push_back(right.data() + int64_t(yr) * w);
            }
            const int x = w - radius - 1;
            for (int n : {1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 17}) {
                const int d0 = 3;
                ASSERT_GE(x - (d0 + n - 1) - radius, 0);
                std::vector<double> ref(n), got(n);
                scalar->sadSpan(lrows.data(), rrows.data(), radius,
                                x, d0, n, ref.data());
                k->sadSpan(lrows.data(), rrows.data(), radius, x,
                           d0, n, got.data());
                for (int j = 0; j < n; ++j) {
                    EXPECT_EQ(std::bit_cast<uint64_t>(ref[j]),
                              std::bit_cast<uint64_t>(got[j]))
                        << simd::levelName(level) << " r=" << radius
                        << " n=" << n << " j=" << j;
                }
            }
        }
    }
}

/**
 * Drive one aggregateRow call per level against the scalar table and
 * compare cur, total, the returned min, and the sentinel slots.
 * Buffers follow the kernel contract: prev has 0xFFFF sentinels at
 * [-1] and [nd], prev_min is the true minimum of prev.
 */
void
checkAggregateRow(const std::vector<uint16_t> &cost,
                  const std::vector<uint16_t> &prev_padded, int nd,
                  uint16_t p1, uint16_t p2, const char *what)
{
    ASSERT_EQ(int(cost.size()), nd);
    ASSERT_EQ(int(prev_padded.size()), nd + 2);
    ASSERT_EQ(prev_padded.front(), 0xFFFF);
    ASSERT_EQ(prev_padded.back(), 0xFFFF);
    const uint16_t *prev = prev_padded.data() + 1;
    const uint16_t prev_min =
        *std::min_element(prev, prev + nd);

    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    ASSERT_NE(scalar, nullptr);
    std::vector<uint16_t> ref_cur(nd + 2, 0xFFFF);
    std::vector<uint32_t> ref_total(nd);
    for (int d = 0; d < nd; ++d)
        ref_total[d] = uint32_t(d) * 977u; // nonzero accumulators
    const uint16_t ref_min = scalar->aggregateRow(
        cost.data(), prev, prev_min, nd, p1, p2,
        ref_cur.data() + 1, ref_total.data());

    for (simd::Level level : supportedLevels()) {
        const simd::Kernels *k = simd::kernelsFor(level);
        ASSERT_NE(k, nullptr);
        std::vector<uint16_t> cur(nd + 2, 0xFFFF);
        std::vector<uint32_t> total(nd);
        for (int d = 0; d < nd; ++d)
            total[d] = uint32_t(d) * 977u;
        const uint16_t got_min =
            k->aggregateRow(cost.data(), prev, prev_min, nd, p1, p2,
                            cur.data() + 1, total.data());
        EXPECT_EQ(ref_min, got_min)
            << simd::levelName(level) << " " << what;
        EXPECT_EQ(ref_cur, cur)
            << simd::levelName(level) << " " << what;
        EXPECT_EQ(ref_total, total)
            << simd::levelName(level) << " " << what;
        // The kernel must never touch the caller's sentinels.
        EXPECT_EQ(cur.front(), 0xFFFF) << what;
        EXPECT_EQ(cur.back(), 0xFFFF) << what;
    }
}

TEST(SimdKernels, AggregateRowMatchesScalarOnOddLaneCounts)
{
    Rng rng(13);
    // nd values straddling the 8- and 16-lane widths, including the
    // single-disparity degenerate case and non-multiples of both.
    for (int nd : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65,
                   100}) {
        std::vector<uint16_t> cost(nd), prev(nd + 2, 0xFFFF);
        for (int d = 0; d < nd; ++d) {
            cost[d] = uint16_t(rng.uniformInt(0, 200));
            prev[d + 1] = uint16_t(rng.uniformInt(0, 4000));
        }
        checkAggregateRow(cost, prev, nd, 3, 40, "odd lanes");
        checkAggregateRow(cost, prev, nd, 0, 0, "zero penalties");
    }
}

TEST(SimdKernels, AggregateRowSaturatesNearUint16Max)
{
    Rng rng(14);
    // Costs and previous path values near the ceiling force the
    // sat16 clamp, and ceiling penalties force the saturating adds
    // on the neighbor/p2 candidates — the exact paths where a
    // non-saturating vector add would diverge from the scalar
    // clamped-uint32 order.
    for (int nd : {5, 16, 23, 64}) {
        for (const auto &[p1, p2] :
             {std::pair<uint16_t, uint16_t>{3, 40},
              {1000, 60000},
              {0xFFFF, 0xFFFF}}) {
            std::vector<uint16_t> cost(nd), prev(nd + 2, 0xFFFF);
            for (int d = 0; d < nd; ++d) {
                cost[d] =
                    uint16_t(rng.uniformInt(0xFFF0, 0xFFFF));
                prev[d + 1] =
                    uint16_t(rng.uniformInt(0xFF00, 0xFFFF));
            }
            checkAggregateRow(cost, prev, nd, p1, p2, "saturation");
        }
    }
}

TEST(SimdKernels, AggregateRowSingleDisparityDegenerate)
{
    // nd == 1: no neighbors at all — only the prev_min + p2 candidate
    // competes with prev[0], and every vector body must fall through
    // to the shared scalar tail.
    for (uint16_t c : {uint16_t(0), uint16_t(7), uint16_t(0xFFFF)}) {
        std::vector<uint16_t> cost{c};
        std::vector<uint16_t> prev{0xFFFF, 42, 0xFFFF};
        checkAggregateRow(cost, prev, 1, 3, 40, "nd=1");
    }
}

// -------------------------------------------------------- pipeline level

TEST(SimdProperty, CensusBitIdenticalAcrossLevelsAndRadii)
{
    Rng rng(21);
    // Odd widths force sub-vector tails; width 5 with radius 3 makes
    // the interior span empty (pure border path).
    const std::pair<int, int> sizes[] = {
        {5, 7}, {17, 9}, {33, 12}, {64, 5}, {129, 11}};
    for (const auto &[w, h] : sizes) {
        const image::Image img = randomImage(w, h, rng);
        for (int radius = 1; radius <= 3; ++radius) {
            LevelGuard scalar(simd::Level::Scalar);
            const auto ref = stereo::censusTransform(img, radius);
            for (simd::Level level : supportedLevels()) {
                LevelGuard guard(level);
                const auto got =
                    stereo::censusTransform(img, radius);
                ASSERT_EQ(ref, got)
                    << simd::levelName(level) << " " << w << "x" << h
                    << " r=" << radius;
            }
        }
    }
}

TEST(SimdProperty, CostVolumeBitIdenticalAcrossLevels)
{
    Rng rng(22);
    // maxDisparity 7 / 37 / 61: never a multiple of the 4- or
    // 8-wide lane counts, and larger than some test widths.
    for (const auto &[w, h, max_d] :
         {std::tuple{19, 13, 7}, {47, 9, 37}, {66, 7, 61}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 3, rng);
        stereo::SgmParams params;
        params.maxDisparity = max_d;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref = stereo::reference::sgmCostVolume(
            left, right, params, ExecContext::global());
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard(level);
            const auto got = stereo::reference::sgmCostVolume(
                left, right, params, ExecContext::global());
            ASSERT_EQ(ref.cost, got.cost)
                << simd::levelName(level) << " " << w << "x" << h
                << " maxD=" << max_d;
        }
    }
}

TEST(SimdProperty, SgmDisparityBitIdenticalAcrossLevels)
{
    Rng rng(23);
    for (const auto &[w, h, max_d, radius] :
         {std::tuple{21, 17, 7, 1}, {45, 19, 37, 2}, {33, 9, 13, 3}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 4, rng);
        stereo::SgmParams params;
        params.maxDisparity = max_d;
        params.censusRadius = radius;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref = stereo::sgmCompute(left, right, params);
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard(level);
            const auto got = stereo::sgmCompute(left, right, params);
            expectBitIdentical(ref, got, "sgm disparity");
        }
    }
}

TEST(SimdProperty, BlockMatchingBitIdenticalAcrossLevels)
{
    Rng rng(24);
    for (const auto &[w, h, max_d] :
         {std::tuple{23, 15, 7}, {49, 11, 37}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 3, rng);
        stereo::BlockMatchingParams params;
        params.maxDisparity = max_d;
        params.uniquenessRatio = 0.05f;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref = stereo::blockMatching(left, right, params);
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard(level);
            const auto got =
                stereo::blockMatching(left, right, params);
            expectBitIdentical(ref, got, "block matching");
        }
    }
}

TEST(SimdProperty, GuidedRefinementBitIdenticalAcrossLevels)
{
    Rng rng(25);
    const int w = 41, h = 13;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = shiftedImage(left, 5, rng);
    stereo::DisparityMap init(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            init.at(x, y) = (x + y) % 3 == 0
                                ? stereo::kInvalidDisparity
                                : float(rng.uniformInt(0, 6));
    stereo::BlockMatchingParams params;
    params.maxDisparity = 19;
    LevelGuard scalar(simd::Level::Scalar);
    const auto ref =
        stereo::refineDisparity(left, right, init, 2, params);
    for (simd::Level level : supportedLevels()) {
        LevelGuard guard(level);
        const auto got =
            stereo::refineDisparity(left, right, init, 2, params);
        expectBitIdentical(ref, got, "guided refinement");
    }
}

TEST(SimdProperty, MatcherRegistryBitIdenticalAcrossLevels)
{
    Rng rng(26);
    const int w = 37, h = 15;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = shiftedImage(left, 3, rng);
    for (const char *spec : {"sgm", "bm"}) {
        const auto matcher =
            stereo::makeMatcher(spec, "maxDisparity=21");
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref =
            matcher->compute(left, right, ExecContext::global());
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard(level);
            const auto got =
                matcher->compute(left, right, ExecContext::global());
            expectBitIdentical(ref, got, spec);
        }
    }
}

TEST(SimdProperty, LevelsBitIdenticalAcrossWorkerCounts)
{
    Rng rng(27);
    const int w = 39, h = 21;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = shiftedImage(left, 4, rng);
    stereo::SgmParams params;
    params.maxDisparity = 23;
    ThreadPool serial(1), pool(4);
    for (simd::Level level : supportedLevels()) {
        LevelGuard guard(level);
        const auto a = stereo::sgmCompute(left, right, params,
                                          ExecContext(serial));
        const auto b = stereo::sgmCompute(left, right, params,
                                          ExecContext(pool));
        expectBitIdentical(a, b, "threads x simd");
    }
}

// ------------------------------------------- wavefront vs directional

/**
 * Straightforward serial reference of the original 8-direction SGM:
 * pixel-major cost volume, one full L_r volume per direction, scan
 * order chosen so the predecessor is always computed first. This is
 * the semantics the wavefront/scanline aggregation must reproduce.
 */
stereo::DisparityMap
referenceSgm(const image::Image &left, const image::Image &right,
             const stereo::SgmParams &params)
{
    const int w = left.width(), h = left.height();
    const int nd = params.maxDisparity + 1;
    const auto idx = [&](int x, int y, int d) {
        return (int64_t(y) * w + x) * nd + d;
    };

    LevelGuard scalar(simd::Level::Scalar);
    const auto cl = stereo::censusTransform(left, params.censusRadius);
    const auto cr =
        stereo::censusTransform(right, params.censusRadius);
    std::vector<uint16_t> cost(int64_t(w) * h * nd);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            for (int d = 0; d < nd; ++d) {
                const int xr = std::max(0, x - d);
                cost[idx(x, y, d)] = uint16_t(std::popcount(
                    cl[int64_t(y) * w + x] ^ cr[int64_t(y) * w + xr]));
            }

    std::vector<uint32_t> total(cost.size(), 0);
    const int dirs[8][2] = {{1, 0},  {-1, 0}, {0, 1},  {0, -1},
                            {1, 1},  {-1, 1}, {1, -1}, {-1, -1}};
    for (const auto &dir : dirs) {
        const int dx = dir[0], dy = dir[1];
        std::vector<uint16_t> lr(cost.size());
        const int y_begin = dy >= 0 ? 0 : h - 1;
        const int y_end = dy >= 0 ? h : -1;
        const int y_step = dy >= 0 ? 1 : -1;
        const int x_begin = dx >= 0 ? 0 : w - 1;
        const int x_end = dx >= 0 ? w : -1;
        const int x_step = dx >= 0 ? 1 : -1;
        for (int y = y_begin; y != y_end; y += y_step) {
            for (int x = x_begin; x != x_end; x += x_step) {
                const int px = x - dx, py = y - dy;
                const bool has_prev =
                    px >= 0 && px < w && py >= 0 && py < h;
                uint16_t prev_min = 0;
                const uint16_t *prev = nullptr;
                if (has_prev) {
                    prev = &lr[idx(px, py, 0)];
                    prev_min =
                        *std::min_element(prev, prev + nd);
                }
                for (int d = 0; d < nd; ++d) {
                    uint32_t best;
                    if (!has_prev) {
                        best = 0;
                    } else {
                        best = prev[d];
                        if (d > 0)
                            best = std::min<uint32_t>(
                                best, prev[d - 1] + params.p1);
                        if (d + 1 < nd)
                            best = std::min<uint32_t>(
                                best, prev[d + 1] + params.p1);
                        best = std::min<uint32_t>(
                            best, uint32_t(prev_min) + params.p2);
                        best -= prev_min;
                    }
                    const uint32_t v = cost[idx(x, y, d)] + best;
                    lr[idx(x, y, d)] = uint16_t(
                        std::min<uint32_t>(v, 0xFFFF));
                    total[idx(x, y, d)] += lr[idx(x, y, d)];
                }
            }
        }
    }

    stereo::DisparityMap disp(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const uint32_t *s = &total[idx(x, y, 0)];
            int best = 0;
            for (int d = 1; d < nd; ++d)
                if (s[d] < s[best])
                    best = d;
            float dv = float(best);
            if (params.subpixel && best > 0 && best + 1 < nd) {
                const double cm = s[best - 1], c0 = s[best];
                const double cp = s[best + 1];
                const double denom = cm - 2.0 * c0 + cp;
                if (denom > 1e-12) {
                    dv += float(std::clamp(
                        0.5 * (cm - cp) / denom, -0.5, 0.5));
                }
            }
            disp.at(x, y) = dv;
        }
    }

    if (params.leftRightCheck) {
        stereo::DisparityMap right_disp(w, h);
        for (int y = 0; y < h; ++y) {
            for (int xr = 0; xr < w; ++xr) {
                int best = 0;
                uint32_t best_v =
                    std::numeric_limits<uint32_t>::max();
                for (int d = 0; d < nd; ++d) {
                    const int xl = xr + d;
                    if (xl >= w)
                        break;
                    const uint32_t v = total[idx(xl, y, d)];
                    if (v < best_v) {
                        best_v = v;
                        best = d;
                    }
                }
                right_disp.at(xr, y) = float(best);
            }
        }
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                const int d = int(std::lround(disp.at(x, y)));
                const int xr = x - d;
                if (xr < 0 || std::abs(right_disp.at(xr, y) - d) >
                                  params.lrTolerance) {
                    disp.at(x, y) = stereo::kInvalidDisparity;
                }
            }
        }
    }
    return disp;
}

TEST(WavefrontSgm, MatchesDirectionalReference)
{
    Rng rng(31);
    for (const auto &[w, h, max_d, lr_check, subpixel] :
         {std::tuple{25, 19, 11, true, true},
          {33, 14, 15, false, true},
          {18, 27, 7, true, false}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 3, rng);
        stereo::SgmParams params;
        params.maxDisparity = max_d;
        params.leftRightCheck = lr_check;
        params.subpixel = subpixel;
        const auto ref = referenceSgm(left, right, params);
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard(level);
            const auto got = stereo::sgmCompute(left, right, params);
            expectBitIdentical(ref, got, "wavefront vs directional");
        }
    }
}

TEST(WavefrontSgm, SingleDisparityDegenerate)
{
    // maxDisparity == 0 (nd == 1): the aggregation recurrence has no
    // neighbor candidates and WTA has nothing to argmin over; every
    // level must still agree with the directional reference.
    Rng rng(33);
    const image::Image left = randomImage(21, 11, rng);
    const image::Image right = shiftedImage(left, 0, rng);
    stereo::SgmParams params;
    params.maxDisparity = 0;
    const auto ref = referenceSgm(left, right, params);
    for (simd::Level level : supportedLevels()) {
        LevelGuard guard(level);
        const auto got = stereo::sgmCompute(left, right, params);
        expectBitIdentical(ref, got, "single disparity");
    }
}

TEST(WavefrontSgm, PenaltiesAboveUint16CeilingMatchReference)
{
    // sgmCompute clamps p1/p2 to 0xFFFF before entering the kernels;
    // a penalty above the ceiling can never win the min against
    // prev[d] <= 0xFFFF, so the unclamped uint32 reference must
    // agree bit for bit.
    Rng rng(34);
    const image::Image left = randomImage(19, 15, rng);
    const image::Image right = shiftedImage(left, 2, rng);
    stereo::SgmParams params;
    params.maxDisparity = 13;
    params.p1 = 70000;
    params.p2 = 200000;
    const auto ref = referenceSgm(left, right, params);
    for (simd::Level level : supportedLevels()) {
        LevelGuard guard(level);
        const auto got = stereo::sgmCompute(left, right, params);
        expectBitIdentical(ref, got, "huge penalties");
    }
}

TEST(WavefrontSgm, MatchesReferenceOnManyWorkers)
{
    // More workers than rows/columns exercises empty chunks and the
    // strip/wavefront edge cases.
    Rng rng(32);
    const image::Image left = randomImage(13, 7, rng);
    const image::Image right = shiftedImage(left, 2, rng);
    stereo::SgmParams params;
    params.maxDisparity = 9;
    const auto ref = referenceSgm(left, right, params);
    ThreadPool pool(16);
    const auto got =
        stereo::sgmCompute(left, right, params, ExecContext(pool));
    expectBitIdentical(ref, got, "wavefront many workers");
}

} // namespace

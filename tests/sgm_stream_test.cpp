/**
 * @file
 * Tests for the fused, tiled, streaming SGM engine: bit-identity
 * against the materialized reference (tests/reference/; odd sizes,
 * non-lane-multiple disparity ranges, every SIMD level, 1 and 8
 * workers), the 4/5-path variants, parameter validation, the
 * resident-footprint contract, and allocation-free steady state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "reference/sgm_materialized.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"
#include "stereo/sgm.hh"

namespace
{

using namespace asv;

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
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            img.at(x, y) = float(rng.uniformReal(0.0, 255.0));
    return img;
}

/** Right view: left shifted by ~d with noise, like simd_test's. */
image::Image
shiftedImage(const image::Image &img, int d, Rng &rng)
{
    image::Image out(img.width(), img.height());
    for (int y = 0; y < out.height(); ++y) {
        for (int x = 0; x < out.width(); ++x) {
            const int xs = std::max(0, x - d);
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
    ASSERT_EQ(a.width(), b.width()) << what;
    ASSERT_EQ(a.height(), b.height()) << what;
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            const float av = a.at(x, y), bv = b.at(x, y);
            ASSERT_EQ(std::memcmp(&av, &bv, sizeof(float)), 0)
                << what << " differs at (" << x << ", " << y
                << "): " << av << " vs " << bv;
        }
    }
}

// ------------------------------------------- fused vs materialized

TEST(SgmStream, FusedBitIdenticalToMaterialized)
{
    Rng rng(31);
    ThreadPool t1(1), t8(8);
    // Odd widths/heights force sub-vector tails everywhere; the
    // disparity counts (nd = maxD + 1) avoid 4/8-lane multiples.
    for (const auto &[w, h, max_d, radius] :
         {std::tuple{13, 7, 7, 1}, {33, 17, 13, 2}, {45, 19, 37, 2},
          {64, 33, 31, 3}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 4, rng);
        stereo::SgmParams params;
        params.maxDisparity = max_d;
        params.censusRadius = radius;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref = stereo::reference::sgmComputeMaterialized(
            left, right, params, ExecContext(t1));
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard(level);
            for (ThreadPool *pool : {&t1, &t8}) {
                const auto got = stereo::sgmCompute(
                    left, right, params, ExecContext(*pool));
                expectBitIdentical(ref, got, "fused vs materialized");
            }
        }
    }
}

// --------------------------------------------------- 4/5-path modes

TEST(SgmStream, FewerPathsBitIdenticalAcrossLevelsAndThreads)
{
    Rng rng(33);
    ThreadPool t1(1), t8(8);
    const image::Image left = randomImage(39, 21, rng);
    const image::Image right = shiftedImage(left, 4, rng);
    for (int paths : {4, 5}) {
        stereo::SgmParams params;
        params.maxDisparity = 23;
        params.paths = paths;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref =
            stereo::sgmCompute(left, right, params, ExecContext(t1));
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard(level);
            for (ThreadPool *pool : {&t1, &t8}) {
                const auto got = stereo::sgmCompute(
                    left, right, params, ExecContext(*pool));
                expectBitIdentical(ref, got, "paths variant");
            }
        }
    }
}

TEST(SgmStream, FewerPathsRecoverConstantDisparity)
{
    Rng rng(34);
    image::Image tex = data::makeTexture(160, 64, 7.f, rng);
    image::Image left(tex.width() - 12, tex.height());
    image::Image right(tex.width() - 12, tex.height());
    for (int y = 0; y < left.height(); ++y) {
        for (int x = 0; x < left.width(); ++x) {
            left.at(x, y) = tex.at(x, y);
            right.at(x, y) = tex.at(x + 12, y);
        }
    }
    stereo::DisparityMap gt(left.width(), left.height());
    gt.fill(12.f);
    for (int paths : {4, 5, 8}) {
        stereo::SgmParams params;
        params.maxDisparity = 32;
        params.paths = paths;
        const auto d = stereo::sgmCompute(left, right, params);
        EXPECT_LT(stereo::badPixelRate(d, gt, 1.0, 32), 5.0)
            << "paths=" << paths;
    }
}

TEST(SgmStream, RegistryRejectsBadPathOptions)
{
    EXPECT_THROW(stereo::makeMatcher("sgm", "paths=6"),
                 std::invalid_argument);
    EXPECT_THROW(stereo::makeMatcher("sgm", "lrTolerance=-1"),
                 std::invalid_argument);
    // A spec naming a key the engine does not have must throw, not
    // silently run the defaults.
    for (const char *removed : {"fused=0", "rangePrune=1",
                                "pruneMargin=3"}) {
        EXPECT_THROW(stereo::makeMatcher("sgm", removed),
                     std::invalid_argument)
            << removed;
    }
}

TEST(SgmStreamDeathTest, RejectsNegativeMaxDisparityAndLrTolerance)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(35);
    const image::Image left = randomImage(17, 9, rng);
    const image::Image right = shiftedImage(left, 2, rng);
    stereo::SgmParams params;
    params.maxDisparity = -1;
    EXPECT_DEATH(stereo::sgmCompute(left, right, params),
                 "maxDisparity must be >= 0");
    params.maxDisparity = 8;
    params.lrTolerance = -1;
    EXPECT_DEATH(stereo::sgmCompute(left, right, params),
                 "lrTolerance must be >= 0");
}

// -------------------------------------------------- resident memory

TEST(SgmStream, FusedResidentFootprintAtLeast4xSmaller)
{
    Rng rng(40);
    const int n = 256;
    const image::Image left = randomImage(n, n, rng);
    const image::Image right = shiftedImage(left, 8, rng);
    stereo::SgmParams params;
    params.maxDisparity = 63;

    // Run each engine in a fresh arena; once the result dies, every
    // buffer the run touched is shelved, so residentBytes is the
    // engine's whole resident footprint.
    auto footprint = [&](bool fused) {
        ThreadPool pool(2);
        BufferPool buffers;
        const ExecContext ctx(pool, buffers);
        {
            const auto d =
                fused ? stereo::sgmCompute(left, right, params, ctx)
                      : stereo::reference::sgmComputeMaterialized(
                            left, right, params, ctx);
            EXPECT_EQ(d.width(), n);
        }
        return buffers.stats().residentBytes;
    };
    const uint64_t materialized = footprint(false);
    const uint64_t fused = footprint(true);
    EXPECT_GE(materialized, fused * 4)
        << "materialized " << materialized << " B vs fused " << fused
        << " B";
}

// ------------------------------------------------------ allocations

TEST(SgmStream, SteadyStateIsAllocationFree)
{
    Rng rng(41);
    const image::Image left = randomImage(96, 64, rng);
    const image::Image right = shiftedImage(left, 6, rng);

    struct Case
    {
        const char *name;
        int paths;
    };
    for (const Case &c : {Case{"fused-8", 8}, Case{"paths-4", 4}}) {
        SCOPED_TRACE(c.name);
        ThreadPool pool(2);
        BufferPool buffers;
        const ExecContext ctx(pool, buffers);
        stereo::SgmParams params;
        params.maxDisparity = 32;
        params.paths = c.paths;
        auto run = [&]() {
            return stereo::sgmCompute(left, right, params, ctx);
        };
        stereo::DisparityMap d;
        for (int i = 0; i < 3; ++i)
            d = run(); // warm every shelf shape
        {
            // Tile scratch, wavefront rows, and the output map must
            // all recycle through the pool.
            ASV_ASSERT_NO_ALLOC;
            for (int i = 0; i < 3; ++i)
                d = run();
        }
        EXPECT_EQ(d.width(), left.width());
    }
}

} // namespace

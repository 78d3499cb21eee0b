/**
 * @file
 * Tests for the fused, tiled, streaming SGM engine: bit-identity
 * against the materialized reference (tests/reference/; odd sizes,
 * non-lane-multiple disparity ranges, every SIMD level, 1 and 8
 * workers), the 4/5-path variants, the band-cell wavefront schedule
 * (multi-tile shapes, 1-8 workers, fewer columns than bands, nested
 * and starved pools), parameter validation, the resident-footprint
 * contract, and allocation-free steady state.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <latch>
#include <thread>
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

// ------------------------------------------ band-cell wavefront

/**
 * Run @p fn on its own thread and abort the process if it has not
 * returned within @p seconds: a schedule that deadlocks must fail
 * the suite, not hang it.
 */
template <typename Fn>
auto
withTimeout(int seconds, Fn fn)
{
    std::packaged_task<decltype(fn())()> task(std::move(fn));
    auto result = task.get_future();
    std::thread runner(std::move(task));
    if (result.wait_for(std::chrono::seconds(seconds)) !=
        std::future_status::ready) {
        std::fprintf(stderr, "SGM did not finish within %d s: the "
                             "wavefront schedule deadlocked\n",
                     seconds);
        std::abort();
    }
    runner.join();
    return result.get();
}

TEST(SgmStream, MultiTileBitIdenticalAcrossWorkerCounts)
{
    // A tile holds clamp(2 MiB / (w * nd * 6 B), 2, 64) rows. Both
    // shapes span three or more tiles with a ragged last one:
    // 40 x 150 at nd 16 is 64 + 64 + 22 rows, 200 x 70 at nd 65 is
    // 26 + 26 + 18. Odd band widths at 3 and 8 workers.
    Rng rng(36);
    ThreadPool t1(1), t2(2), t3(3), t4(4), t8(8);
    for (const auto &[w, h, max_d] :
         {std::tuple{40, 150, 15}, {200, 70, 64}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 5, rng);
        for (int paths : {8, 4, 5}) {
            SCOPED_TRACE(::testing::Message()
                         << w << "x" << h << " paths=" << paths);
            stereo::SgmParams params;
            params.maxDisparity = max_d;
            params.paths = paths;
            LevelGuard scalar(simd::Level::Scalar);
            const auto serial =
                stereo::sgmCompute(left, right, params, ExecContext(t1));
            if (paths == 8) {
                // The oracle aggregates all 8 directions only.
                expectBitIdentical(
                    stereo::reference::sgmComputeMaterialized(
                        left, right, params, ExecContext(t1)),
                    serial, "1 worker vs materialized");
            }
            for (simd::Level level : supportedLevels()) {
                LevelGuard guard(level);
                for (ThreadPool *pool : {&t1, &t2, &t3, &t4, &t8}) {
                    const auto got = stereo::sgmCompute(
                        left, right, params, ExecContext(*pool));
                    expectBitIdentical(serial, got,
                                       "N workers vs 1 worker");
                }
            }
        }
    }
}

TEST(SgmStream, NarrowerThanBandCount)
{
    // w < workers: one band per column, and disparity ranges wider
    // than the image.
    Rng rng(37);
    ThreadPool t1(1), t8(8);
    for (int w : {1, 2, 3}) {
        SCOPED_TRACE(::testing::Message() << "w=" << w);
        const image::Image left = randomImage(w, 23, rng);
        const image::Image right = shiftedImage(left, 1, rng);
        stereo::SgmParams params;
        params.maxDisparity = 4;
        const auto ref = stereo::reference::sgmComputeMaterialized(
            left, right, params, ExecContext(t1));
        expectBitIdentical(
            ref, stereo::sgmCompute(left, right, params, ExecContext(t1)),
            "1 worker vs materialized");
        expectBitIdentical(
            ref, stereo::sgmCompute(left, right, params, ExecContext(t8)),
            "8 workers vs materialized");
    }
}

/** Shared fixture of the nested and starved-pool cases. */
struct StarvedCase
{
    image::Image left, right;
    stereo::SgmParams params;
    stereo::DisparityMap serial;

    StarvedCase()
    {
        Rng rng(38);
        left = randomImage(90, 70, rng);
        right = shiftedImage(left, 6, rng);
        params.maxDisparity = 40; // 64 + 6 rows: two tiles
        ThreadPool t1(1);
        serial = stereo::sgmCompute(left, right, params, ExecContext(t1));
    }
};

TEST(SgmStream, NestedInsideSubmitTaskMatchesSerial)
{
    // serve runs key frames inside submit() tasks on the pool the
    // kernels fan out on: the nested job runs on the caller alone.
    StarvedCase c;
    ThreadPool pool(4);
    const auto got = withTimeout(60, [&] {
        return pool
            .submit([&] {
                return stereo::sgmCompute(c.left, c.right, c.params,
                                          ExecContext(pool));
            })
            .get();
    });
    expectBitIdentical(c.serial, got, "nested vs serial");
}

TEST(SgmStream, AllWorkersBusyCannotDeadlock)
{
    // Every worker is parked in a blocked task, so the caller claims
    // every cell itself; the job must finish without them.
    StarvedCase c;
    ThreadPool pool(4);
    std::latch started(pool.numThreads() - 1);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::vector<std::future<void>> held;
    for (int i = 0; i < pool.numThreads() - 1; ++i) {
        held.push_back(pool.submit([&started, released] {
            started.count_down();
            released.wait();
        }));
    }
    started.wait();
    const auto got = withTimeout(60, [&] {
        return stereo::sgmCompute(c.left, c.right, c.params,
                                  ExecContext(pool));
    });
    release.set_value();
    for (auto &f : held)
        f.get();
    expectBitIdentical(c.serial, got, "starved pool vs serial");
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

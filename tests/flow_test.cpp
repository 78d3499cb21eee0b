/**
 * @file
 * Tests for Farnebäck optical flow: polynomial expansion recovers
 * known quadratics, flow recovers synthetic translations, the cost
 * model splits ops the way the ASV mapping charges them, and the
 * separable-pass kernels match the scalar oracle in
 * tests/reference/ bit for bit (the *MatchesReference* cases).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "data/scene.hh"
#include "flow/farneback.hh"
#include "flow/flow_field.hh"
#include "image/ops.hh"
#include "reference/farneback_reference.hh"

namespace
{

using namespace asv;
using namespace asv::flow;

/** Shift an image by integer (dx, dy) with clamped borders. */
image::Image
shiftImage(const image::Image &src, int dx, int dy)
{
    image::Image out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            out.at(x, y) = src.atClamped(x - dx, y - dy);
    return out;
}

TEST(PolyExpansion, RecoversQuadraticCoefficients)
{
    // f(x, y) = 2 + 3dx - dy + 0.5dx^2 + 0.25dy^2 + 0.1dxdy around
    // the center pixel; expansion at the center must recover the
    // local coefficients exactly (the surface is globally quadratic).
    const int w = 21, h = 21, cx = 10, cy = 10;
    image::Image img(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float dx = float(x - cx), dy = float(y - cy);
            img.at(x, y) = 2.f + 3.f * dx - 1.f * dy +
                           0.5f * dx * dx + 0.25f * dy * dy +
                           0.1f * dx * dy;
        }
    }
    const PolyExpansion pe = polyExpansion(img, 3, 1.2);
    EXPECT_NEAR(pe.c.at(cx, cy), 2.0, 1e-3);
    EXPECT_NEAR(pe.bx.at(cx, cy), 3.0, 1e-3);
    EXPECT_NEAR(pe.by.at(cx, cy), -1.0, 1e-3);
    EXPECT_NEAR(pe.axx.at(cx, cy), 0.5, 1e-3);
    EXPECT_NEAR(pe.ayy.at(cx, cy), 0.25, 1e-3);
    EXPECT_NEAR(pe.axy.at(cx, cy), 0.1, 1e-3);
}

TEST(PolyExpansion, ConstantImageHasOnlyConstantTerm)
{
    image::Image img(16, 16, 9.f);
    const PolyExpansion pe = polyExpansion(img, 3, 1.2);
    EXPECT_NEAR(pe.c.at(8, 8), 9.0, 1e-4);
    EXPECT_NEAR(pe.bx.at(8, 8), 0.0, 1e-4);
    EXPECT_NEAR(pe.axx.at(8, 8), 0.0, 1e-4);
}

class FlowTranslation : public ::testing::TestWithParam<
                            std::pair<int, int>>
{};

TEST_P(FlowTranslation, RecoversKnownShift)
{
    const auto [dx, dy] = GetParam();
    Rng rng(101);
    image::Image base =
        data::makeTexture(96, 72, 9.f, rng);
    image::Image moved = shiftImage(base, dx, dy);

    FarnebackParams params;
    params.pyramidLevels = 3;
    params.iterations = 3;
    FlowField f = farnebackFlow(base, moved, params);

    FlowField gt(base.width(), base.height());
    gt.fill(float(dx), float(dy));
    const double epe = averageEndpointError(f, gt, /*margin=*/10);
    EXPECT_LT(epe, 0.5) << "shift (" << dx << ", " << dy << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, FlowTranslation,
    ::testing::Values(std::pair{1, 0}, std::pair{0, 1},
                      std::pair{2, 1}, std::pair{-2, 1},
                      std::pair{3, -2}, std::pair{-4, -3}));

TEST(Flow, ZeroMotionGivesNearZeroFlow)
{
    Rng rng(11);
    image::Image img = data::makeTexture(64, 64, 8.f, rng);
    FlowField f = farnebackFlow(img, img);
    FlowField zero(64, 64);
    EXPECT_LT(averageEndpointError(f, zero, 4), 0.05);
}

TEST(Flow, InitialFlowSpeedsConvergence)
{
    Rng rng(12);
    image::Image base = data::makeTexture(80, 64, 8.f, rng);
    image::Image moved = shiftImage(base, 5, 0);

    // One iteration on one level cannot catch a 5 px shift...
    FarnebackParams weak;
    weak.pyramidLevels = 1;
    weak.iterations = 1;
    FlowField cold = farnebackFlow(base, moved, weak);

    // ...unless seeded with a good initial estimate (what ISM does
    // when chaining frames).
    FlowField init(80, 64);
    init.fill(5.f, 0.f);
    FlowField warm = farnebackFlow(base, moved, weak, &init);

    FlowField gt(80, 64);
    gt.fill(5.f, 0.f);
    EXPECT_LT(averageEndpointError(warm, gt, 8),
              averageEndpointError(cold, gt, 8));
    EXPECT_LT(averageEndpointError(warm, gt, 8), 0.6);
}

TEST(Flow, WarpByFlowInvertsTranslation)
{
    Rng rng(13);
    image::Image base = data::makeTexture(64, 48, 8.f, rng);
    image::Image moved = shiftImage(base, 3, 2);
    FlowField gt(64, 48);
    gt.fill(3.f, 2.f);
    image::Image warped = warpByFlow(moved, gt);
    // warped(x,y) = moved(x+3, y+2) = base(x, y) in the interior.
    double max_diff = 0;
    for (int y = 6; y < 42; ++y)
        for (int x = 6; x < 58; ++x)
            max_diff = std::max(max_diff,
                                (double)std::abs(warped.at(x, y) -
                                                 base.at(x, y)));
    EXPECT_LT(max_diff, 1e-3);
}

TEST(FlowCost, SplitsConvAndPointwise)
{
    FarnebackParams p;
    const FarnebackCost c = farnebackCost(960, 540, p);
    EXPECT_GT(c.convOps, 0);
    EXPECT_GT(c.pointwiseOps, 0);
    EXPECT_EQ(c.total(), c.convOps + c.pointwiseOps);
    // Sec. 3.3: the convolutional part (Gaussian blur) dominates.
    EXPECT_GT(c.convOps, c.pointwiseOps);
}

TEST(FlowCost, ScalesWithResolution)
{
    FarnebackParams p;
    const auto small = farnebackCost(100, 100, p);
    const auto large = farnebackCost(200, 200, p);
    EXPECT_NEAR(double(large.total()) / double(small.total()), 4.0,
                0.4);
}

// ---------------------------------------------------------------------
// Bit-identity against the scalar oracle (tests/reference/). Sizes
// cover odd widths and planes narrower and shorter than the kernels,
// so the clamped borders run on every row and column.

/** Shapes the oracle cases sweep: odd, ISM-sized, sub-kernel. */
const std::vector<std::pair<int, int>> kOracleShapes = {
    {97, 73}, {160, 120}, {5, 4}, {3, 11}};

/** Every float of @p a and @p b compares equal bit for bit. */
::testing::AssertionResult
bitIdentical(const image::Image &a, const image::Image &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return ::testing::AssertionFailure()
               << "shape " << a.width() << "x" << a.height() << " vs "
               << b.width() << "x" << b.height();
    for (int64_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "pixel (" << i % a.width() << ", "
                   << i / a.width() << "): " << a.data()[i] << " vs "
                   << b.data()[i];
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
bitIdentical(const FlowField &a, const FlowField &b)
{
    auto r = bitIdentical(a.u, b.u);
    if (!r)
        return r << " (u)";
    r = bitIdentical(a.v, b.v);
    if (!r)
        return r << " (v)";
    return r;
}

/** One textured frame pair: @p b is @p a moved by (2, -1) + noise. */
std::pair<image::Image, image::Image>
framePair(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    image::Image a = data::makeTexture(w, h, 8.f, rng);
    image::Image b = shiftImage(a, 2, -1);
    for (int64_t i = 0; i < b.size(); ++i)
        b.data()[i] += float(rng.uniformReal(-2.0, 2.0));
    return {std::move(a), std::move(b)};
}

/** Runs @p body on fresh 1-, 2- and 4-worker contexts. */
template <typename Fn>
void
forEachWorkerCount(Fn &&body)
{
    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ThreadPool pool(workers);
        BufferPool buffers;
        body(ExecContext(pool, buffers));
    }
}

TEST(FlowOracle, GaussianBlurMatchesReference)
{
    forEachWorkerCount([](const ExecContext &ctx) {
        for (const auto &[w, h] : kOracleShapes) {
            const image::Image img = framePair(w, h, 21).first;
            for (const auto &[radius, sigma] :
                 {std::pair{1, 0.8}, std::pair{2, -1.0},
                  std::pair{5, -1.0}}) {
                SCOPED_TRACE(std::to_string(w) + "x" +
                             std::to_string(h) + " radius " +
                             std::to_string(radius));
                // Twice: the second call runs on recycled buffers.
                for (int rep = 0; rep < 2; ++rep)
                    EXPECT_TRUE(bitIdentical(
                        image::gaussianBlur(img, radius, sigma, ctx),
                        reference::gaussianBlur(img, radius, sigma,
                                                ctx)));
            }
        }
    });
}

TEST(FlowOracle, PolyExpansionMatchesReference)
{
    forEachWorkerCount([](const ExecContext &ctx) {
        for (const auto &[w, h] : kOracleShapes) {
            const image::Image img = framePair(w, h, 22).first;
            for (const auto &[radius, sigma] :
                 {std::pair{1, 0.7}, std::pair{3, 1.2}}) {
                SCOPED_TRACE(std::to_string(w) + "x" +
                             std::to_string(h) + " radius " +
                             std::to_string(radius));
                for (int rep = 0; rep < 2; ++rep) {
                    const PolyExpansion got =
                        polyExpansion(img, radius, sigma, ctx);
                    const PolyExpansion want = reference::polyExpansion(
                        img, radius, sigma, ctx);
                    EXPECT_TRUE(bitIdentical(got.c, want.c)) << "c";
                    EXPECT_TRUE(bitIdentical(got.bx, want.bx)) << "bx";
                    EXPECT_TRUE(bitIdentical(got.by, want.by)) << "by";
                    EXPECT_TRUE(bitIdentical(got.axx, want.axx))
                        << "axx";
                    EXPECT_TRUE(bitIdentical(got.ayy, want.ayy))
                        << "ayy";
                    EXPECT_TRUE(bitIdentical(got.axy, want.axy))
                        << "axy";
                }
            }
        }
    });
}

/** The parameter sets the flow oracle cases sweep. */
std::vector<FarnebackParams>
oracleParams()
{
    FarnebackParams wide; // polyRadius 3, blurRadius 5, 3 levels
    wide.pyramidLevels = 4;
    return {FarnebackParams{}, core::IsmParams{}.flowParams, wide};
}

TEST(FlowOracle, FarnebackFlowMatchesReference)
{
    forEachWorkerCount([](const ExecContext &ctx) {
        for (const auto &[w, h] : kOracleShapes) {
            const auto [f0, f1] = framePair(w, h, 23);
            for (const FarnebackParams &p : oracleParams()) {
                SCOPED_TRACE(std::to_string(w) + "x" +
                             std::to_string(h) + " levels " +
                             std::to_string(p.pyramidLevels));
                for (int rep = 0; rep < 2; ++rep)
                    EXPECT_TRUE(bitIdentical(
                        farnebackFlow(f0, f1, p, nullptr, ctx),
                        reference::farnebackFlow(f0, f1, p, nullptr,
                                                 ctx)));
            }
        }
    });
}

TEST(FlowOracle, SeededFarnebackFlowMatchesReference)
{
    forEachWorkerCount([](const ExecContext &ctx) {
        for (const auto &[w, h] : kOracleShapes) {
            const auto [f0, f1] = framePair(w, h, 24);
            // A smooth, non-uniform seed with sub-pixel values and
            // vectors pointing off the frame (exercises the clamps).
            FlowField init(w, h);
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x) {
                    init.u.at(x, y) = 2.25f - 0.05f * float(x);
                    init.v.at(x, y) = -1.5f + 0.03f * float(y + x);
                }
            }
            for (const FarnebackParams &p : oracleParams()) {
                SCOPED_TRACE(std::to_string(w) + "x" +
                             std::to_string(h) + " levels " +
                             std::to_string(p.pyramidLevels));
                EXPECT_TRUE(bitIdentical(
                    farnebackFlow(f0, f1, p, &init, ctx),
                    reference::farnebackFlow(f0, f1, p, &init, ctx)));
            }
        }
    });
}

/** core::ismFlow's composition, with the oracle flow inside. */
FlowField
referenceIsmFlow(const image::Image &from, const image::Image &to,
                 const core::IsmParams &p, const ExecContext &ctx)
{
    const int s = std::max(1, p.flowScale);
    if (s == 1)
        return reference::farnebackFlow(from, to, p.flowParams, nullptr,
                                        ctx);
    const int sw = std::max(16, from.width() / s);
    const int sh = std::max(16, from.height() / s);
    const FlowField small = reference::farnebackFlow(
        image::resizeBilinear(from, sw, sh, ctx),
        image::resizeBilinear(to, sw, sh, ctx), p.flowParams, nullptr,
        ctx);
    FlowField full;
    full.u =
        image::resizeBilinear(small.u, from.width(), from.height(), ctx);
    full.v =
        image::resizeBilinear(small.v, from.width(), from.height(), ctx);
    const float kx = float(from.width()) / sw;
    const float ky = float(from.height()) / sh;
    for (int64_t i = 0; i < full.u.size(); ++i) {
        full.u.data()[i] *= kx;
        full.v.data()[i] *= ky;
    }
    return full;
}

TEST(FlowOracle, IsmFlowMatchesReference)
{
    forEachWorkerCount([](const ExecContext &ctx) {
        for (const auto &[w, h] :
             {std::pair{320, 240}, std::pair{97, 73},
              std::pair{5, 4}}) {
            const auto [f0, f1] = framePair(w, h, 25);
            for (int scale : {1, 2}) {
                SCOPED_TRACE(std::to_string(w) + "x" +
                             std::to_string(h) + " flowScale " +
                             std::to_string(scale));
                core::IsmParams p;
                p.flowScale = scale;
                EXPECT_TRUE(
                    bitIdentical(core::ismFlow(f0, f1, p, ctx),
                                 referenceIsmFlow(f0, f1, p, ctx)));
            }
        }
    });
}

} // namespace

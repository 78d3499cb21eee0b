/**
 * @file
 * Semi-global matching (SGM) stereo.
 *
 * Represents the classic global-ish algorithm family in Fig. 1 (SGBN
 * and HH are both semi-global-matching variants from Hirschmuller's
 * work). Pipeline: census transform -> Hamming matching cost volume ->
 * 8-path semi-global cost aggregation with P1/P2 smoothness penalties
 * -> winner-take-all with sub-pixel refinement -> optional left-right
 * consistency check.
 */

#ifndef ASV_STEREO_SGM_HH
#define ASV_STEREO_SGM_HH

#include <cstdint>
#include <vector>

#include "common/exec_context.hh"
#include "image/image.hh"
#include "stereo/disparity.hh"

namespace asv::stereo
{

/** SGM tuning parameters. */
struct SgmParams
{
    int censusRadius = 2;  //!< census window is (2r+1)^2 (<= 5x5 bits)
    int maxDisparity = 64; //!< disparity range [0, maxDisparity], >= 0
    int p1 = 3;            //!< small-jump penalty (|dd| == 1, >= 0)
    int p2 = 40;           //!< large-jump penalty (|dd| > 1, >= 0)
    bool subpixel = true;  //!< parabolic sub-pixel interpolation
    bool leftRightCheck = true; //!< invalidate inconsistent pixels
    int lrTolerance = 1;   //!< max L/R disagreement (pixels, >= 0)
    int paths = 8;         //!< aggregation paths: 4, 5, or 8
};

/**
 * Census transform: each pixel becomes a bit string comparing its
 * (2r+1)^2 - 1 neighbors against the center. Returned as one uint64
 * per pixel (r <= 3 fits in 48 bits). Interior row strips go through
 * the dispatched asv::simd census kernel; clamped borders are shared
 * scalar code, so every SIMD level is bit-identical.
 */
std::vector<uint64_t> censusTransform(const image::Image &img,
                                      int radius,
                                      const ExecContext &ctx);

/** censusTransform() on the process-global pool (legacy signature). */
std::vector<uint64_t> censusTransform(const image::Image &img,
                                      int radius);

/**
 * censusTransform() into caller-provided storage of w * h entries;
 * the per-chunk row-pointer scratch comes from @p ctx's BufferPool.
 * Row-parallel on @p ctx; bit-identical across SIMD levels and
 * worker counts.
 */
void censusInto(const image::Image &img, int radius,
                const ExecContext &ctx, uint64_t *census);

/** Number of arithmetic ops of sgmCompute on a w x h frame. */
int64_t sgmOps(int width, int height, const SgmParams &params);

/**
 * Run SGM and return the left-reference disparity map. The engine is
 * fused and streaming: census and Hamming cost rows are generated on
 * the fly inside the aggregation wavefronts, so no full cost volume
 * is ever resident (see sgm.cc). Every stage fans out on @p ctx's
 * pool and all scratch comes from its BufferPool; results are
 * bit-identical for any worker count and any SIMD level.
 */
DisparityMap sgmCompute(const image::Image &left,
                        const image::Image &right,
                        const SgmParams &params,
                        const ExecContext &ctx);

/** sgmCompute() on the process-global pool (legacy signature). */
DisparityMap sgmCompute(const image::Image &left,
                        const image::Image &right,
                        const SgmParams &params = {});

} // namespace asv::stereo

#endif // ASV_STEREO_SGM_HH

/**
 * @file
 * Core image operations: Gaussian blur, resize, gradients, pyramids.
 *
 * Gaussian blur is the convolutional workhorse of the Farnebäck
 * optical-flow stage in ISM (Sec. 3.3): "99% of the compute in
 * Farneback is due to three operations: Gaussian blur, Compute Flow
 * and Matrix Update". Blur is implemented separably and its op count
 * is exposed so the accelerator mapping can charge it as a convolution
 * layer (Sec. 5.1).
 */

#ifndef ASV_IMAGE_OPS_HH
#define ASV_IMAGE_OPS_HH

#include <cstdint>
#include <vector>

#include "common/exec_context.hh"
#include "image/image.hh"

namespace asv::image
{

/** 1-D Gaussian kernel of the given radius (size 2r+1), normalized. */
std::vector<float> gaussianKernel1d(int radius, double sigma);

/**
 * Separable Gaussian blur with replicate borders. Both passes are
 * partitioned by row across @p ctx's pool and accumulate tap by tap
 * into double rows; each output pixel adds the same products in the
 * same order as the per-pixel reduction, so results are
 * bit-identical to it for any worker count.
 *
 * @param src    input image
 * @param radius kernel radius (kernel size 2*radius+1)
 * @param sigma  Gaussian sigma; if <= 0 a radius-derived default is used
 * @param ctx    pool the rows are partitioned across
 */
Image gaussianBlur(const Image &src, int radius, double sigma,
                   const ExecContext &ctx);

/** gaussianBlur() on the process-global pool (legacy signature). */
Image gaussianBlur(const Image &src, int radius, double sigma = -1.0);

/** Arithmetic op count of gaussianBlur on a w x h image. */
int64_t gaussianBlurOps(int width, int height, int radius);

/**
 * Copy row @p y of @p src into dst[0, width + 2 * radius), replicating
 * the edge pixels into the @p radius-wide margins: dst[radius + i] ==
 * src.atClamped(i, y) for every i in [-radius, width + radius). The
 * row filters read their clamped taps from this buffer. @p src must
 * be non-empty.
 */
void copyRowClamped(const Image &src, int y, int radius, float *dst);

/**
 * Bilinear resize to the exact target size, partitioned by output
 * row across @p ctx's pool (bit-identical for any worker count).
 */
Image resizeBilinear(const Image &src, int new_width, int new_height,
                     const ExecContext &ctx);

/** resizeBilinear() on the process-global pool (legacy signature). */
Image resizeBilinear(const Image &src, int new_width, int new_height);

/** Downsample by 2 with a small anti-aliasing blur on @p ctx. */
Image downsample2x(const Image &src, const ExecContext &ctx);

/** downsample2x() on the process-global pool (legacy signature). */
Image downsample2x(const Image &src);

/** Central-difference horizontal gradient. */
Image gradientX(const Image &src);

/** Central-difference vertical gradient. */
Image gradientY(const Image &src);

/**
 * Gaussian image pyramid, level 0 = full resolution, each subsequent
 * level downsampled by 2 (anti-alias blur on @p ctx). Stops early if
 * a level would drop below @p min_size in either dimension.
 */
std::vector<Image> buildPyramid(const Image &src, int levels,
                                int min_size, const ExecContext &ctx);

/** buildPyramid() on the process-global pool (legacy signature). */
std::vector<Image> buildPyramid(const Image &src, int levels,
                                int min_size = 16);

/** Per-pixel absolute difference mean (simple similarity metric). */
double meanAbsDiff(const Image &a, const Image &b);

} // namespace asv::image

#endif // ASV_IMAGE_OPS_HH

/**
 * @file
 * Scalar Farnebäck flow — the test-only bit-identity oracle for the
 * separable-pass kernels in src/flow/farneback.cc and
 * src/image/ops.cc.
 *
 * These are the straightforward per-pixel bodies: every filter tap
 * is an Image::atClamped read, the polynomial expansion makes three
 * row-moment planes and six column-moment planes before projecting,
 * the matrix update issues five independent Image::sample calls per
 * pixel, and the pyramid is built whole before the coarse-to-fine
 * loop. The library's kernels restructure the loops (clamp-padded
 * rows, tap-outer accumulation into double rows, fused moment
 * passes, shared bilinear weights) but sum the same products in the
 * same order, so `flow::farnebackFlow == reference::farnebackFlow`
 * bit for bit pins the restructure.
 *
 * Built as the asv_reference library, linked only by tests and
 * bench_kernels — never by libasv.
 */

#ifndef ASV_TESTS_REFERENCE_FARNEBACK_REFERENCE_HH
#define ASV_TESTS_REFERENCE_FARNEBACK_REFERENCE_HH

#include "common/exec_context.hh"
#include "flow/farneback.hh"
#include "flow/flow_field.hh"
#include "image/image.hh"

namespace asv::flow::reference
{

/** Separable Gaussian blur, one atClamped read per tap. */
image::Image gaussianBlur(const image::Image &src, int radius,
                          double sigma, const ExecContext &ctx);

/** Quadratic polynomial expansion via nine full-plane passes. */
PolyExpansion polyExpansion(const image::Image &img, int radius,
                            double sigma, const ExecContext &ctx);

/** Coarse-to-fine Farnebäck flow over a prebuilt pyramid. */
FlowField farnebackFlow(const image::Image &frame0,
                        const image::Image &frame1,
                        const FarnebackParams &params,
                        const FlowField *init, const ExecContext &ctx);

} // namespace asv::flow::reference

#endif // ASV_TESTS_REFERENCE_FARNEBACK_REFERENCE_HH

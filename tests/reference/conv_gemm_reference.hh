/**
 * @file
 * Per-element im2col + per-filter fmaf-chain convolution — the
 * test-only bit-identity oracle for tensor::convNdInto's blocked
 * GEMM route.
 *
 * This is the straightforward form of that route: im2col visits
 * every (row, output position) with a bounds-checked odometer, and
 * each filter row is one unbroken std::fmaf chain per output over
 * the whole reduction, serially. The library splits the same chains
 * into k-blocks whose float partials live in the output, runs them
 * as register tiles over (filter tile x column panel) tasks, and
 * fills im2col one span at a time — but every output is still the
 * same fmaf chain from +0 over ascending reduction rows, so
 * `convNdInto == reference::convGemm` bit for bit on the fused SIMD
 * levels pins the restructure.
 *
 * Built as the asv_reference library, linked only by tests and
 * bench_kernels — never by libasv.
 */

#ifndef ASV_TESTS_REFERENCE_CONV_GEMM_REFERENCE_HH
#define ASV_TESTS_REFERENCE_CONV_GEMM_REFERENCE_HH

#include "tensor/conv.hh"
#include "tensor/tensor.hh"

namespace asv::tensor::reference
{

/**
 * MAC convolution of @p input [C, spatial...] with @p weight
 * [K, C, kspatial...] (1-4 spatial dims), then the optional
 * per-filter bias + ReLU epilogue (`v > 0 ? v : +0`).
 */
Tensor convGemm(const Tensor &input, const Tensor &weight,
                const ConvSpec &spec, const ConvEpilogue *epilogue);

} // namespace asv::tensor::reference

#endif // ASV_TESTS_REFERENCE_CONV_GEMM_REFERENCE_HH

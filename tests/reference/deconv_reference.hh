/**
 * @file
 * Per-phase crop -> convGemm -> gather deconvolution — the test-only
 * bit-identity oracle for deconv::Plan (transformedDeconv and
 * dnn::NetworkRuntime's deconv layers).
 *
 * This is the straightforward composition of the transformation
 * (Sec. 4.1): for every output phase, copy the window of the ifmap
 * the phase reads (a leading crop where its ifmap shift is positive,
 * leading zero padding where it is negative), run
 * reference::convGemm on the extracted sub-kernel as a dense
 * stride-1 convolution with the phase's epilogue, and gather its
 * output into the ofmap at the stride. Phases with output positions
 * but no kernel taps receive the epilogue of zero. The library's
 * plan feeds every phase from the one ifmap, packs operand blocks
 * implicitly and scatters output tiles instead — but every output
 * is still the same fmaf chain, so `runPlan == reference::deconv`
 * bit for bit on the fused SIMD levels pins the restructure.
 *
 * Built as the asv_reference library, linked only by tests and
 * bench_kernels — never by libasv.
 */

#ifndef ASV_TESTS_REFERENCE_DECONV_REFERENCE_HH
#define ASV_TESTS_REFERENCE_DECONV_REFERENCE_HH

#include "tensor/conv.hh"
#include "tensor/deconv.hh"
#include "tensor/tensor.hh"

namespace asv::deconv::reference
{

/**
 * Transformed deconvolution of @p input [C, spatial...] with
 * @p weight [K, C, kspatial...] under @p spec, then the optional
 * per-filter bias + ReLU epilogue (`v > 0 ? v : +0`) on every
 * output position.
 */
tensor::Tensor deconv(const tensor::Tensor &input,
                      const tensor::Tensor &weight,
                      const tensor::DeconvSpec &spec,
                      const tensor::ConvEpilogue *epilogue);

} // namespace asv::deconv::reference

#endif // ASV_TESTS_REFERENCE_DECONV_REFERENCE_HH

/**
 * @file
 * Reference N-spatial-dimension convolution (cross-correlation).
 *
 * Follows the deep-learning convention: "convolution" computes the
 * cross-correlation of the input with the kernel (no kernel flip),
 * which matches the semantics used in Fig. 6 of the ASV paper.
 *
 * Layouts:
 *  - input:  [C, s_0, s_1, ..., s_{N-1}]          (channels first)
 *  - weight: [K, C, k_0, k_1, ..., k_{N-1}]       (K filters)
 *  - output: [K, o_0, o_1, ..., o_{N-1}]
 *
 * Supports per-dimension stride and asymmetric (lo/hi) zero padding.
 * Asymmetric padding is required by the deconvolution transformation,
 * whose sub-convolutions can need one-sided pads (Sec. 4.1).
 *
 * The same loop nest also computes sum-of-absolute-differences (SAD)
 * instead of multiply-accumulate, which is how ASV maps block matching
 * onto the systolic array (Sec. 3.3 / 5.1): the block is the kernel and
 * the search window is the input.
 *
 * Execution routes (see docs/KERNELS.md for the accuracy contract):
 *  - MAC with no stats requested rides the dispatched f32 GEMM
 *    kernels (asv::simd) as an implicit GEMM: each task packs its
 *    block of the im2col matrix straight from the input into
 *    per-chunk BufferPool scratch, so the matrix is never
 *    materialized — the fast path behind transformedDeconv and
 *    dnn::NetworkRuntime. f32 fused-multiply-add accumulation,
 *    bit-identical across worker counts and across the fused SIMD
 *    levels (scalar/AVX2/NEON); SSE4.2 agrees to documented
 *    tolerance.
 *  - SAD, and any call carrying a ConvStats sink, runs the reference
 *    loop nest: double-precision accumulation and exact per-tap op
 *    counters, bit-identical across worker counts.
 */

#ifndef ASV_TENSOR_CONV_HH
#define ASV_TENSOR_CONV_HH

#include <cstdint>
#include <span>

#include "common/exec_context.hh"
#include "tensor/tensor.hh"

namespace asv::tensor
{

/** Inner reduction performed at every kernel tap. */
enum class ConvOp
{
    MAC, //!< sum += a * w   (canonical convolution)
    SAD, //!< sum += |a - w| (block-matching mapping, Sec. 3.3)
};

/** Per-spatial-dimension convolution parameters. */
struct ConvSpec
{
    Shape stride; //!< one entry per spatial dim (>= 1)
    Shape padLo;  //!< leading zero padding per spatial dim
    Shape padHi;  //!< trailing zero padding per spatial dim

    /** Uniform stride/pad across @p spatial_dims dimensions. */
    static ConvSpec uniform(int spatial_dims, int64_t stride,
                            int64_t pad);
};

/** Operation counts observed while executing a reference convolution. */
struct ConvStats
{
    int64_t totalOps = 0; //!< every kernel tap visited
    int64_t zeroOps = 0;  //!< taps whose input operand was exactly 0

    /** Fraction of taps wasted on zero operands. */
    double
    zeroFraction() const
    {
        return totalOps ? double(zeroOps) / double(totalOps) : 0.0;
    }
};

/**
 * Fused per-filter epilogue applied to each output row after the
 * reduction: out += bias[k], then optionally ReLU. The ReLU is
 * exactly `v > 0 ? v : +0` (NaN and -0 map to +0) on every SIMD
 * level — see BiasReluRowFn in common/simd.hh. Fusing avoids a
 * second pass over the output, and for the deconv transformation is
 * exact per sub-convolution because sub-convolutions write disjoint
 * output phases.
 */
struct ConvEpilogue
{
    const float *bias = nullptr; //!< per-filter bias [K], or nullptr
    bool relu = false;           //!< clamp negatives (and NaN) to +0
};

/**
 * Reduction rows per k-block (KC) of the GEMM route: a filter tile's
 * KC weights stay in L1 while its column block streams past. Any
 * value gives the same bits (see convNdInto); tests cover reductions
 * on both sides of it.
 */
constexpr int kGemmKBlock = 256;

/**
 * Output columns per GEMM task (NC): a kGemmKBlock x kGemmPanel
 * packed block of the column matrix is 192 KiB, sized to stay in L2
 * while a chunk's filter tiles reuse it. A multiple of every
 * table's register-block width (24 / 8 / 16 columns).
 */
constexpr int kGemmPanel = 192;

/**
 * Filters per output tile of a scattered phase: a tile is as large
 * as the packed block, so a chunk's scratch is
 * (kGemmKBlock + kGemmTileFilters) x kGemmPanel floats for every
 * layer shape.
 */
constexpr int kGemmTileFilters = kGemmKBlock;

/** Spatial-rank ceiling of the GEMM route's stack-array odometers
 *  (no heap in the steady state); the paper's workloads are 2-D. */
constexpr int kMaxSpatialDims = 4;

/**
 * One dense stride-s sub-convolution of an implicit-GEMM pass — a
 * whole convolution, or one output phase of a transformed
 * deconvolution (deconv::Plan). Output position o (per spatial dim,
 * o < counts) reduces over channels c and kernel taps t the input at
 * origin + o * stride + t (zero outside the input) against the
 * phase's [K x C * taps] row-major sub-kernel, and lands in the
 * ofmap at offset + o * step. A phase with 0 taps in some dim has no
 * reduction: its positions receive the epilogue of zero.
 */
struct GemmPhase
{
    int64_t weightOffset = 0;           //!< sub-kernel start in weights
    int64_t taps[kMaxSpatialDims] = {}; //!< kernel extents (may be 0)
    int64_t counts[kMaxSpatialDims] = {}; //!< output positions
    int64_t origin[kMaxSpatialDims] = {}; //!< input coord at o = t = 0
    int64_t stride[kMaxSpatialDims] = {}; //!< input step per o step
    int64_t offset[kMaxSpatialDims] = {}; //!< ofmap coord at o = 0
    int64_t step[kMaxSpatialDims] = {};   //!< ofmap step per o step
};

/** Output shape of convNd for the given input/weight/spec. */
Shape convOutShape(const Shape &input, const Shape &weight,
                   const ConvSpec &spec);

/**
 * Reference convolution. The flat output range is statically
 * partitioned across @p ctx's pool; results are bit-identical for
 * any worker count.
 *
 * @param input  [C, spatial...]
 * @param weight [K, C, kspatial...]
 * @param spec   stride/padding per spatial dim
 * @param op     MAC (default) or SAD reduction
 * @param stats  if non-null, accumulates op counts
 * @param ctx    pool the output range is partitioned across
 * @return       [K, outspatial...]
 */
Tensor convNd(const Tensor &input, const Tensor &weight,
              const ConvSpec &spec, ConvOp op, ConvStats *stats,
              const ExecContext &ctx);

/** convNd() on the process-global pool (legacy signature). */
Tensor convNd(const Tensor &input, const Tensor &weight,
              const ConvSpec &spec, ConvOp op = ConvOp::MAC,
              ConvStats *stats = nullptr);

/**
 * MAC convolution with a fused bias+ReLU epilogue. Routes like
 * convNd: the f32 GEMM path when @p stats is null, the reference
 * loop (epilogue applied afterwards with the dispatched kernel)
 * when op counts are requested.
 */
Tensor convNd(const Tensor &input, const Tensor &weight,
              const ConvSpec &spec, const ConvEpilogue &epilogue,
              ConvStats *stats, const ExecContext &ctx);

/**
 * MAC convolution into a preallocated output — the zero-allocation
 * fast path behind dnn::NetworkRuntime. Always the f32 GEMM route:
 * gemmPhasesInto() with the convolution as its one phase. @p out
 * must already have shape convOutShape(...); its prior contents are
 * overwritten (no pre-zeroing needed) — the k-block partials live in
 * @p out itself. Performs no heap allocations once @p ctx's
 * BufferPool has warmed up. Supports 1-4 spatial dims.
 */
void convNdInto(const Tensor &input, const Tensor &weight,
                const ConvSpec &spec, const ConvEpilogue *epilogue,
                const ExecContext &ctx, Tensor &out);

/**
 * Implicit-GEMM execution of @p phases, all reading @p input
 * [C, spatial...] and writing disjoint positions of @p out
 * [K, spatial...]. One fan-out over (phase, column panel, filter
 * tile) tasks, statically partitioned: each task packs its
 * kGemmKBlock x kGemmPanel blocks of the phase's column matrix
 * straight from @p input into per-chunk scratch (a pointwise
 * stride-1 unpadded phase reads @p input itself), runs the
 * dispatched gemmTile over them, applies the optional epilogue, and
 * — unless the phase covers @p out densely — scatters its output
 * tile into the strided ofmap. Bit-identical to one unbroken fmaf
 * chain per output on the fused levels, for any worker count.
 * Sub-kernels live at @p weights + GemmPhase::weightOffset.
 */
void gemmPhasesInto(const Tensor &input, const float *weights,
                    std::span<const GemmPhase> phases,
                    const ConvEpilogue *epilogue,
                    const ExecContext &ctx, Tensor &out);

/**
 * Write rows [f0, f1) x phase columns [j0, j0 + n) — @p rows holds
 * row f at rows + (f - f0) * ld — to their ofmap positions in
 * @p out (see GemmPhase). The scatter epilogue of gemmPhasesInto().
 */
void scatterPhase(const GemmPhase &phase, const float *rows, int64_t ld,
                  int64_t f0, int64_t f1, int64_t j0, int64_t n,
                  Tensor &out);

} // namespace asv::tensor

#endif // ASV_TENSOR_CONV_HH

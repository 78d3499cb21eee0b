#include "tensor/conv.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace asv::tensor
{

namespace
{

/**
 * True when a MAC convolution rides the dispatched f32 GEMM kernels.
 * Stats collection stays on the double-accumulation reference loop:
 * exact per-tap counters (and the bitwise results the concurrency
 * tests pin) are part of its contract.
 */
bool
gemmEligible(ConvOp op, const ConvStats *stats)
{
    return op == ConvOp::MAC && stats == nullptr;
}

/** Per-chunk scratch floats: the packed block, then the output tile
 *  of a scattered phase. One size for every layer, so one pooled
 *  buffer serves them all. */
constexpr size_t kScratchFloats =
    size_t(kGemmKBlock + kGemmTileFilters) * kGemmPanel;

/** A phase's GEMM extents and routes. */
struct PhaseExtents
{
    int64_t T = 1; //!< kernel taps
    int64_t R = 0; //!< reduction rows, C * T
    int64_t N = 1; //!< output positions (columns)
    int64_t panels = 0;
    bool direct = true; //!< @p input already is the [R x N] operand
    bool dense = true;  //!< outputs fill @p out contiguously
};

PhaseExtents
extentsOf(const GemmPhase &ph, const Tensor &input, const Tensor &out)
{
    PhaseExtents e;
    for (int d = 0; d + 1 < input.rank(); ++d) {
        e.T *= ph.taps[d];
        e.N *= ph.counts[d];
        e.direct = e.direct && ph.taps[d] == 1 && ph.stride[d] == 1 &&
                   ph.origin[d] == 0 && ph.counts[d] == input.dim(1 + d);
        e.dense = e.dense && ph.step[d] == 1 && ph.offset[d] == 0 &&
                  ph.counts[d] == out.dim(1 + d);
    }
    e.R = input.dim(0) * e.T;
    e.panels = (e.N + kGemmPanel - 1) / kGemmPanel;
    return e;
}

/**
 * Decompose column @p j0 of a phase with per-dim @p counts into its
 * outer output index @p o (all dims but the innermost) and return
 * its innermost coordinate.
 */
int64_t
splitColumn(const int64_t *counts, int last, int64_t j0, int64_t *o)
{
    int64_t q = j0 / counts[last];
    const int64_t x = j0 - q * counts[last];
    for (int d = last - 1; d >= 0; --d) {
        o[d] = q % counts[d];
        q /= counts[d];
    }
    return x;
}

/** Advance the outer output index @p o by one innermost span. */
void
nextSpan(const int64_t *counts, int last, int64_t *o)
{
    for (int d = last - 1; d >= 0; --d) {
        if (++o[d] < counts[d])
            return;
        o[d] = 0;
    }
}

/**
 * Pack rows [r0, r1) x columns [j0, j0 + n) of @p ph's implicit
 * [R x N] column matrix into @p dst (row-major, leading dimension
 * n). Row r = c * T + t holds, for channel c and kernel tap t
 * (raster order over the kernel's spatial dims), the input value
 * under that tap at every output position (raster order), or 0
 * where the tap lands outside the input. The (c, tap) row order
 * makes the GEMM's ascending-i reduction replay the reference loop's
 * channel-outer, tap-raster-inner accumulation order, and lets the
 * row-major [K, C, k...] weight tensor serve as the [K x R] left
 * operand with no packing.
 *
 * Each row is filled one innermost-dim span at a time, clipped to
 * the panel's columns: the tap's valid output range [lo, hi) along
 * the innermost dim is computed once per row, the edges are
 * zero-filled, and the middle is a contiguous copy (stride 1) or a
 * strided gather. An outer index whose tap lands outside the input
 * zero-fills the span. A leading crop is a positive origin.
 */
void
packBlock(const Tensor &input, const GemmPhase &ph, int64_t T,
          int64_t r0, int64_t r1, int64_t j0, int n, float *dst)
{
    const int last = input.rank() - 2;
    const int64_t *istride = input.strides().data() + 1;
    const int64_t chan_elems = input.strides()[0];
    const int64_t cw = ph.counts[last];
    const int64_t iw = input.dim(1 + last);
    const int64_t sw = ph.stride[last];
    int64_t o0[kMaxSpatialDims];
    const int64_t x0 = splitColumn(ph.counts, last, j0, o0);

    // Row r0's channel and tap; later rows advance them as an
    // odometer (a block can be one narrow panel, where per-row
    // divisions would cost as much as the copies).
    int64_t c = r0 / T;
    int64_t tap[kMaxSpatialDims];
    for (int64_t d = last, t = r0 - c * T; d >= 0; --d) {
        tap[d] = t % ph.taps[d];
        t /= ph.taps[d];
    }
    int64_t o[kMaxSpatialDims];
    for (int64_t r = r0; r < r1; ++r) {
        const float *src = input.data() + c * chan_elems;
        float *row = dst + (r - r0) * n;
        // Output positions x along the innermost dim whose input
        // coordinate x * sw + shift lands in [0, iw).
        const int64_t shift = ph.origin[last] + tap[last];
        int64_t lo = std::clamp<int64_t>(-shift, 0, cw);
        int64_t hi = std::max(lo, std::min(cw, iw - shift));
        if (sw > 1) {
            lo = std::min(cw, shift >= 0 ? 0 : (-shift + sw - 1) / sw);
            hi = std::max(lo, iw - shift <= 0
                                  ? 0
                                  : std::min(cw, (iw - shift - 1) / sw + 1));
        }
        std::copy_n(o0, last, o);
        for (int64_t col = 0, xa = x0; col < n; xa = 0) {
            const int64_t xb = std::min(cw, xa + (n - col));
            int64_t off = 0;
            bool inside = true;
            for (int d = 0; d < last; ++d) {
                const int64_t v =
                    ph.origin[d] + o[d] * ph.stride[d] + tap[d];
                inside = inside && v >= 0 && v < input.dim(1 + d);
                off += v * istride[d];
            }
            // span[x - xa] is output position x of this outer index.
            float *span = row + col;
            const int64_t a = inside ? std::clamp(lo, xa, xb) : xb;
            const int64_t b = inside ? std::clamp(hi, a, xb) : xb;
            std::fill(span, span + (a - xa), 0.0f);
            if (a < b) {
                const float *in_row = src + off + a * sw + shift;
                if (sw == 1) {
                    std::copy_n(in_row, b - a, span + (a - xa));
                } else {
                    for (int64_t x = 0; x < b - a; ++x)
                        span[a - xa + x] = in_row[x * sw];
                }
            }
            std::fill(span + (b - xa), span + (xb - xa), 0.0f);
            col += xb - xa;
            nextSpan(ph.counts, last, o);
        }
        int d = last;
        while (d >= 0 && ++tap[d] == ph.taps[d])
            tap[d--] = 0;
        if (d < 0)
            ++c;
    }
}

} // namespace

void
scatterPhase(const GemmPhase &phase, const float *rows, int64_t ld,
             int64_t f0, int64_t f1, int64_t j0, int64_t n, Tensor &out)
{
    const int last = out.rank() - 2;
    const int64_t *ostride = out.strides().data() + 1;
    const int64_t ochan = out.strides()[0];
    const int64_t cw = phase.counts[last];
    const int64_t step = phase.step[last];
    int64_t o[kMaxSpatialDims];
    for (int64_t col = 0, xa = splitColumn(phase.counts, last, j0, o);
         col < n; xa = 0) {
        const int64_t xb = std::min(cw, xa + (n - col));
        int64_t off = phase.offset[last] + xa * step;
        for (int d = 0; d < last; ++d)
            off += (phase.offset[d] + o[d] * phase.step[d]) * ostride[d];
        for (int64_t f = f0; f < f1; ++f) {
            const float *s = rows + (f - f0) * ld + col;
            float *dst = out.data() + f * ochan + off;
            for (int64_t x = 0; x < xb - xa; ++x)
                dst[x * step] = s[x];
        }
        col += xb - xa;
        nextSpan(phase.counts, last, o);
    }
}

void
gemmPhasesInto(const Tensor &input, const float *weights,
               std::span<const GemmPhase> phases,
               const ConvEpilogue *epilogue, const ExecContext &ctx,
               Tensor &out)
{
    const int nd = input.rank() - 1;
    panic_if(nd < 1 || nd > kMaxSpatialDims || out.rank() != nd + 1,
             "gemmPhasesInto: bad shapes ", toString(input.shape()),
             " -> ", toString(out.shape()));
    // The tile loops below count filters, reduction rows and output
    // columns in int, the kernels' m/k/n type.
    panic_if(out.dim(0) > std::numeric_limits<int>::max(),
             "gemmPhasesInto: ", out.dim(0), " filters exceed int");
    const int K = static_cast<int>(out.dim(0));
    int64_t panels = 0;
    bool scratch_needed = false;
    for (const GemmPhase &ph : phases) {
        const PhaseExtents e = extentsOf(ph, input, out);
        panic_if(e.R > std::numeric_limits<int>::max() ||
                     e.N > std::numeric_limits<int>::max(),
                 "gemmPhasesInto: GEMM of ", K, " x ", e.R, " x ", e.N,
                 " exceeds the kernels' int extents");
        panels += e.panels;
        scratch_needed = scratch_needed || !e.direct || !e.dense;
    }
    if (panels == 0 || K == 0)
        return;
    // Per-chunk packed block + output tile, taken before the fan-out
    // so the live buffer count never depends on how chunks overlap.
    std::optional<LineRows<float>> scratch;
    if (scratch_needed)
        scratch.emplace(size_t(ctx.numThreads()), kScratchFloats,
                        ctx.buffers());

    // Tasks are (phase, column panel, filter tile) triples in
    // phase-major, panel-major order, statically partitioned: a
    // chunk is a run of filter tiles over one or a few panels, so
    // every worker has work even when K is small, and each output
    // element belongs to exactly one task. Within a panel the
    // reduction is split into KC-row blocks; the block loop runs
    // outside the filter tiles, so one packed KC x NC block stays
    // cache-resident while every filter tile of the chunk passes
    // over it. The first block writes the output and the rest
    // accumulate into it: the float partial stored between blocks is
    // exactly what one unbroken fmaf chain holds at that step, so
    // the result is bit-identical to the unblocked reduction for any
    // worker count (and across the fused SIMD levels; see
    // docs/KERNELS.md).
    constexpr int MR = simd::kGemmTileRows;
    const int tiles = (K + MR - 1) / MR;
    const simd::Kernels &kt = simd::kernels();
    ctx.parallelForChunks(0, panels * tiles, [&](int64_t t0, int64_t t1,
                                                 int chunk) {
        float *block = scratch ? scratch->row(size_t(chunk)) : nullptr;
        float *tile = scratch ? block + size_t(kGemmKBlock) * kGemmPanel
                              : nullptr;
        size_t pi = 0;
        int64_t base = 0; // first global panel of phase pi
        PhaseExtents e = extentsOf(phases[0], input, out);
        // Task t covers global panel t / tiles, filter tile t % tiles.
        for (int64_t g = t0 / tiles; g * tiles < t1; ++g) {
            while (g >= base + e.panels) {
                base += e.panels;
                e = extentsOf(phases[++pi], input, out);
            }
            const GemmPhase &ph = phases[pi];
            const int64_t first = g * tiles;
            const int f0 = int(std::max(t0, first) - first) * MR;
            const int f1 =
                std::min(K, int(std::min(t1, first + tiles) - first) * MR);
            const int64_t j0 = (g - base) * kGemmPanel;
            const int n = int(std::min<int64_t>(kGemmPanel, e.N - j0));
            const int R = int(e.R);
            const float *w = weights + ph.weightOffset;
            // A dense phase writes its rows of @p out in place; a
            // scattered one fills the tile kGemmTileFilters rows at a
            // time.
            const int group = e.dense ? f1 - f0 : kGemmTileFilters;
            for (int g0 = f0; g0 < f1; g0 += group) {
                const int g1 = std::min(f1, g0 + group);
                const int64_t ldo = e.dense ? e.N : n;
                float *dst =
                    e.dense ? out.data() + int64_t(g0) * e.N + j0 : tile;
                if (R == 0)
                    for (int f = g0; f < g1; ++f)
                        std::fill_n(dst + (f - g0) * ldo, n, 0.0f);
                for (int i0 = 0; i0 < R; i0 += kGemmKBlock) {
                    const int k = std::min(kGemmKBlock, R - i0);
                    const float *b = block;
                    int64_t ldb = n;
                    if (e.direct) {
                        b = input.data() + int64_t(i0) * e.N + j0;
                        ldb = e.N;
                    } else {
                        packBlock(input, ph, e.T, i0, i0 + k, j0, n,
                                  block);
                    }
                    for (int f = g0; f < g1; f += MR)
                        kt.gemmTile(w + int64_t(f) * R + i0, R,
                                    std::min(MR, g1 - f), k, b, ldb,
                                    dst + (f - g0) * ldo, ldo, n,
                                    i0 > 0);
                }
                if (epilogue != nullptr)
                    for (int f = g0; f < g1; ++f)
                        kt.biasReluRow(
                            dst + (f - g0) * ldo, n,
                            epilogue->bias ? epilogue->bias[f] : 0.0f,
                            epilogue->relu);
                if (!e.dense)
                    scatterPhase(ph, dst, ldo, g0, g1, j0, n, out);
            }
        }
    });
}

ConvSpec
ConvSpec::uniform(int spatial_dims, int64_t stride, int64_t pad)
{
    ConvSpec spec;
    spec.stride.assign(spatial_dims, stride);
    spec.padLo.assign(spatial_dims, pad);
    spec.padHi.assign(spatial_dims, pad);
    return spec;
}

Shape
convOutShape(const Shape &input, const Shape &weight, const ConvSpec &spec)
{
    const int spatial = static_cast<int>(input.size()) - 1;
    panic_if(spatial < 1, "input must be [C, spatial...]");
    panic_if(static_cast<int>(weight.size()) != spatial + 2,
             "weight must be [K, C, kspatial...]; got ",
             toString(weight));
    panic_if(weight[1] != input[0], "channel mismatch: input C=",
             input[0], " weight C=", weight[1]);
    panic_if(static_cast<int>(spec.stride.size()) != spatial ||
                 static_cast<int>(spec.padLo.size()) != spatial ||
                 static_cast<int>(spec.padHi.size()) != spatial,
             "spec rank mismatch");

    Shape out(spatial + 1);
    out[0] = weight[0];
    for (int d = 0; d < spatial; ++d) {
        const int64_t padded =
            input[1 + d] + spec.padLo[d] + spec.padHi[d];
        const int64_t k = weight[2 + d];
        panic_if(spec.stride[d] < 1, "stride must be >= 1");
        panic_if(padded < k, "kernel dim ", k,
                 " larger than padded input ", padded);
        out[1 + d] = (padded - k) / spec.stride[d] + 1;
    }
    return out;
}

void
convNdInto(const Tensor &input, const Tensor &weight,
           const ConvSpec &spec, const ConvEpilogue *epilogue,
           const ExecContext &ctx, Tensor &out)
{
    const int nd = static_cast<int>(input.rank()) - 1;
    panic_if(nd < 1 || nd > kMaxSpatialDims,
             "convNdInto: spatial rank ", nd, " unsupported (1-",
             kMaxSpatialDims, ")");
    panic_if(static_cast<int>(weight.rank()) != nd + 2,
             "convNdInto: weight must be [K, C, kspatial...]; got ",
             toString(weight.shape()));
    panic_if(weight.dim(1) != input.dim(0),
             "convNdInto: channel mismatch: input C=", input.dim(0),
             " weight C=", weight.dim(1));
    panic_if(static_cast<int>(spec.stride.size()) != nd ||
                 static_cast<int>(spec.padLo.size()) != nd ||
                 static_cast<int>(spec.padHi.size()) != nd,
             "convNdInto: spec rank mismatch");
    panic_if(static_cast<int>(out.rank()) != nd + 1 ||
                 out.dim(0) != weight.dim(0),
             "convNdInto: bad output shape ", toString(out.shape()));

    GemmPhase phase;
    for (int d = 0; d < nd; ++d) {
        panic_if(spec.stride[d] < 1, "stride must be >= 1");
        const int64_t k = weight.dim(2 + d);
        const int64_t padded =
            input.dim(1 + d) + spec.padLo[d] + spec.padHi[d];
        panic_if(padded < k, "kernel dim ", k,
                 " larger than padded input ", padded);
        panic_if(out.dim(1 + d) != (padded - k) / spec.stride[d] + 1,
                 "convNdInto: output spatial mismatch in dim ", d);
        phase.taps[d] = k;
        phase.counts[d] = out.dim(1 + d);
        phase.origin[d] = -spec.padLo[d];
        phase.stride[d] = spec.stride[d];
        phase.step[d] = 1;
    }
    gemmPhasesInto(input, weight.data(), {&phase, 1}, epilogue, ctx,
                   out);
}

Tensor
convNd(const Tensor &input, const Tensor &weight, const ConvSpec &spec,
       ConvOp op, ConvStats *stats, const ExecContext &ctx)
{
    const Shape out_shape = convOutShape(input.shape(), weight.shape(),
                                         spec);
    const int spatial = static_cast<int>(input.rank()) - 1;
    const int64_t in_channels = input.dim(0);

    Tensor out(out_shape);

    if (gemmEligible(op, stats) && spatial <= kMaxSpatialDims) {
        convNdInto(input, weight, spec, nullptr, ctx, out);
        return out;
    }

    // Iterate output positions [K, o...] in row-major order; for
    // each, reduce over channels and kernel taps. Output elements are
    // independent, so the flat output range is statically partitioned
    // across the pool; every element is computed by exactly one
    // thread with the serial reduction order, so results are
    // bit-identical for any worker count. Op counters accumulate
    // per chunk and are reduced in chunk order (exact integer sums).
    Shape kspatial(weight.shape().begin() + 2, weight.shape().end());

    ThreadPool &pool = ctx.pool();
    const size_t nc =
        ThreadPool::partition(0, out.size(), pool.numThreads()).size();
    std::vector<ConvStats> local(std::max<size_t>(nc, 1));

    pool.parallelForChunks(0, out.size(), [&](int64_t o_begin,
                                              int64_t o_end,
                                              int chunk) {
        ConvStats *st = stats ? &local[chunk] : nullptr;
        Shape out_idx(spatial + 1);
        Shape in_idx(spatial + 1);
        Shape w_idx(spatial + 2);

        // Decompose the chunk's first flat offset into an index
        // vector, then advance it odometer-style.
        int64_t rem = o_begin;
        for (int d = spatial; d >= 0; --d) {
            out_idx[d] = rem % out_shape[d];
            rem /= out_shape[d];
        }

        for (int64_t o = o_begin; o < o_end; ++o) {
            const int64_t k_filter = out_idx[0];
            double acc = 0.0;
            w_idx[0] = k_filter;
            for (int64_t c = 0; c < in_channels; ++c) {
                in_idx[0] = c;
                w_idx[1] = c;
                forEachIndex(kspatial,
                             [&](std::span<const int64_t> tap) {
                    for (int d = 0; d < spatial; ++d) {
                        in_idx[1 + d] =
                            out_idx[1 + d] * spec.stride[d] -
                            spec.padLo[d] + tap[d];
                        w_idx[2 + d] = tap[d];
                    }
                    const float a = input.atOrZero(in_idx);
                    const float w =
                        weight.at(std::span<const int64_t>(
                            w_idx.data(), w_idx.size()));
                    if (st) {
                        ++st->totalOps;
                        if (a == 0.f)
                            ++st->zeroOps;
                    }
                    acc += (op == ConvOp::MAC)
                               ? double(a) * w
                               : std::abs(double(a) - w);
                });
            }
            out.data()[o] = static_cast<float>(acc);

            for (int d = spatial; d >= 0; --d) {
                if (++out_idx[d] < out_shape[d])
                    break;
                out_idx[d] = 0;
            }
        }
    });

    if (stats) {
        for (const ConvStats &st : local) {
            stats->totalOps += st.totalOps;
            stats->zeroOps += st.zeroOps;
        }
    }

    return out;
}

Tensor
convNd(const Tensor &input, const Tensor &weight, const ConvSpec &spec,
       ConvOp op, ConvStats *stats)
{
    return convNd(input, weight, spec, op, stats,
                  ExecContext::global());
}

Tensor
convNd(const Tensor &input, const Tensor &weight, const ConvSpec &spec,
       const ConvEpilogue &epilogue, ConvStats *stats,
       const ExecContext &ctx)
{
    if (gemmEligible(ConvOp::MAC, stats) &&
        static_cast<int>(input.rank()) - 1 <= kMaxSpatialDims) {
        Tensor out(convOutShape(input.shape(), weight.shape(), spec));
        convNdInto(input, weight, spec, &epilogue, ctx, out);
        return out;
    }
    // Stats requested: reference loop for the exact counters, then
    // the epilogue as a separate dispatched pass per filter row.
    Tensor out = convNd(input, weight, spec, ConvOp::MAC, stats, ctx);
    const simd::Kernels &kt = simd::kernels();
    const int64_t K = out.dim(0);
    const int64_t P = out.size() / std::max<int64_t>(K, 1);
    float *od = out.data();
    ctx.parallelFor(0, K, [&](int64_t f0, int64_t f1) {
        for (int64_t f = f0; f < f1; ++f)
            kt.biasReluRow(od + f * P, static_cast<int>(P),
                           epilogue.bias ? epilogue.bias[f] : 0.0f,
                           epilogue.relu);
    });
    return out;
}

} // namespace asv::tensor

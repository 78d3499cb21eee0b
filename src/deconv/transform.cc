#include "deconv/transform.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace asv::deconv
{

namespace
{

/** Stack-array ceiling of the crop/gather odometers. */
constexpr int kMaxDims = 4;

/** Floor division that is correct for negative numerators. */
int64_t
floorDiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

/** Positive modulo. */
int64_t
posMod(int64_t a, int64_t b)
{
    const int64_t m = a % b;
    return m < 0 ? m + b : m;
}

} // namespace

Shape
SubConv::kernelExtents() const
{
    Shape k(dims.size());
    for (size_t d = 0; d < dims.size(); ++d)
        k[d] = dims[d].taps;
    return k;
}

Shape
SubConv::outExtents() const
{
    Shape o(dims.size());
    for (size_t d = 0; d < dims.size(); ++d)
        o[d] = dims[d].count;
    return o;
}

bool
SubConv::empty() const
{
    for (const auto &dp : dims)
        if (dp.taps == 0 || dp.count == 0)
            return true;
    return false;
}

int64_t
TransformedLayer::totalMacs() const
{
    int64_t macs = 0;
    for (size_t k = 0; k < subConvs.size(); ++k)
        macs += subConvMacs(k);
    return macs;
}

int64_t
TransformedLayer::subConvMacs(size_t k) const
{
    panic_if(k >= subConvs.size(), "sub-conv index out of range");
    const SubConv &sc = subConvs[k];
    if (sc.empty())
        return 0;
    return batch * inChannels * outChannels *
           tensor::numElems(sc.outExtents()) *
           tensor::numElems(sc.kernelExtents());
}

std::vector<DimPlan>
planDimension(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    panic_if(in < 1 || kernel < 1 || stride < 1 || pad < 0,
             "bad deconv dimension parameters");
    const int64_t out = deconvOutSize(in, kernel, stride, pad);
    panic_if(out < 1, "deconv output collapsed");
    const int64_t q = kernel - 1 - pad;

    std::vector<DimPlan> plans;
    for (int64_t r = 0; r < stride; ++r) {
        DimPlan p;
        p.phase = r;
        p.delta = posMod(q - r, stride);
        p.taps = p.delta <= kernel - 1
                     ? (kernel - 1 - p.delta) / stride + 1
                     : 0;
        p.inOffset = -floorDiv(q - r, stride);
        p.count = r < out ? ceilDiv(out - r, stride) : 0;
        plans.push_back(p);
    }
    return plans;
}

TransformedLayer
transformLayer(const dnn::LayerDesc &layer)
{
    TransformedLayer t;
    t.name = layer.name;
    t.inChannels = layer.inChannels;
    t.outChannels = layer.outChannels;
    t.ifmapSpatial = layer.inSpatial;
    t.batch = layer.batch;

    if (layer.kind == dnn::LayerKind::Conv) {
        // Degenerate single-sub-conv form: the scheduler sees the
        // layer's own kernel/output extents and no ILAR.
        SubConv sc;
        const Shape out = layer.outSpatial();
        for (size_t d = 0; d < layer.inSpatial.size(); ++d) {
            DimPlan p;
            p.phase = 0;
            p.delta = 0;
            p.taps = layer.kernel[d];
            p.inOffset = -layer.pad[d];
            p.count = out[d];
            sc.dims.push_back(p);
        }
        t.subConvs.push_back(std::move(sc));
        t.fromDeconv = false;
        return t;
    }

    panic_if(layer.kind != dnn::LayerKind::Deconv,
             "transformLayer: layer ", layer.name,
             " is neither conv nor deconv");
    t.fromDeconv = true;

    const int nd = layer.spatialDims();
    std::vector<std::vector<DimPlan>> per_dim(nd);
    for (int d = 0; d < nd; ++d) {
        per_dim[d] = planDimension(layer.inSpatial[d], layer.kernel[d],
                                   layer.stride[d], layer.pad[d]);
    }

    // Cartesian product of per-dimension phases -> s^N sub-convs.
    std::vector<size_t> idx(nd, 0);
    while (true) {
        SubConv sc;
        for (int d = 0; d < nd; ++d)
            sc.dims.push_back(per_dim[d][idx[d]]);
        t.subConvs.push_back(std::move(sc));

        int d = nd - 1;
        while (d >= 0) {
            if (++idx[d] < per_dim[d].size())
                break;
            idx[d] = 0;
            --d;
        }
        if (d < 0)
            break;
    }
    return t;
}

Tensor
extractSubKernel(const Tensor &weight, const SubConv &sub,
                 const Shape &stride)
{
    const int nd = static_cast<int>(sub.dims.size());
    panic_if(weight.rank() != nd + 2,
             "weight rank does not match sub-conv dims");

    Shape sk_shape;
    sk_shape.push_back(weight.dim(0));
    sk_shape.push_back(weight.dim(1));
    for (int d = 0; d < nd; ++d)
        sk_shape.push_back(std::max<int64_t>(sub.dims[d].taps, 0));

    Tensor sk(sk_shape);
    if (sub.empty())
        return sk;

    // Flat offset, inside one [f, c] kernel slice, of every sub-kernel
    // tap (raster order): tap j reads kernel position
    // stride * j + delta per spatial dim.
    const Shape tap_shape(sk_shape.begin() + 2, sk_shape.end());
    const int64_t taps = tensor::numElems(tap_shape);
    std::vector<int64_t> src(static_cast<size_t>(taps), 0);
    int64_t span = 1; // row-major stride of dim d in the full kernel
    int64_t reps = 1; // sub-kernel taps in dims after d
    for (int d = nd - 1; d >= 0; --d) {
        const int64_t e = tap_shape[d];
        for (int64_t t = 0; t < taps; ++t)
            src[t] += (stride[d] * (t / reps % e) + sub.dims[d].delta) *
                      span;
        span *= weight.dim(2 + d);
        reps *= e;
    }

    const float *w = weight.data();
    float *o = sk.data();
    for (int64_t fc = 0; fc < weight.dim(0) * weight.dim(1); ++fc)
        for (int64_t t = 0; t < taps; ++t)
            *o++ = w[fc * span + src[t]];
    return sk;
}

void
cropInto(const Tensor &in, const Shape &crop_lo, Tensor &out,
         const ExecContext &ctx)
{
    const int nd = static_cast<int>(in.rank()) - 1;
    panic_if(nd < 1 || nd > kMaxDims || out.rank() != in.rank() ||
                 out.dim(0) != in.dim(0),
             "cropInto: bad shapes ", tensor::toString(in.shape()),
             " -> ", tensor::toString(out.shape()));
    const int64_t *sstr = in.strides().data() + 1;
    const int64_t *dstr = out.strides().data() + 1;
    const int64_t schan = in.strides()[0];
    const int64_t dchan = out.strides()[0];
    const int64_t inner = out.dim(nd);
    ctx.parallelFor(0, in.dim(0), [&](int64_t c0, int64_t c1) {
        int64_t o[kMaxDims];
        for (int64_t c = c0; c < c1; ++c) {
            const float *sbase = in.data() + c * schan;
            float *dbase = out.data() + c * dchan;
            for (int d = 0; d + 1 < nd; ++d)
                o[d] = 0;
            while (true) {
                int64_t soff = crop_lo[nd - 1];
                int64_t doff = 0;
                for (int d = 0; d + 1 < nd; ++d) {
                    soff += (o[d] + crop_lo[d]) * sstr[d];
                    doff += o[d] * dstr[d];
                }
                std::copy_n(sbase + soff, inner, dbase + doff);
                int d = nd - 2;
                while (d >= 0) {
                    if (++o[d] < out.dim(1 + d))
                        break;
                    o[d] = 0;
                    --d;
                }
                if (d < 0)
                    break;
            }
        }
    });
}

void
gatherPhase(const Tensor &sub_out, const Shape &stride,
            const Shape &phase, Tensor &out, const ExecContext &ctx)
{
    const int nd = static_cast<int>(out.rank()) - 1;
    panic_if(nd < 1 || nd > kMaxDims || sub_out.rank() != out.rank() ||
                 sub_out.dim(0) != out.dim(0),
             "gatherPhase: bad shapes ",
             tensor::toString(sub_out.shape()), " -> ",
             tensor::toString(out.shape()));
    const int64_t *sstr = sub_out.strides().data() + 1;
    const int64_t *ostr = out.strides().data() + 1;
    const int64_t schan = sub_out.strides()[0];
    const int64_t ochan = out.strides()[0];
    const int64_t inner = sub_out.dim(nd);
    const int64_t inner_step = stride[nd - 1];
    ctx.parallelFor(0, sub_out.dim(0), [&](int64_t f0, int64_t f1) {
        int64_t o[kMaxDims];
        for (int64_t f = f0; f < f1; ++f) {
            const float *sbase = sub_out.data() + f * schan;
            float *obase = out.data() + f * ochan;
            for (int d = 0; d + 1 < nd; ++d)
                o[d] = 0;
            while (true) {
                int64_t soff = 0;
                int64_t ooff = phase[nd - 1];
                for (int d = 0; d + 1 < nd; ++d) {
                    soff += o[d] * sstr[d];
                    ooff += (o[d] * stride[d] + phase[d]) * ostr[d];
                }
                const float *src = sbase + soff;
                float *dst = obase + ooff;
                for (int64_t j = 0; j < inner; ++j)
                    dst[j * inner_step] = src[j];
                int d = nd - 2;
                while (d >= 0) {
                    if (++o[d] < sub_out.dim(1 + d))
                        break;
                    o[d] = 0;
                    --d;
                }
                if (d < 0)
                    break;
            }
        }
    });
}

namespace
{

Tensor
transformedDeconvImpl(const Tensor &input, const Tensor &weight,
                      const tensor::DeconvSpec &spec,
                      tensor::ConvStats *stats,
                      const tensor::ConvEpilogue *epi,
                      const ExecContext &ctx)
{
    const int nd = input.rank() - 1;

    // Build a LayerDesc-equivalent plan directly.
    dnn::LayerDesc layer;
    layer.name = "functional";
    layer.kind = dnn::LayerKind::Deconv;
    layer.inChannels = input.dim(0);
    layer.outChannels = weight.dim(0);
    layer.inSpatial.assign(input.shape().begin() + 1,
                           input.shape().end());
    layer.kernel.assign(weight.shape().begin() + 2,
                        weight.shape().end());
    layer.stride = spec.stride;
    layer.pad = spec.pad;
    const TransformedLayer plan = transformLayer(layer);

    const Shape out_shape = tensor::deconvOutShape(
        input.shape(), weight.shape(), spec);
    Tensor out(out_shape);

    for (const SubConv &sc : plan.subConvs) {
        if (sc.empty())
            continue;

        const Tensor sk = extractSubKernel(weight, sc, spec.stride);

        // Run the sub-convolution as a dense stride-1 convNd. The
        // ifmap shift m0 maps to leading padding (m0 < 0) or a
        // leading crop (m0 > 0); trailing pad/crop sizes the output
        // to exactly `count` positions.
        Shape crop_lo(nd), pad_lo(nd), pad_hi(nd), crop_hi(nd);
        for (int d = 0; d < nd; ++d) {
            const DimPlan &dp = sc.dims[d];
            crop_lo[d] = std::max<int64_t>(0, dp.inOffset);
            pad_lo[d] = std::max<int64_t>(0, -dp.inOffset);
            const int64_t len = input.dim(1 + d) - crop_lo[d];
            panic_if(len < 1, "sub-conv crop removed entire input");
            const int64_t ph =
                dp.count - 1 + dp.taps - pad_lo[d] - len;
            pad_hi[d] = std::max<int64_t>(0, ph);
            crop_hi[d] = std::max<int64_t>(0, -ph);
        }

        // Crop the input if needed.
        const Tensor *eff_input = &input;
        Tensor cropped;
        if (std::any_of(crop_lo.begin(), crop_lo.end(),
                        [](int64_t c) { return c > 0; }) ||
            std::any_of(crop_hi.begin(), crop_hi.end(),
                        [](int64_t c) { return c > 0; })) {
            Shape cs;
            cs.push_back(input.dim(0));
            for (int d = 0; d < nd; ++d)
                cs.push_back(input.dim(1 + d) - crop_lo[d] -
                             crop_hi[d]);
            cropped = Tensor(cs);
            cropInto(input, crop_lo, cropped, ctx);
            eff_input = &cropped;
        }

        tensor::ConvSpec cspec;
        cspec.stride.assign(nd, 1);
        cspec.padLo = pad_lo;
        cspec.padHi = pad_hi;
        // Sub-convolutions write disjoint ofmap phases, so fusing
        // the bias+ReLU epilogue into each sub-conv is exactly the
        // epilogue on the gathered ofmap.
        const Tensor sub_out =
            epi != nullptr
                ? convNd(*eff_input, sk, cspec, *epi, stats, ctx)
                : convNd(*eff_input, sk, cspec, tensor::ConvOp::MAC,
                         stats, ctx);

        // Gather: interleave into the ofmap at stride positions.
        Shape phase(nd);
        for (int d = 0; d < nd; ++d)
            phase[d] = sc.dims[d].phase;
        gatherPhase(sub_out, spec.stride, phase, out, ctx);
    }
    return out;
}

} // namespace

Tensor
transformedDeconv(const Tensor &input, const Tensor &weight,
                  const tensor::DeconvSpec &spec,
                  tensor::ConvStats *stats, const ExecContext &ctx)
{
    return transformedDeconvImpl(input, weight, spec, stats, nullptr,
                                 ctx);
}

Tensor
transformedDeconv(const Tensor &input, const Tensor &weight,
                  const tensor::DeconvSpec &spec,
                  const tensor::ConvEpilogue &epilogue,
                  tensor::ConvStats *stats, const ExecContext &ctx)
{
    return transformedDeconvImpl(input, weight, spec, stats,
                                 &epilogue, ctx);
}

Tensor
transformedDeconv(const Tensor &input, const Tensor &weight,
                  const tensor::DeconvSpec &spec,
                  tensor::ConvStats *stats)
{
    return transformedDeconv(input, weight, spec, stats,
                             ExecContext::global());
}

} // namespace asv::deconv

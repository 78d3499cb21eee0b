#include "deconv/transform.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/simd.hh"

namespace asv::deconv
{

namespace
{

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

namespace
{

/** Write @p sub's sub-kernel [K, C, taps...] from @p weight to @p o. */
void
extractInto(const Tensor &weight, const SubConv &sub, const Shape &stride,
            float *o)
{
    // Flat offset, inside one [f, c] kernel slice, of every sub-kernel
    // tap (raster order): tap j reads kernel position
    // stride * j + delta per spatial dim.
    const int nd = static_cast<int>(sub.dims.size());
    const int64_t taps = tensor::numElems(sub.kernelExtents());
    std::vector<int64_t> src(static_cast<size_t>(taps), 0);
    int64_t span = 1; // row-major stride of dim d in the full kernel
    int64_t reps = 1; // sub-kernel taps in dims after d
    for (int d = nd - 1; d >= 0; --d) {
        const int64_t e = sub.dims[d].taps;
        for (int64_t t = 0; t < taps; ++t)
            src[t] += (stride[d] * (t / reps % e) + sub.dims[d].delta) *
                      span;
        span *= weight.dim(2 + d);
        reps *= e;
    }

    const float *w = weight.data();
    for (int64_t fc = 0; fc < weight.dim(0) * weight.dim(1); ++fc)
        for (int64_t t = 0; t < taps; ++t)
            *o++ = w[fc * span + src[t]];
}

} // namespace

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
    if (!sub.empty())
        extractInto(weight, sub, stride, sk.data());
    return sk;
}

Plan
compilePlan(const Shape &input, const Tensor &weight,
            const tensor::DeconvSpec &spec)
{
    const int nd = static_cast<int>(input.size()) - 1;
    panic_if(nd < 1 || nd > tensor::kMaxSpatialDims ||
                 weight.rank() != nd + 2 || weight.dim(1) != input[0],
             "compilePlan: input ", tensor::toString(input),
             " and weight ", tensor::toString(weight.shape()),
             " do not form a 1-", tensor::kMaxSpatialDims,
             "-D deconvolution");
    dnn::LayerDesc layer;
    layer.name = "functional";
    layer.kind = dnn::LayerKind::Deconv;
    layer.inChannels = input[0];
    layer.outChannels = weight.dim(0);
    layer.inSpatial.assign(input.begin() + 1, input.end());
    layer.kernel.assign(weight.shape().begin() + 2, weight.shape().end());
    layer.stride = spec.stride;
    layer.pad = spec.pad;

    Plan plan;
    plan.inShape = input;
    plan.outShape = tensor::deconvOutShape(input, weight.shape(), spec);
    TransformedLayer t = transformLayer(layer);
    std::vector<SubConv> subs; // the sub-convolution of each phase
    int64_t weights = 0;
    for (SubConv &sc : t.subConvs) {
        tensor::GemmPhase ph;
        bool has_outputs = true;
        for (int d = 0; d < nd; ++d) {
            const DimPlan &dp = sc.dims[d];
            has_outputs = has_outputs && dp.count > 0;
            ph.taps[d] = dp.taps;
            ph.counts[d] = dp.count;
            ph.origin[d] = dp.inOffset;
            ph.stride[d] = 1;
            ph.offset[d] = dp.phase;
            ph.step[d] = spec.stride[d];
        }
        if (!has_outputs)
            continue;
        ph.weightOffset = weights;
        if (!sc.empty())
            weights += weight.dim(0) * weight.dim(1) *
                       tensor::numElems(sc.kernelExtents());
        plan.phases.push_back(ph);
        subs.push_back(std::move(sc));
    }
    plan.weights.resize(static_cast<size_t>(weights));
    for (size_t i = 0; i < subs.size(); ++i)
        if (!subs[i].empty())
            extractInto(weight, subs[i], spec.stride,
                        plan.weights.data() + plan.phases[i].weightOffset);
    return plan;
}

void
runPlan(const Plan &plan, const Tensor &input,
        const tensor::ConvEpilogue *epilogue, const ExecContext &ctx,
        Tensor &out)
{
    panic_if(input.shape() != plan.inShape ||
                 out.shape() != plan.outShape,
             "runPlan: shapes ", tensor::toString(input.shape()), " -> ",
             tensor::toString(out.shape()), " do not match the plan's ",
             tensor::toString(plan.inShape), " -> ",
             tensor::toString(plan.outShape));
    tensor::gemmPhasesInto(input, plan.weights.data(), plan.phases,
                           epilogue, ctx, out);
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
    const Plan plan = compilePlan(input.shape(), weight, spec);
    Tensor out(plan.outShape);
    if (stats == nullptr) {
        runPlan(plan, input, epi, ctx, out);
        return out;
    }

    // Op-counting route: each phase with taps runs the reference
    // loop as a stride-1 convolution whose padding encodes the
    // origin (a negative leading pad is a crop) and sizes the output
    // to the phase's counts; taps-free phases stay zero.
    const int nd = input.rank() - 1;
    const int64_t K = weight.dim(0);
    for (const tensor::GemmPhase &ph : plan.phases) {
        Shape sk_shape{K, input.dim(0)};
        tensor::ConvSpec cspec;
        cspec.stride.assign(nd, 1);
        for (int d = 0; d < nd; ++d) {
            sk_shape.push_back(ph.taps[d]);
            cspec.padLo.push_back(-ph.origin[d]);
            cspec.padHi.push_back(ph.counts[d] - 1 + ph.taps[d] +
                                  ph.origin[d] - input.dim(1 + d));
        }
        const int64_t sk_size = tensor::numElems(sk_shape);
        if (sk_size == 0)
            continue;
        const float *sk_data = plan.weights.data() + ph.weightOffset;
        const Tensor sk(sk_shape,
                        std::vector<float>(sk_data, sk_data + sk_size));
        const Tensor sub = tensor::convNd(input, sk, cspec,
                                          tensor::ConvOp::MAC, stats, ctx);
        const int64_t N = sub.size() / K;
        tensor::scatterPhase(ph, sub.data(), N, 0, K, 0, N, out);
    }
    if (epi != nullptr) {
        const simd::Kernels &kt = simd::kernels();
        const int64_t P = out.size() / K;
        for (int64_t f = 0; f < K; ++f)
            kt.biasReluRow(out.data() + f * P, static_cast<int>(P),
                           epi->bias ? epi->bias[f] : 0.0f, epi->relu);
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

#include "reference/deconv_reference.hh"

#include <algorithm>
#include <vector>

#include "deconv/transform.hh"
#include "reference/conv_gemm_reference.hh"

namespace asv::deconv::reference
{

using tensor::Shape;
using tensor::Tensor;

Tensor
deconv(const Tensor &input, const Tensor &weight,
       const tensor::DeconvSpec &spec,
       const tensor::ConvEpilogue *epilogue)
{
    const int nd = input.rank() - 1;
    dnn::LayerDesc layer;
    layer.name = "oracle";
    layer.kind = dnn::LayerKind::Deconv;
    layer.inChannels = input.dim(0);
    layer.outChannels = weight.dim(0);
    layer.inSpatial.assign(input.shape().begin() + 1,
                           input.shape().end());
    layer.kernel.assign(weight.shape().begin() + 2,
                        weight.shape().end());
    layer.stride = spec.stride;
    layer.pad = spec.pad;

    Tensor out(tensor::deconvOutShape(input.shape(), weight.shape(),
                                      spec));
    const int64_t K = weight.dim(0);
    for (const SubConv &sc : transformLayer(layer).subConvs) {
        const Shape counts = sc.outExtents();
        if (std::any_of(counts.begin(), counts.end(),
                        [](int64_t c) { return c == 0; }))
            continue; // the phase has no output positions

        Shape sub_shape{K};
        sub_shape.insert(sub_shape.end(), counts.begin(), counts.end());
        Tensor sub(sub_shape);
        if (sc.empty()) {
            for (int64_t f = 0; f < K; ++f) {
                float v = 0.0f;
                if (epilogue != nullptr) {
                    v += epilogue->bias ? epilogue->bias[f] : 0.0f;
                    if (epilogue->relu)
                        v = v > 0.0f ? v : 0.0f;
                }
                const int64_t n = sub.size() / K;
                std::fill_n(sub.data() + f * n, n, v);
            }
        } else {
            // Leading crop (shift > 0) or pad (shift < 0); the
            // trailing pad or crop sizes the output to `count`.
            Shape crop_lo(nd), crop_shape{input.dim(0)};
            tensor::ConvSpec cspec;
            cspec.stride.assign(nd, 1);
            for (int d = 0; d < nd; ++d) {
                const DimPlan &dp = sc.dims[d];
                crop_lo[d] = std::max<int64_t>(0, dp.inOffset);
                const int64_t pad_lo = std::max<int64_t>(0, -dp.inOffset);
                const int64_t len = input.dim(1 + d) - crop_lo[d];
                const int64_t ph = dp.count - 1 + dp.taps - pad_lo - len;
                cspec.padLo.push_back(pad_lo);
                cspec.padHi.push_back(std::max<int64_t>(0, ph));
                crop_shape.push_back(len - std::max<int64_t>(0, -ph));
            }
            Tensor cropped(crop_shape);
            Shape src(nd + 1);
            tensor::forEachIndex(crop_shape,
                                 [&](std::span<const int64_t> idx) {
                src[0] = idx[0];
                for (int d = 0; d < nd; ++d)
                    src[1 + d] = idx[1 + d] + crop_lo[d];
                cropped.at(idx) = input.at(src);
            });
            sub = tensor::reference::convGemm(
                cropped, extractSubKernel(weight, sc, spec.stride), cspec,
                epilogue);
        }

        Shape dst(nd + 1);
        tensor::forEachIndex(sub_shape, [&](std::span<const int64_t> idx) {
            dst[0] = idx[0];
            for (int d = 0; d < nd; ++d)
                dst[1 + d] = idx[1 + d] * spec.stride[d] + sc.dims[d].phase;
            out.at(dst) = sub.at(idx);
        });
    }
    return out;
}

} // namespace asv::deconv::reference

#include "reference/conv_gemm_reference.hh"

#include <cmath>
#include <vector>

namespace asv::tensor::reference
{

namespace
{

constexpr int kMaxSpatialDims = 4;

/** The [R x P] column matrix, one bounds-checked element at a time;
 *  row r = c * T + t, column p = output position in raster order. */
std::vector<float>
im2col(const Tensor &input, const Shape &ospatial,
       const Shape &kspatial, const ConvSpec &spec, int64_t T,
       int64_t R, int64_t P)
{
    const int nd = static_cast<int>(ospatial.size());
    int64_t istride[kMaxSpatialDims];
    int64_t s = 1;
    for (int d = nd - 1; d >= 0; --d) {
        istride[d] = s;
        s *= input.dim(1 + d);
    }
    const int64_t chan_elems = s;

    std::vector<float> col(static_cast<size_t>(R * P));
    int64_t tap[kMaxSpatialDims];
    int64_t o[kMaxSpatialDims];
    for (int64_t r = 0; r < R; ++r) {
        const int64_t c = r / T;
        int64_t t = r % T;
        for (int d = nd - 1; d >= 0; --d) {
            tap[d] = t % kspatial[d];
            t /= kspatial[d];
        }
        const float *src = input.data() + c * chan_elems;
        float *dst = col.data() + r * P;
        for (int d = 0; d < nd; ++d)
            o[d] = 0;
        for (int64_t p = 0; p < P; ++p) {
            int64_t off = 0;
            bool inside = true;
            for (int d = 0; d < nd; ++d) {
                const int64_t v =
                    o[d] * spec.stride[d] - spec.padLo[d] + tap[d];
                if (v < 0 || v >= input.dim(1 + d)) {
                    inside = false;
                    break;
                }
                off += v * istride[d];
            }
            dst[p] = inside ? src[off] : 0.0f;
            for (int d = nd - 1; d >= 0; --d) {
                if (++o[d] < ospatial[d])
                    break;
                o[d] = 0;
            }
        }
    }
    return col;
}

} // namespace

Tensor
convGemm(const Tensor &input, const Tensor &weight,
         const ConvSpec &spec, const ConvEpilogue *epilogue)
{
    Tensor out(convOutShape(input.shape(), weight.shape(), spec));
    const Shape kspatial(weight.shape().begin() + 2,
                         weight.shape().end());
    const Shape ospatial(out.shape().begin() + 1, out.shape().end());
    const int64_t T = numElems(kspatial);
    const int64_t P = numElems(ospatial);
    const int64_t K = weight.dim(0);
    const int64_t R = input.dim(0) * T;
    const std::vector<float> col =
        im2col(input, ospatial, kspatial, spec, T, R, P);

    for (int64_t f = 0; f < K; ++f) {
        const float *a = weight.data() + f * R;
        float *row = out.data() + f * P;
        for (int64_t j = 0; j < P; ++j) {
            float acc = 0.0f;
            for (int64_t i = 0; i < R; ++i)
                acc = std::fmaf(a[i], col[size_t(i * P + j)], acc);
            if (epilogue != nullptr) {
                acc += epilogue->bias ? epilogue->bias[f] : 0.0f;
                if (epilogue->relu)
                    acc = acc > 0.0f ? acc : 0.0f;
            }
            row[j] = acc;
        }
    }
    return out;
}

} // namespace asv::tensor::reference

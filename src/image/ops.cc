#include "image/ops.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace asv::image
{

namespace
{

/** Fill k[0 .. 2r] with the normalized Gaussian taps. */
void
fillGaussianKernel1d(float *k, int radius, double sigma)
{
    panic_if(radius < 0, "negative radius");
    if (sigma <= 0.0)
        sigma = 0.3 * (radius - 1) + 0.8; // OpenCV-style default

    double sum = 0.0;
    for (int i = -radius; i <= radius; ++i) {
        const double v = std::exp(-(double(i) * i) /
                                  (2.0 * sigma * sigma));
        k[i + radius] = static_cast<float>(v);
        sum += v;
    }
    for (int i = 0; i <= 2 * radius; ++i)
        k[i] = static_cast<float>(k[i] / sum);
}

} // namespace

std::vector<float>
gaussianKernel1d(int radius, double sigma)
{
    panic_if(radius < 0, "negative radius");
    std::vector<float> k(2 * radius + 1);
    fillGaussianKernel1d(k.data(), radius, sigma);
    return k;
}

void
copyRowClamped(const Image &src, int y, int radius, float *dst)
{
    const int w = src.width();
    const float *row = src.data() + int64_t(y) * w;
    std::fill(dst, dst + radius, row[0]);
    std::copy(row, row + w, dst + radius);
    std::fill(dst + radius + w, dst + w + 2 * radius, row[w - 1]);
}

namespace
{

/**
 * acc[x] += k * v[x] over one row: the float product, widened, into
 * the double accumulator — the exact term the per-pixel tap loop
 * adds, so tap-outer order changes nothing but the loop nest.
 */
void
accumulateTap(double *acc, float k, const float *v, int n)
{
    for (int x = 0; x < n; ++x)
        acc[x] += k * v[x];
}

void
storeRow(const double *acc, float *dst, int n)
{
    for (int x = 0; x < n; ++x)
        dst[x] = static_cast<float>(acc[x]);
}

} // namespace

Image
gaussianBlur(const Image &src, int radius, double sigma,
             const ExecContext &ctx)
{
    if (radius == 0 || src.empty())
        return src;
    const int taps = 2 * radius + 1;
    auto k = ctx.buffers().acquire<float>(size_t(taps));
    fillGaussianKernel1d(k.data(), radius, sigma);
    const int w = src.width(), h = src.height();

    // Both passes write every pixel of their target, so the pooled
    // acquisitions skip the clear. Each row chunk accumulates tap by
    // tap into its own double row, starting from 0.0 like the
    // per-pixel sum, so every pixel adds the same products in the
    // same order for any worker count. The chunk rows are acquired
    // up front: acquiring inside the workers would make the number
    // of live same-shape buffers (and with it the steady-state pool
    // miss count) depend on thread scheduling.
    Image tmp = acquireImageUninit(ctx.buffers(), w, h);
    Image dst = acquireImageUninit(ctx.buffers(), w, h);
    const size_t chunks = size_t(ctx.numThreads());
    const size_t padded = size_t(w + 2 * radius);
    auto pads = ctx.buffers().acquire<float>(chunks * padded);
    auto accs = ctx.buffers().acquire<double>(chunks * size_t(w));
    // Horizontal pass: one clamp-padded copy per row replaces the
    // per-tap border clamps.
    ctx.parallelForChunks(0, h, [&](int64_t y0, int64_t y1, int c) {
        float *pad = pads.data() + size_t(c) * padded;
        double *acc = accs.data() + size_t(c) * size_t(w);
        for (int y = int(y0); y < int(y1); ++y) {
            copyRowClamped(src, y, radius, pad);
            std::fill(acc, acc + w, 0.0);
            for (int t = 0; t < taps; ++t)
                accumulateTap(acc, k[t], pad + t, w);
            storeRow(acc, tmp.data() + int64_t(y) * w, w);
        }
    });
    // Vertical pass: reads cross row chunks, but tmp is complete
    // (the horizontal pass barriers) and each row writes only its
    // own slice of dst. The clamp picks whole source rows.
    ctx.parallelForChunks(0, h, [&](int64_t y0, int64_t y1, int c) {
        double *acc = accs.data() + size_t(c) * size_t(w);
        for (int y = int(y0); y < int(y1); ++y) {
            std::fill(acc, acc + w, 0.0);
            for (int t = 0; t < taps; ++t) {
                const int ys = clamp(y + t - radius, 0, h - 1);
                accumulateTap(acc, k[t], tmp.data() + int64_t(ys) * w,
                              w);
            }
            storeRow(acc, dst.data() + int64_t(y) * w, w);
        }
    });
    return dst;
}

Image
gaussianBlur(const Image &src, int radius, double sigma)
{
    return gaussianBlur(src, radius, sigma, ExecContext::global());
}

int64_t
gaussianBlurOps(int width, int height, int radius)
{
    // Two separable passes, one MAC per tap per pixel.
    const int64_t taps = 2 * int64_t(radius) + 1;
    return 2 * taps * int64_t(width) * int64_t(height);
}

Image
resizeBilinear(const Image &src, int new_width, int new_height,
               const ExecContext &ctx)
{
    panic_if(new_width <= 0 || new_height <= 0, "bad resize target");
    Image dst = acquireImageUninit(ctx.buffers(), new_width,
                                   new_height);
    const float sx = float(src.width()) / new_width;
    const float sy = float(src.height()) / new_height;
    // Output rows are independent.
    ctx.parallelFor(0, new_height, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < new_width; ++x) {
                const float fx = (x + 0.5f) * sx - 0.5f;
                const float fy = (y + 0.5f) * sy - 0.5f;
                dst.at(x, y) = src.sample(fx, fy);
            }
        }
    });
    return dst;
}

Image
resizeBilinear(const Image &src, int new_width, int new_height)
{
    return resizeBilinear(src, new_width, new_height,
                          ExecContext::global());
}

Image
downsample2x(const Image &src, const ExecContext &ctx)
{
    Image blurred = gaussianBlur(src, 1, 0.8, ctx);
    const int w = std::max(1, src.width() / 2);
    const int h = std::max(1, src.height() / 2);
    Image dst = acquireImageUninit(ctx.buffers(), w, h);
    // Output rows are independent.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y)
            for (int x = 0; x < w; ++x)
                dst.at(x, y) = blurred.atClamped(2 * x, 2 * y);
    });
    return dst;
}

Image
downsample2x(const Image &src)
{
    return downsample2x(src, ExecContext::global());
}

Image
gradientX(const Image &src)
{
    Image dst(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            dst.at(x, y) = 0.5f * (src.atClamped(x + 1, y) -
                                   src.atClamped(x - 1, y));
    return dst;
}

Image
gradientY(const Image &src)
{
    Image dst(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            dst.at(x, y) = 0.5f * (src.atClamped(x, y + 1) -
                                   src.atClamped(x, y - 1));
    return dst;
}

std::vector<Image>
buildPyramid(const Image &src, int levels, int min_size,
             const ExecContext &ctx)
{
    panic_if(levels < 1, "pyramid needs at least one level");
    std::vector<Image> pyr;
    pyr.reserve(size_t(levels));
    // Level 0 is a pooled copy of the source so the whole pyramid
    // recycles (the plain push_back(src) copy would heap-allocate
    // a full-resolution frame every call).
    Image base =
        acquireImageUninit(ctx.buffers(), src.width(), src.height());
    std::copy(src.data(), src.data() + src.size(), base.data());
    pyr.push_back(std::move(base));
    for (int l = 1; l < levels; ++l) {
        const Image &prev = pyr.back();
        if (prev.width() / 2 < min_size || prev.height() / 2 < min_size)
            break;
        pyr.push_back(downsample2x(prev, ctx));
    }
    return pyr;
}

std::vector<Image>
buildPyramid(const Image &src, int levels, int min_size)
{
    return buildPyramid(src, levels, min_size,
                        ExecContext::global());
}

double
meanAbsDiff(const Image &a, const Image &b)
{
    panic_if(a.width() != b.width() || a.height() != b.height(),
             "image size mismatch");
    if (a.size() == 0)
        return 0.0;
    double s = 0.0;
    for (int64_t i = 0; i < a.size(); ++i)
        s += std::abs(double(a.data()[i]) - b.data()[i]);
    return s / double(a.size());
}

} // namespace asv::image

#include "reference/farneback_reference.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "image/ops.hh"

namespace asv::flow::reference
{

image::Image
gaussianBlur(const image::Image &src, int radius, double sigma,
             const ExecContext &ctx)
{
    if (radius == 0)
        return src;
    const std::vector<float> k = image::gaussianKernel1d(radius, sigma);
    const int w = src.width(), h = src.height();

    image::Image tmp = image::acquireImageUninit(ctx.buffers(), w, h);
    image::Image dst = image::acquireImageUninit(ctx.buffers(), w, h);
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                double acc = 0.0;
                for (int i = -radius; i <= radius; ++i)
                    acc += k[i + radius] * src.atClamped(x + i, y);
                tmp.at(x, y) = static_cast<float>(acc);
            }
        }
    });
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                double acc = 0.0;
                for (int i = -radius; i <= radius; ++i)
                    acc += k[i + radius] * tmp.atClamped(x, y + i);
                dst.at(x, y) = static_cast<float>(acc);
            }
        }
    });
    return dst;
}

namespace
{

/** Solve the 6x6 system M x = r in place (partial pivoting). */
std::array<double, 6>
solve6(std::array<std::array<double, 6>, 6> m, std::array<double, 6> r)
{
    constexpr int n = 6;
    for (int col = 0; col < n; ++col) {
        int pivot = col;
        for (int row = col + 1; row < n; ++row)
            if (std::abs(m[row][col]) > std::abs(m[pivot][col]))
                pivot = row;
        std::swap(m[col], m[pivot]);
        std::swap(r[col], r[pivot]);
        panic_if(std::abs(m[col][col]) < 1e-12,
                 "singular Gram matrix in polynomial expansion");
        for (int row = col + 1; row < n; ++row) {
            const double f = m[row][col] / m[col][col];
            for (int k = col; k < n; ++k)
                m[row][k] -= f * m[col][k];
            r[row] -= f * r[col];
        }
    }
    std::array<double, 6> x{};
    for (int row = n - 1; row >= 0; --row) {
        double acc = r[row];
        for (int k = row + 1; k < n; ++k)
            acc -= m[row][k] * x[k];
        x[row] = acc / m[row][row];
    }
    return x;
}

/** G^-1 of the basis {1, dx, dy, dx^2, dy^2, dxdy}, row by row. */
std::array<std::array<double, 6>, 6>
inverseGram(int radius, double sigma)
{
    std::array<std::array<double, 6>, 6> g{};
    for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
            const double w =
                std::exp(-(double(dx) * dx + double(dy) * dy) /
                         (2.0 * sigma * sigma));
            const std::array<double, 6> phi = {
                1.0, double(dx), double(dy), double(dx) * dx,
                double(dy) * dy, double(dx) * dy};
            for (int i = 0; i < 6; ++i)
                for (int j = 0; j < 6; ++j)
                    g[i][j] += w * phi[i] * phi[j];
        }
    }
    std::array<std::array<double, 6>, 6> inv{};
    for (int col = 0; col < 6; ++col) {
        std::array<double, 6> e{};
        e[col] = 1.0;
        const auto x = solve6(g, e);
        for (int row = 0; row < 6; ++row)
            inv[row][col] = x[row];
    }
    return inv;
}

/** Taps w(t) * t^p of one separable moment pass. */
std::vector<double>
momentKernel(int radius, double sigma, int p)
{
    std::vector<double> k(size_t(2 * radius + 1));
    for (int t = -radius; t <= radius; ++t) {
        const double w =
            std::exp(-(double(t) * t) / (2.0 * sigma * sigma));
        k[t + radius] = w * std::pow(double(t), p);
    }
    return k;
}

/** One separable pass along x with kernel w(t)*t^p. */
image::Image
rowMoment(const image::Image &src, int radius, double sigma, int p,
          const ExecContext &ctx)
{
    image::Image dst = image::acquireImageUninit(
        ctx.buffers(), src.width(), src.height());
    const std::vector<double> k = momentKernel(radius, sigma, p);
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            double acc = 0.0;
            for (int t = -radius; t <= radius; ++t)
                acc += k[t + radius] * src.atClamped(x + t, y);
            dst.at(x, y) = static_cast<float>(acc);
        }
    }
    return dst;
}

/** One separable pass along y with kernel w(t)*t^q. */
image::Image
colMoment(const image::Image &src, int radius, double sigma, int q,
          const ExecContext &ctx)
{
    image::Image dst = image::acquireImageUninit(
        ctx.buffers(), src.width(), src.height());
    const std::vector<double> k = momentKernel(radius, sigma, q);
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            double acc = 0.0;
            for (int t = -radius; t <= radius; ++t)
                acc += k[t + radius] * src.atClamped(x, y + t);
            dst.at(x, y) = static_cast<float>(acc);
        }
    }
    return dst;
}

/** Gaussian pyramid on the scalar blur, level 0 a copy of src. */
std::vector<image::Image>
buildPyramid(const image::Image &src, int levels, int min_size,
             const ExecContext &ctx)
{
    std::vector<image::Image> pyr;
    pyr.push_back(src);
    for (int l = 1; l < levels; ++l) {
        const image::Image &prev = pyr.back();
        if (prev.width() / 2 < min_size || prev.height() / 2 < min_size)
            break;
        const image::Image blurred =
            reference::gaussianBlur(prev, 1, 0.8, ctx);
        const int w = std::max(1, prev.width() / 2);
        const int h = std::max(1, prev.height() / 2);
        image::Image dst(w, h);
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                dst.at(x, y) = blurred.atClamped(2 * x, 2 * y);
        pyr.push_back(std::move(dst));
    }
    return pyr;
}

/** One displacement-update iteration at a single scale. */
void
updateFlow(const PolyExpansion &p1, const PolyExpansion &p2,
           FlowField &flow, int blur_radius, const ExecContext &ctx)
{
    const int w = flow.width(), h = flow.height();
    image::Image g11(w, h), g12(w, h), g22(w, h), h1(w, h), h2(w, h);

    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float du = flow.u.at(x, y);
            const float dv = flow.v.at(x, y);
            const float xs = clamp(float(x) + du, 0.f, float(w - 1));
            const float ys = clamp(float(y) + dv, 0.f, float(h - 1));

            const double a11 =
                0.5 * (p1.axx.at(x, y) + p2.axx.sample(xs, ys));
            const double a22 =
                0.5 * (p1.ayy.at(x, y) + p2.ayy.sample(xs, ys));
            const double a12 =
                0.25 * (p1.axy.at(x, y) + p2.axy.sample(xs, ys));

            const double db1 =
                -0.5 * (p2.bx.sample(xs, ys) - p1.bx.at(x, y)) +
                a11 * du + a12 * dv;
            const double db2 =
                -0.5 * (p2.by.sample(xs, ys) - p1.by.at(x, y)) +
                a12 * du + a22 * dv;

            g11.at(x, y) = float(a11 * a11 + a12 * a12);
            g12.at(x, y) = float(a12 * (a11 + a22));
            g22.at(x, y) = float(a22 * a22 + a12 * a12);
            h1.at(x, y) = float(a11 * db1 + a12 * db2);
            h2.at(x, y) = float(a12 * db1 + a22 * db2);
        }
    }

    g11 = reference::gaussianBlur(g11, blur_radius, -1.0, ctx);
    g12 = reference::gaussianBlur(g12, blur_radius, -1.0, ctx);
    g22 = reference::gaussianBlur(g22, blur_radius, -1.0, ctx);
    h1 = reference::gaussianBlur(h1, blur_radius, -1.0, ctx);
    h2 = reference::gaussianBlur(h2, blur_radius, -1.0, ctx);

    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const double a = g11.at(x, y), b = g12.at(x, y);
            const double c = g22.at(x, y);
            const double det = a * c - b * b;
            if (std::abs(det) < 1e-9)
                continue;
            const double r1 = h1.at(x, y), r2 = h2.at(x, y);
            flow.u.at(x, y) = float((c * r1 - b * r2) / det);
            flow.v.at(x, y) = float((a * r2 - b * r1) / det);
        }
    }
}

} // namespace

PolyExpansion
polyExpansion(const image::Image &img, int radius, double sigma,
              const ExecContext &ctx)
{
    panic_if(radius < 1, "polynomial radius must be >= 1");
    const int w = img.width(), h = img.height();
    const auto ginv = inverseGram(radius, sigma);

    // Separable moments: m(p,q) = col_q(row_p(f)).
    const image::Image r0 = rowMoment(img, radius, sigma, 0, ctx);
    const image::Image r1 = rowMoment(img, radius, sigma, 1, ctx);
    const image::Image r2 = rowMoment(img, radius, sigma, 2, ctx);
    const image::Image m00 = colMoment(r0, radius, sigma, 0, ctx);
    const image::Image m10 = colMoment(r1, radius, sigma, 0, ctx);
    const image::Image m01 = colMoment(r0, radius, sigma, 1, ctx);
    const image::Image m20 = colMoment(r2, radius, sigma, 0, ctx);
    const image::Image m02 = colMoment(r0, radius, sigma, 2, ctx);
    const image::Image m11 = colMoment(r1, radius, sigma, 1, ctx);

    PolyExpansion pe{image::Image(w, h), image::Image(w, h),
                     image::Image(w, h), image::Image(w, h),
                     image::Image(w, h), image::Image(w, h)};

    // Basis order: {1, dx, dy, dx^2, dy^2, dxdy}.
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const std::array<double, 6> m = {
                m00.at(x, y), m10.at(x, y), m01.at(x, y),
                m20.at(x, y), m02.at(x, y), m11.at(x, y)};
            std::array<double, 6> coef{};
            for (int i = 0; i < 6; ++i) {
                double acc = 0.0;
                for (int j = 0; j < 6; ++j)
                    acc += ginv[i][j] * m[j];
                coef[i] = acc;
            }
            pe.c.at(x, y) = static_cast<float>(coef[0]);
            pe.bx.at(x, y) = static_cast<float>(coef[1]);
            pe.by.at(x, y) = static_cast<float>(coef[2]);
            pe.axx.at(x, y) = static_cast<float>(coef[3]);
            pe.ayy.at(x, y) = static_cast<float>(coef[4]);
            pe.axy.at(x, y) = static_cast<float>(coef[5]);
        }
    }
    return pe;
}

FlowField
farnebackFlow(const image::Image &frame0, const image::Image &frame1,
              const FarnebackParams &params, const FlowField *init,
              const ExecContext &ctx)
{
    panic_if(frame0.width() != frame1.width() ||
                 frame0.height() != frame1.height(),
             "frame size mismatch");
    panic_if(init && (init->width() != frame0.width() ||
                      init->height() != frame0.height()),
             "init flow size mismatch");

    const auto pyr0 =
        reference::buildPyramid(frame0, params.pyramidLevels, 16, ctx);
    const auto pyr1 =
        reference::buildPyramid(frame1, params.pyramidLevels, 16, ctx);
    const int levels = static_cast<int>(pyr0.size());

    const int wc = pyr0[levels - 1].width();
    const int hc = pyr0[levels - 1].height();
    FlowField flow(wc, hc);
    if (init) {
        const float s = 1.f / float(1 << (levels - 1));
        flow.u = image::resizeBilinear(init->u, wc, hc, ctx);
        flow.v = image::resizeBilinear(init->v, wc, hc, ctx);
        for (int64_t i = 0; i < flow.u.size(); ++i) {
            flow.u.data()[i] *= s;
            flow.v.data()[i] *= s;
        }
    }

    for (int level = levels - 1; level >= 0; --level) {
        const image::Image &f0 = pyr0[level];
        const image::Image &f1 = pyr1[level];

        if (level != levels - 1) {
            const float sx = float(f0.width()) / flow.width();
            FlowField up;
            up.u = image::resizeBilinear(flow.u, f0.width(),
                                         f0.height(), ctx);
            up.v = image::resizeBilinear(flow.v, f0.width(),
                                         f0.height(), ctx);
            for (int64_t i = 0; i < up.u.size(); ++i) {
                up.u.data()[i] *= sx;
                up.v.data()[i] *= sx;
            }
            flow = std::move(up);
        }

        const PolyExpansion p0 = polyExpansion(
            f0, params.polyRadius, params.polySigma, ctx);
        const PolyExpansion p1 = polyExpansion(
            f1, params.polyRadius, params.polySigma, ctx);

        for (int it = 0; it < params.iterations; ++it)
            updateFlow(p0, p1, flow, params.blurRadius, ctx);
    }
    return flow;
}

} // namespace asv::flow::reference

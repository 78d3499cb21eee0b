#include "flow/farneback.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "image/ops.hh"

namespace asv::flow
{

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

/**
 * Invert the Gram matrix of the basis {1, dx, dy, dx^2, dy^2, dxdy}
 * under the Gaussian applicability, returning G^-1 row by row so the
 * per-pixel projection is six dot products with the moment vector.
 */
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
    // Invert column by column.
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

/*
 * The two tap kernels of the expansion: one tap of the x-moment pass
 * and one tap of the y-moment pass, over a whole row. Each adds the
 * double product k * v to its accumulator row, the same term the
 * per-pixel tap loop adds. The accumulator rows are disjoint, which
 * __restrict tells the vectorizer.
 */

/** a_p[x] += k_p * v[x], p = 0, 1, 2. */
void
rowTaps(double *__restrict a0, double *__restrict a1,
        double *__restrict a2, const float *v, double k0, double k1,
        double k2, int n)
{
    for (int x = 0; x < n; ++x) {
        a0[x] += k0 * v[x];
        a1[x] += k1 * v[x];
        a2[x] += k2 * v[x];
    }
}

/** m_pq[x] += k_q * r_p[x] for the six moments m00 .. m11. */
void
columnTaps(double *__restrict m00, double *__restrict m10,
           double *__restrict m01, double *__restrict m20,
           double *__restrict m02, double *__restrict m11,
           const float *r0, const float *r1, const float *r2, double k0,
           double k1, double k2, int n)
{
    for (int x = 0; x < n; ++x) {
        m00[x] += k0 * r0[x];
        m10[x] += k0 * r1[x];
        m01[x] += k1 * r0[x];
        m20[x] += k0 * r2[x];
        m02[x] += k2 * r0[x];
        m11[x] += k1 * r1[x];
    }
}

} // namespace

PolyExpansion
polyExpansion(const image::Image &img, int radius, double sigma,
              const ExecContext &ctx)
{
    panic_if(radius < 1, "polynomial radius must be >= 1");
    const int w = img.width(), h = img.height();
    const int taps = 2 * radius + 1;
    const auto ginv = inverseGram(radius, sigma);

    BufferPool &bp = ctx.buffers();
    PolyExpansion pe{image::acquireImageUninit(bp, w, h),
                     image::acquireImageUninit(bp, w, h),
                     image::acquireImageUninit(bp, w, h),
                     image::acquireImageUninit(bp, w, h),
                     image::acquireImageUninit(bp, w, h),
                     image::acquireImageUninit(bp, w, h)};
    if (img.empty())
        return pe;

    // Moment taps w(t) * t^p for p = 0, 1, 2, stored at k[p * taps].
    // The row and column passes share them (the window is isotropic).
    auto k = bp.acquire<double>(size_t(3 * taps));
    for (int p = 0; p < 3; ++p) {
        for (int t = -radius; t <= radius; ++t) {
            const double g =
                std::exp(-(double(t) * t) / (2.0 * sigma * sigma));
            k[size_t(p * taps + t + radius)] = g * std::pow(double(t), p);
        }
    }
    const double *k0 = k.data(), *k1 = k0 + taps, *k2 = k1 + taps;

    // Separable moments m(p,q) = col_q(row_p(f)), each a float plane
    // summed in double, tap by tap from 0.0. Per-chunk scratch (a
    // padded row, six double rows) is acquired up front so the live
    // buffer count never depends on thread scheduling.
    const size_t chunks = size_t(ctx.numThreads());
    const size_t padded = size_t(w + 2 * radius);
    auto pads = bp.acquire<float>(chunks * padded);
    auto accs = bp.acquire<double>(chunks * 6 * size_t(w));

    // The row pass makes the three x-moments r_p from one
    // clamp-padded copy of each row.
    image::Image r0 = image::acquireImageUninit(bp, w, h);
    image::Image r1 = image::acquireImageUninit(bp, w, h);
    image::Image r2 = image::acquireImageUninit(bp, w, h);
    ctx.parallelForChunks(0, h, [&](int64_t y0, int64_t y1, int c) {
        float *pad = pads.data() + size_t(c) * padded;
        double *a0 = accs.data() + size_t(c) * 6 * size_t(w);
        double *a1 = a0 + w, *a2 = a1 + w;
        for (int y = int(y0); y < int(y1); ++y) {
            image::copyRowClamped(img, y, radius, pad);
            std::fill(a0, a0 + 3 * w, 0.0);
            for (int t = 0; t < taps; ++t)
                rowTaps(a0, a1, a2, pad + t, k0[t], k1[t], k2[t], w);
            const int64_t row = int64_t(y) * w;
            for (int x = 0; x < w; ++x) {
                r0.data()[row + x] = static_cast<float>(a0[x]);
                r1.data()[row + x] = static_cast<float>(a1[x]);
                r2.data()[row + x] = static_cast<float>(a2[x]);
            }
        }
    });

    // The column pass makes the six y-moments of each output row,
    // rounds them to float (the moment planes' precision), and
    // projects them onto the basis {1, dx, dy, dx^2, dy^2, dxdy}
    // through G^-1, in the moment order
    // {m00, m10, m01, m20, m02, m11}.
    float *out[6] = {pe.c.data(),   pe.bx.data(),  pe.by.data(),
                     pe.axx.data(), pe.ayy.data(), pe.axy.data()};
    ctx.parallelForChunks(0, h, [&](int64_t y0, int64_t y1, int c) {
        double *m00 = accs.data() + size_t(c) * 6 * size_t(w);
        double *m10 = m00 + w, *m01 = m10 + w;
        double *m20 = m01 + w, *m02 = m20 + w, *m11 = m02 + w;
        for (int y = int(y0); y < int(y1); ++y) {
            std::fill(m00, m00 + 6 * w, 0.0);
            for (int t = 0; t < taps; ++t) {
                const int64_t row =
                    int64_t(clamp(y + t - radius, 0, h - 1)) * w;
                const float *s0 = r0.data() + row;
                const float *s1 = r1.data() + row;
                const float *s2 = r2.data() + row;
                columnTaps(m00, m10, m01, m20, m02, m11, s0, s1, s2,
                           k0[t], k1[t], k2[t], w);
            }
            // The six rows are contiguous from m00.
            for (int x = 0; x < 6 * w; ++x)
                m00[x] = static_cast<float>(m00[x]);
            const int64_t row = int64_t(y) * w;
            for (int i = 0; i < 6; ++i) {
                const auto &g = ginv[size_t(i)];
                float *dst = out[i] + row;
                for (int x = 0; x < w; ++x) {
                    double a = 0.0;
                    a += g[0] * m00[x];
                    a += g[1] * m10[x];
                    a += g[2] * m01[x];
                    a += g[3] * m20[x];
                    a += g[4] * m02[x];
                    a += g[5] * m11[x];
                    dst[x] = static_cast<float>(a);
                }
            }
        }
    });
    return pe;
}

PolyExpansion
polyExpansion(const image::Image &img, int radius, double sigma)
{
    return polyExpansion(img, radius, sigma, ExecContext::global());
}

namespace
{

/**
 * One displacement-update iteration at a single scale ("Matrix
 * Update" + Gaussian blur + "Compute Flow" in ASV's mapping).
 */
void
updateFlow(const PolyExpansion &p1, const PolyExpansion &p2,
           FlowField &flow, int blur_radius, const ExecContext &ctx)
{
    const int w = flow.width(), h = flow.height();

    // The matrix update writes every pixel of the five normal-
    // equation planes, so the pooled acquisitions skip the clear.
    BufferPool &bp = ctx.buffers();
    image::Image g11 = image::acquireImageUninit(bp, w, h);
    image::Image g12 = image::acquireImageUninit(bp, w, h);
    image::Image g22 = image::acquireImageUninit(bp, w, h);
    image::Image h1 = image::acquireImageUninit(bp, w, h);
    image::Image h2 = image::acquireImageUninit(bp, w, h);

    // Matrix update: build the per-pixel normal equations. Rows are
    // independent (each writes disjoint slices of g/h), so they fan
    // out on the context's pool bit-identically.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                const float du = flow.u.at(x, y);
                const float dv = flow.v.at(x, y);
                const float xs = clamp(float(x) + du, 0.f, float(w - 1));
                const float ys = clamp(float(y) + dv, 0.f, float(h - 1));

                // The bilinear footprint of (xs, ys), computed once
                // for the five p2 samples with Image::sample's exact
                // weights, clamps and sum order.
                const int x0 = static_cast<int>(std::floor(xs));
                const int y0s = static_cast<int>(std::floor(ys));
                const float fx = xs - x0;
                const float fy = ys - y0s;
                const float w00 = (1 - fx) * (1 - fy);
                const float w10 = fx * (1 - fy);
                const float w01 = (1 - fx) * fy;
                const float w11 = fx * fy;
                const int64_t xa = clamp(x0, 0, w - 1);
                const int64_t xb = clamp(x0 + 1, 0, w - 1);
                const int64_t ra = int64_t(clamp(y0s, 0, h - 1)) * w;
                const int64_t rb = int64_t(clamp(y0s + 1, 0, h - 1)) * w;
                const auto sample = [&](const image::Image &img) {
                    const float *d = img.data();
                    return w00 * d[ra + xa] + w10 * d[ra + xb] +
                           w01 * d[rb + xa] + w11 * d[rb + xb];
                };

                // A = (A1(x) + A2(x+d)) / 2, with A =
                // [[axx, axy/2], [axy/2, ayy]].
                const double a11 =
                    0.5 * (p1.axx.at(x, y) + sample(p2.axx));
                const double a22 =
                    0.5 * (p1.ayy.at(x, y) + sample(p2.ayy));
                const double a12 =
                    0.25 * (p1.axy.at(x, y) + sample(p2.axy));

                // db = -(1/2)(b2(x+d) - b1(x)) + A d.
                const double db1 =
                    -0.5 * (sample(p2.bx) - p1.bx.at(x, y)) +
                    a11 * du + a12 * dv;
                const double db2 =
                    -0.5 * (sample(p2.by) - p1.by.at(x, y)) +
                    a12 * du + a22 * dv;

                // Accumulate G = A^T A and h = A^T db.
                g11.at(x, y) = float(a11 * a11 + a12 * a12);
                g12.at(x, y) = float(a12 * (a11 + a22));
                g22.at(x, y) = float(a22 * a22 + a12 * a12);
                h1.at(x, y) = float(a11 * db1 + a12 * db2);
                h2.at(x, y) = float(a12 * db1 + a22 * db2);
            }
        }
    });

    // Gaussian aggregation of the normal equations.
    g11 = image::gaussianBlur(g11, blur_radius, -1.0, ctx);
    g12 = image::gaussianBlur(g12, blur_radius, -1.0, ctx);
    g22 = image::gaussianBlur(g22, blur_radius, -1.0, ctx);
    h1 = image::gaussianBlur(h1, blur_radius, -1.0, ctx);
    h2 = image::gaussianBlur(h2, blur_radius, -1.0, ctx);

    // Compute flow: per-pixel 2x2 solve, row-parallel.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                const double a = g11.at(x, y), b = g12.at(x, y);
                const double c = g22.at(x, y);
                const double det = a * c - b * b;
                if (std::abs(det) < 1e-9)
                    continue; // textureless region: keep previous flow
                const double r1 = h1.at(x, y), r2 = h2.at(x, y);
                flow.u.at(x, y) = float((c * r1 - b * r2) / det);
                flow.v.at(x, y) = float((a * r2 - b * r1) / det);
            }
        }
    });
}

/**
 * Coarse-to-fine flow from @p f0 to @p f1, which sit @p level levels
 * below the full-resolution frames of a pyramid @p levels deep. The
 * coarser levels are made by recursion: each level is a pooled image
 * held by one stack frame, so no level list is ever allocated.
 */
FlowField
pyramidFlow(const image::Image &f0, const image::Image &f1, int level,
            int levels, const FarnebackParams &params,
            const FlowField *init, const ExecContext &ctx)
{
    const int w = f0.width(), h = f0.height();
    FlowField flow;
    if (level == levels - 1) {
        if (init) {
            const float s = 1.f / float(1 << (levels - 1));
            flow.u = image::resizeBilinear(init->u, w, h, ctx);
            flow.v = image::resizeBilinear(init->v, w, h, ctx);
            for (int64_t i = 0; i < flow.u.size(); ++i) {
                flow.u.data()[i] *= s;
                flow.v.data()[i] *= s;
            }
        } else {
            // Unseeded flow starts at zero displacement.
            flow.u = image::acquireImage(ctx.buffers(), w, h);
            flow.v = image::acquireImage(ctx.buffers(), w, h);
        }
    } else {
        FlowField coarse;
        {
            const image::Image c0 = image::downsample2x(f0, ctx);
            const image::Image c1 = image::downsample2x(f1, ctx);
            coarse = pyramidFlow(c0, c1, level + 1, levels, params,
                                 init, ctx);
        }
        // Upsample flow from the coarser level and rescale.
        const float sx = float(w) / coarse.width();
        flow.u = image::resizeBilinear(coarse.u, w, h, ctx);
        flow.v = image::resizeBilinear(coarse.v, w, h, ctx);
        for (int64_t i = 0; i < flow.u.size(); ++i) {
            flow.u.data()[i] *= sx;
            flow.v.data()[i] *= sx;
        }
    }

    const PolyExpansion p0 =
        polyExpansion(f0, params.polyRadius, params.polySigma, ctx);
    const PolyExpansion p1 =
        polyExpansion(f1, params.polyRadius, params.polySigma, ctx);
    for (int it = 0; it < params.iterations; ++it)
        updateFlow(p0, p1, flow, params.blurRadius, ctx);
    return flow;
}

} // namespace

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
    panic_if(params.pyramidLevels < 1,
             "pyramid needs at least one level");

    // The depth image::buildPyramid(frame, pyramidLevels, 16) would
    // reach: halve while both sides stay at least 16 pixels.
    int levels = 1;
    for (int w = frame0.width(), h = frame0.height();
         levels < params.pyramidLevels && w / 2 >= 16 && h / 2 >= 16;
         w /= 2, h /= 2)
        ++levels;
    return pyramidFlow(frame0, frame1, 0, levels, params, init, ctx);
}

FlowField
farnebackFlow(const image::Image &frame0, const image::Image &frame1,
              const FarnebackParams &params, const FlowField *init)
{
    return farnebackFlow(frame0, frame1, params, init,
                         ExecContext::global());
}

FarnebackCost
farnebackCost(int width, int height, const FarnebackParams &params)
{
    FarnebackCost cost;
    int w = width, h = height;
    for (int level = 0; level < params.pyramidLevels; ++level) {
        const int64_t pixels = int64_t(w) * h;
        const int taps_poly = 2 * params.polyRadius + 1;
        const int taps_blur = 2 * params.blurRadius + 1;

        // Polynomial expansion of both frames: 3 row passes + 6 col
        // passes, each one MAC per tap, plus the 6x6 projection.
        cost.convOps += 2 * pixels * int64_t(9) * taps_poly;
        cost.pointwiseOps += 2 * pixels * 36;

        // Per iteration: matrix update (~20 point ops/pixel), five
        // separable Gaussian blurs, 2x2 solve (~10 point ops/pixel).
        cost.pointwiseOps += int64_t(params.iterations) * pixels * 30;
        cost.convOps += int64_t(params.iterations) * pixels * 5 * 2 *
                        taps_blur;

        w = std::max(1, w / 2);
        h = std::max(1, h / 2);
    }
    return cost;
}

} // namespace asv::flow

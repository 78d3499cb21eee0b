#include "reference/sgm_materialized.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace asv::stereo::reference
{

namespace
{

/**
 * Aggregation-stage geometry: the cost volume transposed to
 * pixel-major ([(y * w + x) * nd + d]) so every pixel's nd
 * disparities are the contiguous uint16 lanes the dispatched
 * aggregateRow kernel consumes, together with the pixel-major
 * aggregated totals. All arithmetic is exact integer, so the result
 * is independent of how paths are scheduled across threads.
 */
struct AggregateView
{
    const uint16_t *cost; //!< pixel-major cost, [(y*w + x)*nd + d]
    uint32_t *total;      //!< pixel-major running sum, same layout
    int w, h, nd;
    uint16_t p1, p2; //!< clamped to [0, 0xFFFF] (kernel contract)

    const uint16_t *costPx(int x, int y) const
    {
        return cost + (int64_t(y) * w + x) * nd;
    }
    uint32_t *totalPx(int x, int y) const
    {
        return total + (int64_t(y) * w + x) * nd;
    }
};

/**
 * Path-start step (no predecessor): L_r is the raw matching cost.
 * Returns min(cur[0..nd)) — the prev_min of the next pixel.
 */
inline uint16_t
startRow(const uint16_t *cost_px, int nd, uint16_t *cur,
         uint32_t *total_px)
{
    uint16_t cur_min = 0xFFFF;
    for (int d = 0; d < nd; ++d) {
        const uint16_t c = cost_px[d];
        cur[d] = c;
        total_px[d] += c;
        cur_min = std::min(cur_min, c);
    }
    return cur_min;
}

/**
 * Per-path L_r scratch rows padded with the 0xFFFF neighbor
 * sentinels the aggregateRow kernel contract requires at prev[-1]
 * and prev[nd] (the oracle keeps its own copy of the engine's
 * helper, so an edit to one cannot silently change both). The kernel only ever writes cur[0..nd), so the
 * sentinels set at construction survive every swap. Storage comes
 * from the context's BufferPool: recycled contents are re-sentineled
 * here, so a recycled scratch is indistinguishable from a fresh one.
 */
class PathScratch
{
  public:
    PathScratch(int nd, int64_t paths, BufferPool &pool)
        : stride_(nd + 2),
          buf_(pool.acquire<uint16_t>(size_t(stride_ * paths)))
    {
        std::fill(buf_.data(), buf_.data() + buf_.size(),
                  uint16_t(0xFFFF));
    }

    /** Interior (length-nd) slice of path @p i. */
    uint16_t *row(int64_t i) { return buf_.data() + i * stride_ + 1; }

    void swap(PathScratch &other)
    {
        buf_.swap(other.buf_);
    }

  private:
    int64_t stride_;
    PoolHandle<uint16_t> buf_;
};

/**
 * Horizontal pass (dy == 0): every row is an independent 1-D path,
 * so rows fan out directly and each needs only 2*(nd+2) scratch.
 */
void
aggregateHorizontal(const AggregateView &v, int dx,
                    const ExecContext &ctx)
{
    const int w = v.w, nd = v.nd;
    const simd::Kernels &k = simd::kernels();
    ctx.parallelFor(0, v.h, [&](int64_t y0, int64_t y1) {
        PathScratch scratch(nd, 2, ctx.buffers());
        for (int y = int(y0); y < int(y1); ++y) {
            uint16_t *prev = scratch.row(0), *cur = scratch.row(1);
            int x = dx > 0 ? 0 : w - 1;
            uint16_t prev_min =
                startRow(v.costPx(x, y), nd, prev, v.totalPx(x, y));
            for (int i = 1; i < w; ++i) {
                x += dx;
                prev_min = k.aggregateRow(v.costPx(x, y), prev,
                                          prev_min, nd, v.p1, v.p2,
                                          cur, v.totalPx(x, y));
                std::swap(prev, cur);
            }
        }
    });
}

/**
 * Vertical pass (dx == 0): columns are independent paths with a pure
 * (x, y-dy) -> (x, y) dependency, so contiguous column strips run in
 * parallel, each sweeping its rows in order with one strip-wide
 * previous-row buffer (and a per-column carried minimum).
 */
void
aggregateVertical(const AggregateView &v, int dy,
                  const ExecContext &ctx)
{
    const int w = v.w, h = v.h, nd = v.nd;
    const simd::Kernels &k = simd::kernels();
    ctx.parallelFor(0, w, [&](int64_t x0, int64_t x1) {
        const int64_t nx = x1 - x0;
        PathScratch prev(nd, nx, ctx.buffers());
        PathScratch cur(nd, nx, ctx.buffers());
        auto mins = ctx.buffers().acquireZeroed<uint16_t>(size_t(nx));
        const int y_begin = dy > 0 ? 0 : h - 1;
        for (int i = 0; i < h; ++i) {
            const int y = y_begin + i * dy;
            for (int x = int(x0); x < int(x1); ++x) {
                const int64_t xi = x - x0;
                uint16_t *c = cur.row(xi);
                if (i == 0) {
                    mins[xi] = startRow(v.costPx(x, y), nd, c,
                                        v.totalPx(x, y));
                } else {
                    mins[xi] = k.aggregateRow(
                        v.costPx(x, y), prev.row(xi), mins[xi], nd,
                        v.p1, v.p2, c, v.totalPx(x, y));
                }
            }
            prev.swap(cur);
        }
    });
}

/**
 * Diagonal pass (|dx| == |dy| == 1): the predecessor of every pixel
 * in row y lies in row y - dy, so each row is a wavefront — rows
 * advance serially while the pixels of a row fan out across the
 * pool. Two sentinel-padded row buffers (plus the per-pixel carried
 * minima) hand L_r between wavefronts.
 */
void
aggregateDiagonal(const AggregateView &v, int dx, int dy,
                  const ExecContext &ctx)
{
    const int w = v.w, h = v.h, nd = v.nd;
    const simd::Kernels &k = simd::kernels();
    PathScratch prev_row(nd, w, ctx.buffers());
    PathScratch cur_row(nd, w, ctx.buffers());
    auto prev_min = ctx.buffers().acquireZeroed<uint16_t>(size_t(w));
    auto cur_min = ctx.buffers().acquireZeroed<uint16_t>(size_t(w));
    const int y_begin = dy > 0 ? 0 : h - 1;
    for (int i = 0; i < h; ++i) {
        const int y = y_begin + i * dy;
        const bool first_row = i == 0;
        ctx.parallelFor(0, w, [&](int64_t x0, int64_t x1) {
            for (int x = int(x0); x < int(x1); ++x) {
                uint16_t *c = cur_row.row(x);
                const int px = x - dx;
                if (first_row || px < 0 || px >= w) {
                    cur_min[x] = startRow(v.costPx(x, y), nd, c,
                                          v.totalPx(x, y));
                } else {
                    cur_min[x] = k.aggregateRow(
                        v.costPx(x, y), prev_row.row(px),
                        prev_min[px], nd, v.p1, v.p2, c,
                        v.totalPx(x, y));
                }
            }
        });
        prev_row.swap(cur_row);
        prev_min.swap(cur_min);
    }
}

/** One semi-global aggregation pass along direction (dx, dy). */
void
aggregateDirection(const AggregateView &v, int dx, int dy,
                   const ExecContext &ctx)
{
    if (dy == 0)
        aggregateHorizontal(v, dx, ctx);
    else if (dx == 0)
        aggregateVertical(v, dy, ctx);
    else
        aggregateDiagonal(v, dx, dy, ctx);
}

float
subpixelOffset(uint32_t cm, uint32_t c0, uint32_t cp)
{
    const double denom =
        double(cm) - 2.0 * double(c0) + double(cp);
    if (denom <= 1e-12)
        return 0.f;
    const double off = 0.5 * (double(cm) - double(cp)) / denom;
    return static_cast<float>(clamp(off, -0.5, 0.5));
}

} // namespace

CostVolume
sgmCostVolume(const image::Image &left, const image::Image &right,
              const SgmParams &params, const ExecContext &ctx)
{
    panic_if(left.width() != right.width() ||
                 left.height() != right.height(),
             "stereo pair size mismatch");
    const int w = left.width(), h = left.height();
    const int nd = params.maxDisparity + 1;

    // Census bit strings live in pooled scratch: they die with this
    // call, and the next frame's census recycles them.
    auto cl = ctx.buffers().acquire<uint64_t>(size_t(int64_t(w) * h));
    auto cr = ctx.buffers().acquire<uint64_t>(size_t(int64_t(w) * h));
    censusInto(left, params.censusRadius, ctx, cl.data());
    censusInto(right, params.censusRadius, ctx, cr.data());

    CostVolume vol;
    vol.acquire(ctx.buffers(), w, h, nd);
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            const uint64_t *l = cl.data() + int64_t(y) * w;
            const uint64_t *r = cr.data() + int64_t(y) * w;
            for (int d = 0; d < nd; ++d) {
                uint16_t *out = vol.row(y, d);
                // x < d clamps the right coordinate to column 0.
                for (int x = 0; x < w; ++x) {
                    out[x] = static_cast<uint16_t>(
                        std::popcount(l[x] ^ r[std::max(x - d, 0)]));
                }
            }
        }
    });
    return vol;
}

DisparityMap
sgmComputeMaterialized(const image::Image &left,
                       const image::Image &right,
                       const SgmParams &params, const ExecContext &ctx)
{
    const int w = left.width(), h = left.height();
    const int nd = params.maxDisparity + 1;

    // 1. Census + Hamming cost volume (disparity-major rows — the
    // layout the XOR+popcount kernel wants), then one transpose to
    // pixel-major so every pixel's nd disparities are the contiguous
    // uint16 lanes the aggregateRow kernel consumes. The d-major
    // volume is released to the pool right after — the steady-state
    // footprint is unchanged, and the next frame's d-major volume
    // recycles it.
    CostVolume vol = sgmCostVolume(left, right, params, ctx);
    auto cost_pm =
        ctx.buffers().acquire<uint16_t>(size_t(vol.size()));
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int d = 0; d < nd; ++d) {
                const uint16_t *src = vol.row(y, d);
                uint16_t *dst =
                    cost_pm.data() + int64_t(y) * w * nd + d;
                for (int x = 0; x < w; ++x)
                    dst[int64_t(x) * nd] = src[x];
            }
        }
    });
    vol.release();

    // 2. Eight-path aggregation through the dispatched aggregateRow
    // kernel. Each pass parallelizes internally (rows / column strips
    // / diagonal row wavefronts); passes run in sequence, each cell
    // of `total` is incremented exactly once per pass, and all
    // arithmetic is exact integer, so the sum is bit-identical to the
    // serial loop for any worker count and SIMD level. Penalties
    // above 0xFFFF can never win the min, so clamping preserves the
    // unclamped semantics (see AggregateRowFn).
    auto total = ctx.buffers().acquireZeroed<uint32_t>(
        size_t(int64_t(w) * h * nd));
    const AggregateView view{
        cost_pm.data(),
        total.data(),
        w,
        h,
        nd,
        static_cast<uint16_t>(std::min(params.p1, 0xFFFF)),
        static_cast<uint16_t>(std::min(params.p2, 0xFFFF))};
    const int dirs[8][2] = {{1, 0},  {-1, 0}, {0, 1},  {0, -1},
                            {1, 1},  {-1, 1}, {1, -1}, {-1, -1}};
    for (const auto &dir : dirs)
        aggregateDirection(view, dir[0], dir[1], ctx);

    // 3. Winner-take-all with sub-pixel refinement; each pixel's
    // disparity slice is a contiguous scan in the pixel-major layout.
    // Every pixel is written, so the pooled map skips the clear.
    DisparityMap disp = image::acquireImageUninit(ctx.buffers(), w, h);
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                const uint32_t *s = view.totalPx(x, y);
                uint32_t best = s[0];
                int bd = 0;
                for (int d = 1; d < nd; ++d) {
                    if (s[d] < best) {
                        best = s[d];
                        bd = d;
                    }
                }
                float dv = static_cast<float>(bd);
                if (params.subpixel && bd > 0 && bd + 1 < nd) {
                    dv += subpixelOffset(s[bd - 1], s[bd],
                                         s[bd + 1]);
                }
                disp.at(x, y) = dv;
            }
        }
    });

    // 4. Left-right consistency check on the aggregated volume:
    // disparity of right pixel xr is argmin_d total(xr + d, y, d).
    if (params.leftRightCheck) {
        DisparityMap right_disp =
            image::acquireImageUninit(ctx.buffers(), w, h);
        ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
            for (int y = int(y0); y < int(y1); ++y) {
                for (int xr = 0; xr < w; ++xr) {
                    uint32_t best =
                        std::numeric_limits<uint32_t>::max();
                    int bd = 0;
                    for (int d = 0; d < nd && xr + d < w; ++d) {
                        const uint32_t val =
                            view.totalPx(xr + d, y)[d];
                        if (val < best) {
                            best = val;
                            bd = d;
                        }
                    }
                    right_disp.at(xr, y) = static_cast<float>(bd);
                }
            }
        });
        ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
            for (int y = int(y0); y < int(y1); ++y) {
                for (int x = 0; x < w; ++x) {
                    const int d =
                        static_cast<int>(std::lround(disp.at(x, y)));
                    const int xr = x - d;
                    if (xr < 0 ||
                        std::abs(right_disp.at(xr, y) - d) >
                            params.lrTolerance) {
                        disp.at(x, y) = kInvalidDisparity;
                    }
                }
            }
        });
    }

    return disp;
}

} // namespace asv::stereo::reference

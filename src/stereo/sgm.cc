#include "stereo/sgm.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace asv::stereo
{

namespace
{

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
 * and prev[nd]. The kernel only ever writes cur[0..nd), so the
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

/**
 * Census transform of one image row into @p out (w entries). The
 * dispatched kernel covers the interior [radius, w - radius); the
 * x-clamped borders run the same scalar code at every SIMD level, so
 * the encoding is bit-identical everywhere. @p rows is caller scratch
 * for the 2*radius+1 y-clamped row base pointers. This is the
 * row-granular building block both the census plane (censusInto) and
 * the streaming SGM's on-the-fly cost generation share — one
 * definition of the encoding, so the two cannot drift.
 */
void
censusLineInto(const image::Image &img, int radius, int y,
               const simd::Kernels &k, const float **rows,
               uint64_t *out)
{
    const int w = img.width(), h = img.height();
    const int x_lo = std::min(radius, w);
    const int x_hi = std::max(x_lo, w - radius);
    for (int dy = -radius; dy <= radius; ++dy) {
        rows[size_t(dy + radius)] =
            img.data() + int64_t(clamp(y + dy, 0, h - 1)) * w;
    }
    auto borderPixel = [&](int x) {
        const float center = img.at(x, y);
        uint64_t bits = 0;
        for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
                if (dx == 0 && dy == 0)
                    continue;
                bits = (bits << 1) |
                       (img.atClamped(x + dx, y + dy) < center
                            ? 1u
                            : 0u);
            }
        }
        out[x] = bits;
    };
    for (int x = 0; x < x_lo; ++x)
        borderPixel(x);
    if (x_hi > x_lo)
        k.censusRow(rows, radius, x_lo, x_hi, out);
    for (int x = x_hi; x < w; ++x)
        borderPixel(x);
}

/** Shared parameter validation for every SGM entry point. */
void
validateSgmParams(const SgmParams &p)
{
    fatal_if(p.maxDisparity < 0, "SGM maxDisparity must be >= 0");
    fatal_if(p.p1 < 0 || p.p2 < 0,
             "SGM penalties must be non-negative");
    fatal_if(p.lrTolerance < 0, "SGM lrTolerance must be >= 0");
    fatal_if(p.censusRadius < 1 || p.censusRadius > 3,
             "census radius must be in [1, 3] (bits must fit uint64)");
    fatal_if(p.paths != 4 && p.paths != 5 && p.paths != 8,
             "SGM paths must be 4, 5, or 8");
}

/**
 * Fused, tiled, streaming SGM. Census and Hamming cost rows are
 * generated on the fly inside the aggregation wavefronts (the
 * costRow kernel feeds aggregateRow directly in pixel-major layout),
 * so the resident state is O(tile-rows x width x nd) pool scratch —
 * never a materialized cost volume.
 *
 * The 8-path mode runs two sweeps. The down sweep (top to bottom)
 * aggregates the three down directions (0,1), (1,1), (-1,1) and
 * stores their per-cell partial sum in the only resident plane, the
 * down volume, narrowed adaptively to uint8/uint16/uint32 (TDown):
 * each direction's L_r is bounded by cost + P2 — prev_min + P2 is
 * always a min candidate — so with the default census radius and
 * penalties three directions sum to <= 192 and one byte per cell
 * suffices (~8x smaller than a materialized pipeline's uint16 cost
 * + uint32 total volumes). The up sweep regenerates the cost rows,
 * adds the two horizontal paths and the three up directions, widens
 * in the down-volume row — completing the exact 8-direction uint32
 * total — and finalizes each row immediately: WTA + sub-pixel + the
 * left-right check, which is per-row because the right image's
 * disparity at xr is argmin_d total(xr + d, y, d) in the same row.
 * Integer sums are order-independent and every directional
 * recurrence replays the classic per-direction start conditions, so
 * the result is bit-identical to the materialized reference
 * (tests/reference/sgm_materialized.hh) at any SIMD level and worker
 * count.
 *
 * paths=4/5 run the single down sweep with the horizontals folded in
 * ((1,0) + optional (-1,0) backward pass at paths=5) and finalize
 * per row — zero resident volume, one pass over the image.
 *
 * Rows are processed in tiles: the cost-row and horizontal stages
 * fan out over a tile's rows (amortizing launch overhead and keeping
 * the tile's cost/total rows cache-resident for the wavefront
 * stage), then the wavefront stage walks the tile's rows serially
 * with pixel-parallel rows (a diagonal predecessor lies in the
 * previous row).
 */
template <typename TDown>
class StreamingSgm
{
  public:
    StreamingSgm(const image::Image &left, const image::Image &right,
                 const SgmParams &params, const ExecContext &ctx)
        : left_(left), right_(right), p_(params), ctx_(ctx),
          k_(simd::kernels()), w_(left.width()), h_(left.height()),
          nd_(params.maxDisparity + 1),
          p1_(static_cast<uint16_t>(std::min(params.p1, 0xFFFF))),
          p2_(static_cast<uint16_t>(std::min(params.p2, 0xFFFF))),
          tile_rows_(tileRowsFor(w_, nd_)),
          cost_tile_(ctx.buffers().acquire<uint16_t>(
              size_t(int64_t(tile_rows_) * w_ * nd_))),
          total_tile_(ctx.buffers().acquire<uint32_t>(
              size_t(int64_t(tile_rows_) * w_ * nd_))),
          chunks_(ctx.pool().numThreads()),
          census_rows_(ctx.buffers().acquire<const float *>(
              size_t(chunks_) *
              size_t(2 * params.censusRadius + 1))),
          census_codes_(ctx.buffers().acquire<uint64_t>(
              size_t(2 * chunks_) * size_t(w_))),
          horiz_scratch_(nd_, 2 * chunks_, ctx.buffers())
    {
        if (p_.paths == 8)
            down_vol_ = ctx.buffers().acquire<TDown>(
                size_t(int64_t(h_) * w_ * nd_));
    }

    DisparityMap
    run()
    {
        DisparityMap disp =
            image::acquireImageUninit(ctx_.buffers(), w_, h_);
        if (p_.paths == 8) {
            sweep(+1, false, false, false, true, nullptr);
            sweep(-1, true, true, true, false, &disp);
        } else {
            sweep(+1, true, p_.paths == 5, false, false, &disp);
        }
        return disp;
    }

  private:
    /**
     * Tile height: enough rows to amortize the parallel stages'
     * launch overhead, few enough that a tile's cost (uint16) +
     * total (uint32) rows stay L2-resident (~2 MB target).
     */
    static int
    tileRowsFor(int w, int nd)
    {
        const int64_t bytes_per_row = int64_t(w) * nd * 6;
        const int64_t t =
            (int64_t(2) << 20) / std::max<int64_t>(bytes_per_row, 1);
        return int(clamp(t, int64_t(2), int64_t(64)));
    }

    /** Wavefront state of one dy-direction (dx in {0, 1, -1}). */
    struct DirState
    {
        int dx;
        PathScratch prev, cur;
        PoolHandle<uint16_t> prev_min, cur_min;

        DirState(int nd, int w, int dx_, BufferPool &pool)
            : dx(dx_), prev(nd, w, pool), cur(nd, w, pool),
              prev_min(pool.acquireZeroed<uint16_t>(size_t(w))),
              cur_min(pool.acquireZeroed<uint16_t>(size_t(w)))
        {
        }

        void
        advance()
        {
            prev.swap(cur);
            prev_min.swap(cur_min);
        }
    };

    uint16_t *
    costRow(int slot)
    {
        return cost_tile_.data() + int64_t(slot) * w_ * nd_;
    }
    uint32_t *
    totalRow(int slot)
    {
        return total_tile_.data() + int64_t(slot) * w_ * nd_;
    }

    /** Stage A: fused census + pixel-major cost rows of one tile. */
    void
    stageCostRows(int i0, int i1, int y_begin, int dy)
    {
        ctx_.parallelForChunks(i0, i1, [&](int64_t a, int64_t b,
                                           int c) {
            const float **rows =
                census_rows_.data() +
                size_t(c) * size_t(2 * p_.censusRadius + 1);
            uint64_t *cl = census_codes_.data() + int64_t(2 * c) * w_;
            uint64_t *cr = cl + w_;
            for (int i = int(a); i < int(b); ++i) {
                const int y = y_begin + i * dy;
                censusLineInto(left_, p_.censusRadius, y, k_, rows,
                               cl);
                censusLineInto(right_, p_.censusRadius, y, k_, rows,
                               cr);
                k_.costRow(cl, cr, w_, nd_, costRow(i - i0));
            }
        });
    }

    /** One horizontal 1-D path over a pixel-major row. */
    void
    horizontalScan(const uint16_t *cost, uint32_t *tot, int dx,
                   uint16_t *prev, uint16_t *cur)
    {
        int x = dx > 0 ? 0 : w_ - 1;
        uint16_t prev_min = startRow(cost + int64_t(x) * nd_, nd_,
                                     prev, tot + int64_t(x) * nd_);
        for (int s = 1; s < w_; ++s) {
            x += dx;
            prev_min = k_.aggregateRow(cost + int64_t(x) * nd_, prev,
                                       prev_min, nd_, p1_, p2_, cur,
                                       tot + int64_t(x) * nd_);
            std::swap(prev, cur);
        }
    }

    /**
     * Stage B: zero a tile's total rows and add the horizontal
     * path(s). Rows are independent 1-D paths, so the tile fans out.
     */
    void
    stageHorizontal(int i0, int i1, bool lr_pass, bool rl_pass)
    {
        ctx_.parallelForChunks(i0, i1, [&](int64_t a, int64_t b,
                                           int c) {
            uint16_t *s0 = horiz_scratch_.row(2 * c);
            uint16_t *s1 = horiz_scratch_.row(2 * c + 1);
            for (int i = int(a); i < int(b); ++i) {
                const uint16_t *cost = costRow(i - i0);
                uint32_t *tot = totalRow(i - i0);
                std::fill(tot, tot + int64_t(w_) * nd_, 0u);
                if (lr_pass)
                    horizontalScan(cost, tot, +1, s0, s1);
                if (rl_pass)
                    horizontalScan(cost, tot, -1, s0, s1);
            }
        });
    }

    /**
     * One full sweep in row direction @p dy. Aggregates the three
     * dy-direction wavefront paths (plus horizontals when requested)
     * over every row; optionally widens in (add_down) or narrows out
     * (store_down) the down volume; finalizes rows (WTA + sub-pixel
     * + LR check) when @p disp is non-null.
     */
    void
    sweep(int dy, bool horiz_lr, bool horiz_rl, bool add_down,
          bool store_down, DisparityMap *disp)
    {
        DirState dirs[3] = {DirState(nd_, w_, 0, ctx_.buffers()),
                            DirState(nd_, w_, 1, ctx_.buffers()),
                            DirState(nd_, w_, -1, ctx_.buffers())};
        const bool lr = disp != nullptr && p_.leftRightCheck;
        PoolHandle<float> right_disp;
        if (lr)
            right_disp = ctx_.buffers().acquire<float>(size_t(w_));
        const bool has_horiz = horiz_lr || horiz_rl;
        const int y_begin = dy > 0 ? 0 : h_ - 1;
        for (int i0 = 0; i0 < h_; i0 += tile_rows_) {
            const int i1 = std::min(i0 + tile_rows_, h_);
            stageCostRows(i0, i1, y_begin, dy);
            if (has_horiz)
                stageHorizontal(i0, i1, horiz_lr, horiz_rl);
            for (int i = i0; i < i1; ++i) {
                const int y = y_begin + i * dy;
                const bool first_row = i == 0;
                const uint16_t *cost = costRow(i - i0);
                uint32_t *tot = totalRow(i - i0);
                TDown *down = add_down || store_down
                                  ? down_vol_.data() +
                                        int64_t(y) * w_ * nd_
                                  : nullptr;
                const TDown *down_row = add_down ? down : nullptr;
                TDown *down_out = store_down ? down : nullptr;
                ctx_.parallelFor(0, w_, [&](int64_t a, int64_t b) {
                    for (int x = int(a); x < int(b); ++x) {
                        const uint16_t *cost_x =
                            cost + int64_t(x) * nd_;
                        uint32_t *tot_x = tot + int64_t(x) * nd_;
                        if (!has_horiz)
                            std::fill(tot_x, tot_x + nd_, 0u);
                        if (down_row != nullptr) {
                            const TDown *dr =
                                down_row + int64_t(x) * nd_;
                            for (int d = 0; d < nd_; ++d)
                                tot_x[d] += uint32_t(dr[d]);
                        }
                        for (DirState &s : dirs) {
                            uint16_t *c = s.cur.row(x);
                            const int px = x - s.dx;
                            if (first_row || px < 0 || px >= w_) {
                                s.cur_min[size_t(x)] =
                                    startRow(cost_x, nd_, c, tot_x);
                            } else {
                                s.cur_min[size_t(x)] = k_.aggregateRow(
                                    cost_x, s.prev.row(px),
                                    s.prev_min[size_t(px)], nd_, p1_,
                                    p2_, c, tot_x);
                            }
                        }
                        if (down_out != nullptr) {
                            TDown *dr = down_out + int64_t(x) * nd_;
                            for (int d = 0; d < nd_; ++d)
                                dr[d] = TDown(tot_x[d]);
                        }
                        if (disp != nullptr) {
                            uint32_t best = tot_x[0];
                            int bd = 0;
                            for (int d = 1; d < nd_; ++d) {
                                if (tot_x[d] < best) {
                                    best = tot_x[d];
                                    bd = d;
                                }
                            }
                            float dv = float(bd);
                            if (p_.subpixel && bd > 0 && bd + 1 < nd_) {
                                dv += subpixelOffset(tot_x[bd - 1],
                                                     tot_x[bd],
                                                     tot_x[bd + 1]);
                            }
                            disp->at(x, y) = dv;
                        }
                    }
                });
                if (lr)
                    leftRightCheckRow(*disp, right_disp.data(), tot, y);
                for (DirState &s : dirs)
                    s.advance();
            }
        }
    }

    /**
     * Per-row left-right consistency check: the right image's
     * disparity at xr is argmin_d total(xr + d, y, d), which lies in
     * the same row of the total volume.
     */
    void
    leftRightCheckRow(DisparityMap &disp, float *right_disp,
                      const uint32_t *tot, int y)
    {
        ctx_.parallelFor(0, w_, [&](int64_t a, int64_t b) {
            for (int xr = int(a); xr < int(b); ++xr) {
                uint32_t best = std::numeric_limits<uint32_t>::max();
                int bd = 0;
                for (int d = 0; d < nd_ && xr + d < w_; ++d) {
                    const uint32_t val = tot[int64_t(xr + d) * nd_ + d];
                    if (val < best) {
                        best = val;
                        bd = d;
                    }
                }
                right_disp[xr] = float(bd);
            }
        });
        ctx_.parallelFor(0, w_, [&](int64_t a, int64_t b) {
            for (int x = int(a); x < int(b); ++x) {
                const int d =
                    static_cast<int>(std::lround(disp.at(x, y)));
                const int xr = x - d;
                if (xr < 0 || std::abs(right_disp[xr] - float(d)) >
                                  float(p_.lrTolerance)) {
                    disp.at(x, y) = kInvalidDisparity;
                }
            }
        });
    }

    const image::Image &left_, &right_;
    const SgmParams &p_;
    const ExecContext &ctx_;
    const simd::Kernels &k_;
    int w_, h_, nd_;
    uint16_t p1_, p2_;
    int tile_rows_;
    PoolHandle<uint16_t> cost_tile_;  //!< tile cost rows, stride nd
    PoolHandle<uint32_t> total_tile_; //!< tile total rows, stride nd
    // Parallel-stage scratch, pre-acquired per chunk so the live
    // same-shape buffer count (and with it the steady-state pool
    // miss count) never depends on how worker chunks overlap.
    int chunks_;                            //!< max parallel fan-out
    PoolHandle<const float *> census_rows_; //!< census row pointers
    PoolHandle<uint64_t> census_codes_;     //!< left+right code rows
    PathScratch horiz_scratch_; //!< 2 ping-pong rows per chunk
    PoolHandle<TDown> down_vol_; //!< 8-path down-direction sums
};

} // namespace

void
censusInto(const image::Image &img, int radius,
           const ExecContext &ctx, uint64_t *census)
{
    fatal_if(radius < 1 || radius > 3,
             "census radius must be in [1, 3] (bits must fit uint64)");
    const int w = img.width(), h = img.height();
    const simd::Kernels &k = simd::kernels();
    // Rows are independent; each writes a disjoint slice of census.
    // Row-pointer scratch is pre-acquired per chunk: acquiring
    // inside the worker lambdas would make the number of live
    // same-shape buffers — and with it the steady-state pool miss
    // count — depend on thread scheduling.
    const int taps = 2 * radius + 1;
    auto rows = ctx.buffers().acquire<const float *>(
        size_t(ctx.pool().numThreads()) * size_t(taps));
    ctx.parallelForChunks(0, h, [&](int64_t y0, int64_t y1, int c) {
        const float **row = rows.data() + size_t(c) * size_t(taps);
        for (int y = int(y0); y < int(y1); ++y) {
            censusLineInto(img, radius, y, k, row,
                           census + int64_t(y) * w);
        }
    });
}

std::vector<uint64_t>
censusTransform(const image::Image &img, int radius,
                const ExecContext &ctx)
{
    std::vector<uint64_t> census(int64_t(img.width()) *
                                 img.height());
    censusInto(img, radius, ctx, census.data());
    return census;
}

std::vector<uint64_t>
censusTransform(const image::Image &img, int radius)
{
    return censusTransform(img, radius, ExecContext::global());
}

int64_t
sgmOps(int width, int height, const SgmParams &params)
{
    const int64_t pixels = int64_t(width) * height;
    const int64_t nd = params.maxDisparity + 1;
    const int64_t census_taps =
        int64_t(2 * params.censusRadius + 1) *
        (2 * params.censusRadius + 1);
    // Census (2 frames, twice in the two-sweep 8-path mode) + cost
    // rows + aggregation passes (~4 ops per (pixel, d)) + WTA.
    const int64_t sweeps = params.paths == 8 ? 2 : 1;
    return sweeps * (2 * pixels * census_taps + pixels * nd) +
           params.paths * pixels * nd * 4 + pixels * nd;
}

/**
 * Pick the narrowest down-volume element type that holds three
 * directions' worth of L_r exactly, and run the streaming engine.
 */
DisparityMap
sgmCompute(const image::Image &left, const image::Image &right,
           const SgmParams &params, const ExecContext &ctx)
{
    panic_if(left.width() != right.width() ||
                 left.height() != right.height(),
             "stereo pair size mismatch");
    validateSgmParams(params);
    // L_r <= cost + P2 per direction (prev_min + P2 is always a min
    // candidate), and cost <= (2r+1)^2 - 1 census bits, so the exact
    // ceiling of a 3-direction cell is known up front.
    const uint32_t cost_max =
        uint32_t(2 * params.censusRadius + 1) *
            uint32_t(2 * params.censusRadius + 1) -
        1;
    const uint32_t per_dir = std::min<uint32_t>(
        0xFFFFu, cost_max + uint32_t(std::min(params.p2, 0xFFFF)));
    const uint32_t down_max = 3 * per_dir;
    if (params.paths != 8 || down_max <= 0xFF)
        return StreamingSgm<uint8_t>(left, right, params, ctx).run();
    if (down_max <= 0xFFFF)
        return StreamingSgm<uint16_t>(left, right, params, ctx).run();
    return StreamingSgm<uint32_t>(left, right, params, ctx).run();
}

DisparityMap
sgmCompute(const image::Image &left, const image::Image &right,
           const SgmParams &params)
{
    return sgmCompute(left, right, params, ExecContext::global());
}

} // namespace asv::stereo

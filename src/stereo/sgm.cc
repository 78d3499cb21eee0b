#include "stereo/sgm.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
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
 * sentinels set at construction survive every row. Storage comes
 * from the context's BufferPool: recycled contents are re-sentineled
 * here, so a recycled scratch is indistinguishable from a fresh one.
 * With @p own_lines every path's row owns whole cache lines (the
 * per-chunk ping-pong rows, written at every pixel step by
 * concurrent chunks); otherwise rows are packed at stride nd + 2.
 */
class PathScratch
{
  public:
    PathScratch(int nd, int64_t paths, BufferPool &pool,
                bool own_lines = false)
        : stride_(own_lines
                      ? int64_t(LineRows<uint16_t>::lineElems(nd + 2))
                      : nd + 2),
          rows_(1, size_t(stride_ * paths), pool)
    {
        std::fill(rows_.row(0), rows_.row(0) + stride_ * paths,
                  uint16_t(0xFFFF));
    }

    /** Interior (length-nd) slice of path @p i. */
    uint16_t *row(int64_t i) { return rows_.row(0) + i * stride_ + 1; }

  private:
    int64_t stride_;
    LineRows<uint16_t> rows_;
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

/** One spin-wait step: a CPU pause hint (no-op where unknown). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
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
 * total — and finalizes each row: WTA + sub-pixel, then the
 * left-right check, which needs only the row's own totals because
 * the right image's disparity at xr is argmin_d total(xr + d, y, d).
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
 * Rows are processed in tiles of a constant number of fork-joins:
 *  1. cost rows + horizontal paths fan out over the tile's rows
 *     (independent 1-D work; the tile's cost/total rows stay
 *     cache-resident for the next stages);
 *  2. the wavefront runs as one job over (row, band) cells. The
 *     width is split into B = min(workers, w) static column bands;
 *     participants claim cells in row-major order from one atomic
 *     counter, and cell (i, b) first waits until bands b-1, b, b+1
 *     have published row i-1 (a diagonal predecessor lies one
 *     column over, in the previous row). Every cell waited on was
 *     claimed earlier by a thread that is running it, so the job
 *     needs no barrier and cannot deadlock — with the caller as the
 *     only participant (a nested call, or every worker busy) it is
 *     exactly the serial row loop. Bands are static and every pixel
 *     runs the same recurrences, so the schedule cannot change a
 *     bit;
 *  3. the left-right check fans out over the tile's rows, whose
 *     totals are still resident.
 * Neighbouring bands are never more than one row apart, so each
 * direction keeps two L_r rows indexed by row parity.
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
          bands_(std::max(1, std::min(chunks_, w_))),
          census_rows_(size_t(chunks_),
                       size_t(2 * params.censusRadius + 1),
                       ctx.buffers()),
          census_codes_(size_t(2 * chunks_), size_t(w_),
                        ctx.buffers()),
          horiz_scratch_(nd_, 2 * chunks_, ctx.buffers(), true),
          band_rows_(size_t(bands_), 1, ctx.buffers())
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
            sweep({.dy = +1, .store_down = true});
            sweep({.dy = -1, .horiz_lr = true, .horiz_rl = true,
                   .add_down = true, .disp = &disp});
        } else {
            sweep({.dy = +1, .horiz_lr = true,
                   .horiz_rl = p_.paths == 5, .disp = &disp});
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

    /**
     * Wavefront state of one dy-direction (dx in {0, 1, -1}): the L_r
     * rows and per-pixel minima of the last two rows, slot i & 1
     * holding row i.
     */
    struct DirState
    {
        int dx;
        PathScratch rows[2];
        PoolHandle<uint16_t> mins[2];

        DirState(int nd, int w, int dx_, BufferPool &pool)
            : dx(dx_), rows{PathScratch(nd, w, pool),
                            PathScratch(nd, w, pool)},
              mins{pool.acquireZeroed<uint16_t>(size_t(w)),
                   pool.acquireZeroed<uint16_t>(size_t(w))}
        {
        }
    };

    /** What one sweep adds, stores and finalizes per pixel. */
    struct SweepSpec
    {
        int dy;                  //!< +1 top to bottom, -1 bottom up
        bool horiz_lr = false;   //!< add the (1, 0) path (stage 1)
        bool horiz_rl = false;   //!< add the (-1, 0) path (stage 1)
        bool add_down = false;   //!< widen in the down volume
        bool store_down = false; //!< narrow out the down volume
        DisparityMap *disp = nullptr; //!< finalize rows into it

        int y(int i, int h) const { return dy > 0 ? i : h - 1 - i; }
        bool hasHoriz() const { return horiz_lr || horiz_rl; }
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
     * Stage 1: fused census + pixel-major cost rows of one tile and,
     * when the sweep has them, the horizontal path(s) into freshly
     * zeroed total rows. Rows are independent, so the tile fans out.
     */
    void
    stageRows(int i0, int i1, const SweepSpec &sw)
    {
        ctx_.parallelForChunks(i0, i1, [&](int64_t a, int64_t b,
                                           int c) {
            const float **rows = census_rows_.row(size_t(c));
            uint64_t *cl = census_codes_.row(size_t(2 * c));
            uint64_t *cr = census_codes_.row(size_t(2 * c + 1));
            uint16_t *s0 = horiz_scratch_.row(2 * c);
            uint16_t *s1 = horiz_scratch_.row(2 * c + 1);
            for (int i = int(a); i < int(b); ++i) {
                const int y = sw.y(i, h_);
                uint16_t *cost = costRow(i - i0);
                censusLineInto(left_, p_.censusRadius, y, k_, rows,
                               cl);
                censusLineInto(right_, p_.censusRadius, y, k_, rows,
                               cr);
                k_.costRow(cl, cr, w_, nd_, cost);
                if (!sw.hasHoriz())
                    continue;
                uint32_t *tot = totalRow(i - i0);
                std::fill(tot, tot + int64_t(w_) * nd_, 0u);
                if (sw.horiz_lr)
                    horizontalScan(cost, tot, +1, s0, s1);
                if (sw.horiz_rl)
                    horizontalScan(cost, tot, -1, s0, s1);
            }
        });
    }

    /**
     * Stage 2, one cell: the three dy-direction paths of sweep row
     * @p i (tile slot @p slot) over columns [x0, x1), then the
     * down-volume update and the row's WTA + sub-pixel.
     */
    void
    wavefrontCell(DirState *dirs, const SweepSpec &sw, int i, int slot,
                  int x0, int x1)
    {
        const int y = sw.y(i, h_);
        const bool first_row = i == 0;
        const int cur = i & 1, prev = cur ^ 1;
        const uint16_t *cost = costRow(slot);
        uint32_t *tot = totalRow(slot);
        const int64_t row_off = int64_t(y) * w_ * nd_;
        const TDown *down_in =
            sw.add_down ? down_vol_.data() + row_off : nullptr;
        TDown *down_out =
            sw.store_down ? down_vol_.data() + row_off : nullptr;
        for (int x = x0; x < x1; ++x) {
            const uint16_t *cost_x = cost + int64_t(x) * nd_;
            uint32_t *tot_x = tot + int64_t(x) * nd_;
            if (!sw.hasHoriz())
                std::fill(tot_x, tot_x + nd_, 0u);
            if (down_in != nullptr) {
                const TDown *dr = down_in + int64_t(x) * nd_;
                for (int d = 0; d < nd_; ++d)
                    tot_x[d] += uint32_t(dr[d]);
            }
            for (int s = 0; s < 3; ++s) {
                DirState &ds = dirs[s];
                uint16_t *c = ds.rows[cur].row(x);
                const int px = x - ds.dx;
                if (first_row || px < 0 || px >= w_) {
                    ds.mins[cur][size_t(x)] =
                        startRow(cost_x, nd_, c, tot_x);
                } else {
                    ds.mins[cur][size_t(x)] = k_.aggregateRow(
                        cost_x, ds.rows[prev].row(px),
                        ds.mins[prev][size_t(px)], nd_, p1_, p2_, c,
                        tot_x);
                }
            }
            if (down_out != nullptr) {
                TDown *dr = down_out + int64_t(x) * nd_;
                for (int d = 0; d < nd_; ++d)
                    dr[d] = TDown(tot_x[d]);
            }
            if (sw.disp != nullptr) {
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
                    dv += subpixelOffset(tot_x[bd - 1], tot_x[bd],
                                         tot_x[bd + 1]);
                }
                sw.disp->at(x, y) = dv;
            }
        }
    }

    /** Band @p b's published-row counter (rows of the sweep done). */
    std::atomic_ref<uint32_t>
    bandRows(int b)
    {
        return std::atomic_ref<uint32_t>(*band_rows_.row(size_t(b)));
    }

    /** Block until band @p b has published @p rows rows. */
    void
    awaitBand(int b, uint32_t rows)
    {
        const std::atomic_ref<uint32_t> published = bandRows(b);
        for (int spins = 0;
             published.load(std::memory_order_acquire) < rows;
             ++spins) {
            if (spins < kSpinsBeforeYield)
                cpuRelax();
            else
                std::this_thread::yield();
        }
    }

    /**
     * Stage 2: the tile's wavefront as one job over its (row, band)
     * cells, claimed in row-major order (see the class comment).
     */
    void
    stageWavefront(DirState *dirs, int i0, int i1,
                   const SweepSpec &sw)
    {
        const int64_t cells = int64_t(i1 - i0) * bands_;
        const int64_t base = w_ / bands_, rem = w_ % bands_;
        // Its own line: every participant hits it once per cell.
        alignas(64) std::atomic<int64_t> next_cell{0};
        // Up to bands_ participants, each running the claim loop; the
        // chunk bounds only size the fan-out.
        ctx_.parallelFor(0, bands_, [&](int64_t, int64_t) {
            for (;;) {
                const int64_t k =
                    next_cell.fetch_add(1, std::memory_order_relaxed);
                if (k >= cells)
                    return;
                const int i = i0 + int(k / bands_);
                const int b = int(k % bands_);
                for (int nb = std::max(b - 1, 0);
                     nb <= std::min(b + 1, bands_ - 1); ++nb)
                    awaitBand(nb, uint32_t(i));
                // Band b's bounds, as ThreadPool::partition has them.
                const int x0 = int(b * base + std::min<int64_t>(b, rem));
                const int x1 = x0 + int(base + (b < rem ? 1 : 0));
                wavefrontCell(dirs, sw, i, i - i0, x0, x1);
                bandRows(b).store(uint32_t(i + 1),
                                  std::memory_order_release);
            }
        });
    }

    /**
     * Stage 3: left-right consistency check of the tile's rows. The
     * right image's disparity at xr is argmin_d total(xr + d, y, d);
     * one contiguous pass over the row visits each xr's candidates
     * in ascending d, and a strict < keeps the smallest d on ties.
     */
    void
    stageLeftRight(int i0, int i1, const SweepSpec &sw,
                   LineRows<uint32_t> &scratch)
    {
        DisparityMap &disp = *sw.disp;
        const uint32_t tol = uint32_t(p_.lrTolerance);
        ctx_.parallelForChunks(i0, i1, [&](int64_t a, int64_t b,
                                           int c) {
            uint32_t *best = scratch.row(size_t(2 * c));
            uint32_t *best_d = scratch.row(size_t(2 * c + 1));
            for (int i = int(a); i < int(b); ++i) {
                const int y = sw.y(i, h_);
                const uint32_t *tot = totalRow(i - i0);
                std::fill(best, best + w_,
                          std::numeric_limits<uint32_t>::max());
                std::fill(best_d, best_d + w_, 0u);
                for (int x = 0; x < w_; ++x) {
                    const uint32_t *t = tot + int64_t(x) * nd_;
                    const int d_end = std::min(nd_ - 1, x) + 1;
                    for (int d = 0; d < d_end; ++d) {
                        const bool lt = t[d] < best[x - d];
                        best[x - d] = lt ? t[d] : best[x - d];
                        best_d[x - d] = lt ? uint32_t(d) : best_d[x - d];
                    }
                }
                for (int x = 0; x < w_; ++x) {
                    const int d =
                        static_cast<int>(std::lround(disp.at(x, y)));
                    const int xr = x - d;
                    if (xr < 0 ||
                        uint32_t(std::abs(int(best_d[xr]) - d)) > tol)
                        disp.at(x, y) = kInvalidDisparity;
                }
            }
        });
    }

    /**
     * One full sweep in row direction sw.dy: per tile, stage 1
     * (cost rows + horizontals), stage 2 (the wavefront) and, when
     * rows are finalized with the check on, stage 3.
     */
    void
    sweep(const SweepSpec &sw)
    {
        DirState dirs[3] = {DirState(nd_, w_, 0, ctx_.buffers()),
                            DirState(nd_, w_, 1, ctx_.buffers()),
                            DirState(nd_, w_, -1, ctx_.buffers())};
        const bool lr = sw.disp != nullptr && p_.leftRightCheck;
        // Per-chunk argmin rows for stage 3, taken before any
        // fan-out so the live buffer count never depends on how
        // chunks overlap.
        std::optional<LineRows<uint32_t>> lr_scratch;
        if (lr)
            lr_scratch.emplace(size_t(2 * chunks_), size_t(w_),
                               ctx_.buffers());
        for (int b = 0; b < bands_; ++b)
            bandRows(b).store(0, std::memory_order_relaxed);
        for (int i0 = 0; i0 < h_; i0 += tile_rows_) {
            const int i1 = std::min(i0 + tile_rows_, h_);
            stageRows(i0, i1, sw);
            stageWavefront(dirs, i0, i1, sw);
            if (lr)
                stageLeftRight(i0, i1, sw, *lr_scratch);
        }
    }

    /** Pause-spins before a waiting cell starts yielding its core. */
    static constexpr int kSpinsBeforeYield = 64;

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
    int chunks_;                        //!< max parallel fan-out
    int bands_;                         //!< wavefront column bands
    LineRows<const float *> census_rows_; //!< census row pointers
    LineRows<uint64_t> census_codes_;   //!< left+right code rows
    PathScratch horiz_scratch_; //!< 2 ping-pong rows per chunk
    LineRows<uint32_t> band_rows_; //!< per-band published-row counter
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

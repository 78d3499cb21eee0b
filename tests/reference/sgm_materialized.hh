/**
 * @file
 * Materialized SGM — the test-only bit-identity oracle for the
 * streaming engine in src/stereo/sgm.cc.
 *
 * This is the classic pipeline: a full census + Hamming cost volume,
 * one transpose to pixel-major, eight whole-volume aggregation passes
 * into a uint32 total volume, then winner-take-all with sub-pixel
 * refinement and the left-right check over that volume. It shares the
 * census encoding (stereo::censusInto) and the dispatched simd
 * kernels with the engine but none of its tiling or fusion, so
 * `sgmCompute(paths = 8) == sgmComputeMaterialized()` bit for bit
 * pins the streaming restructure.
 *
 * Every buffer comes from the ExecContext's BufferPool, exactly as in
 * a production engine, so the pool's footprint counters measure what
 * a materialized SGM costs (BM_SgmMaterialized, the footprint test in
 * sgm_stream_test). Built as the asv_reference library, linked only
 * by tests and bench_kernels — never by libasv.
 */

#ifndef ASV_TESTS_REFERENCE_SGM_MATERIALIZED_HH
#define ASV_TESTS_REFERENCE_SGM_MATERIALIZED_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "image/image.hh"
#include "stereo/disparity.hh"
#include "stereo/sgm.hh"

namespace asv::stereo::reference
{

/**
 * Hamming matching-cost volume in disparity-major row layout:
 * cost[(y * nd + d) * width + x]. For a fixed (y, d) the x run is
 * contiguous, which is what lets the XOR+popcount kernel issue full
 * vector loads; a whole (y, *, *) row block is nd * width uint16s,
 * small enough to stay cache-resident through aggregation and WTA.
 */
struct CostVolume
{
    int width = 0, height = 0, nd = 0;
    std::vector<uint16_t> cost;

    CostVolume() = default;

    /** A copy is a plain (non-pooled) value. */
    CostVolume(const CostVolume &other)
        : width(other.width), height(other.height), nd(other.nd),
          cost(other.cost)
    {
    }

    CostVolume &
    operator=(const CostVolume &other)
    {
        if (this != &other) {
            width = other.width;
            height = other.height;
            nd = other.nd;
            cost = other.cost; // reuses capacity when possible
        }
        return *this;
    }

    /** Moves transfer the storage and its pool backref. */
    CostVolume(CostVolume &&other) noexcept
        : width(other.width), height(other.height), nd(other.nd),
          cost(std::move(other.cost)), pool_(std::move(other.pool_))
    {
        other.width = other.height = other.nd = 0;
    }

    CostVolume &
    operator=(CostVolume &&other) noexcept
    {
        if (this != &other) {
            release();
            width = other.width;
            height = other.height;
            nd = other.nd;
            cost = std::move(other.cost);
            pool_ = std::move(other.pool_);
            other.width = other.height = other.nd = 0;
        }
        return *this;
    }

    ~CostVolume() { release(); }

    /**
     * Size this volume for (w, h, num_d) with cost storage drawn
     * from @p pool (shelved back on destruction or release()).
     * Contents unspecified — sgmCostVolume() writes every cell.
     */
    void
    acquire(BufferPool &pool, int w, int h, int num_d)
    {
        release();
        width = w;
        height = h;
        nd = num_d;
        cost = pool.state()->take<uint16_t>(
            size_t(int64_t(w) * h * num_d), false);
        pool_ = pool.state();
    }

    /**
     * Return the cost storage to its pool (or free it) now; the
     * dimensions stay. sgmComputeMaterialized() releases the d-major
     * volume as soon as it is transposed, halving the stage's
     * footprint.
     */
    void
    release() noexcept
    {
        if (pool_) {
            pool_->give(std::move(cost));
            pool_.reset();
        }
        cost = std::vector<uint16_t>();
    }

    int64_t
    idx(int x, int y, int d) const
    {
        return (int64_t(y) * nd + d) * width + x;
    }

    /** Base of the contiguous x run for (y, d). */
    const uint16_t *row(int y, int d) const
    {
        return cost.data() + (int64_t(y) * nd + d) * width;
    }
    uint16_t *row(int y, int d)
    {
        return cost.data() + (int64_t(y) * nd + d) * width;
    }

    int64_t size() const { return int64_t(width) * height * nd; }

  private:
    std::shared_ptr<detail::PoolState> pool_; //!< null = plain value
};

/**
 * Census + XOR/popcount Hamming cost volume of a rectified pair
 * (stage 1 of sgmComputeMaterialized, exposed for benches and
 * property tests). Row-parallel on @p ctx; bit-identical across SIMD
 * levels and worker counts.
 */
CostVolume sgmCostVolume(const image::Image &left,
                         const image::Image &right,
                         const SgmParams &params,
                         const ExecContext &ctx);

/**
 * The full materialized SGM. Always aggregates all eight paths
 * (params.paths is not read), so compare it against the engine at
 * paths = 8. Each aggregation pass parallelizes internally (rows,
 * column strips, or diagonal row wavefronts) and all arithmetic is
 * exact integer, so the result is bit-identical for any worker count
 * and SIMD level.
 */
DisparityMap sgmComputeMaterialized(const image::Image &left,
                                    const image::Image &right,
                                    const SgmParams &params,
                                    const ExecContext &ctx);

} // namespace asv::stereo::reference

#endif // ASV_TESTS_REFERENCE_SGM_MATERIALIZED_HH

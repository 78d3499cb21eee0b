/**
 * @file
 * google-benchmark microbenchmarks of the functional kernels:
 * Farnebäck flow (also at ISM's 160x120 flow shape) and its
 * polynomial expansion, block matching and SGM — the streaming
 * engine, its 4-path variant, and the materialized test oracle
 * (tests/reference/), each reporting its peak resident arena bytes —
 * plus a per-SIMD-level sweep of the census, cost-volume oracle,
 * SGM aggregation-row, and fused cost-row kernels, and of the f32 DNN
 * route (BM_ConvGemm / BM_Deconv: implicit GEMM — packed operand
 * blocks + gemmTile with the fused bias+ReLU epilogue) — the
 * vector-vs-scalar datapoints tracked in BENCH_kernels.json. The
 * benchmark context records the dispatched ISA (asv_simd) so
 * trajectory comparisons across hosts stay meaningful.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "deconv/transform.hh"
#include "flow/farneback.hh"
#include "reference/sgm_materialized.hh"
#include "stereo/block_matching.hh"
#include "stereo/sgm.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"

namespace
{

using namespace asv;
using tensor::DeconvSpec;
using tensor::Shape;
using tensor::Tensor;

Tensor
randomTensor(Shape shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    for (auto &v : t.flat())
        v = float(rng.uniformReal(-1, 1));
    return t;
}

void
BM_FarnebackFlow(benchmark::State &state)
{
    Rng rng(3);
    const int n = int(state.range(0));
    image::Image a = data::makeTexture(n, n, 8.f, rng);
    image::Image b = data::makeTexture(n, n, 8.f, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(flow::farnebackFlow(a, b));
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_FarnebackFlow)->Arg(64)->Arg(128);

/**
 * Farnebäck at the shape ISM runs it on: the 160x120 half-resolution
 * flow of a 320x240 stream, with IsmParams{}.flowParams, on an
 * explicit 2-worker pool and a private arena.
 */
void
BM_FarnebackFlowIsm(benchmark::State &state)
{
    Rng rng(3);
    image::Image a = data::makeTexture(160, 120, 8.f, rng);
    image::Image b = data::makeTexture(160, 120, 8.f, rng);
    const flow::FarnebackParams params = core::IsmParams{}.flowParams;
    ThreadPool pool(2);
    BufferPool buffers;
    const ExecContext ctx(pool, buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            flow::farnebackFlow(a, b, params, nullptr, ctx));
    state.SetItemsProcessed(state.iterations() * 160 * 120);
}
BENCHMARK(BM_FarnebackFlowIsm)->Name("BM_FarnebackFlow/ism");

/** One polynomial expansion of an n x 3n/4 frame (n = 160: ISM). */
void
BM_PolyExpansion(benchmark::State &state)
{
    Rng rng(3);
    const int w = int(state.range(0)), h = w * 3 / 4;
    image::Image a = data::makeTexture(w, h, 8.f, rng);
    const flow::FarnebackParams params = core::IsmParams{}.flowParams;
    ThreadPool pool(2);
    BufferPool buffers;
    const ExecContext ctx(pool, buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(flow::polyExpansion(
            a, params.polyRadius, params.polySigma, ctx));
    state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_PolyExpansion)->Arg(160);

void
BM_BlockMatchingFull(benchmark::State &state)
{
    Rng rng(4);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::BlockMatchingParams p;
    p.maxDisparity = 32;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stereo::blockMatching(left, right, p));
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BlockMatchingFull)->Arg(64)->Arg(128);

void
BM_BlockMatchingGuided(benchmark::State &state)
{
    Rng rng(5);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::DisparityMap init(n, n);
    init.fill(8.f);
    stereo::BlockMatchingParams p;
    p.maxDisparity = 32;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stereo::refineDisparity(left, right, init, 2, p));
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BlockMatchingGuided)->Arg(64)->Arg(128);

/**
 * Shared driver for the SGM wall-clock/footprint variants. Each
 * variant runs against its own arena so the `resident_bytes`
 * counter isolates that engine's peak working set: between frames
 * every pool handle has been released back to the shelves, so the
 * shelved bytes ARE the engine's resident footprint — the number
 * the streaming path is meant to collapse versus the materialized
 * cost volume.
 */
void
runSgmVariant(benchmark::State &state, const stereo::SgmParams &p,
              bool materialized)
{
    Rng rng(6);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state) {
        if (materialized)
            benchmark::DoNotOptimize(
                stereo::reference::sgmComputeMaterialized(left, right,
                                                          p, ctx));
        else
            benchmark::DoNotOptimize(
                stereo::sgmCompute(left, right, p, ctx));
    }
    state.counters["resident_bytes"] =
        benchmark::Counter(double(buffers.stats().residentBytes));
    state.SetItemsProcessed(state.iterations() * n * n);
}

void
BM_Sgm(benchmark::State &state)
{
    stereo::SgmParams p;
    p.maxDisparity = 32;
    runSgmVariant(state, p, false);
}
// 256² is the reference point for the parallel-speedup trajectory:
// compare ASV_THREADS=1 against ASV_THREADS=4+ (UseRealTime makes
// the wall clock, not the calling thread's CPU time, the metric).
// 512/1024 are the streaming-SGM datapoints: at these sizes the
// materialized volume no longer fits in LLC, so the fused default
// is where the tile-resident restructure pays off.
BENCHMARK(BM_Sgm)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->UseRealTime();

void
BM_SgmMaterialized(benchmark::State &state)
{
    // The materialized test oracle: full census images + cost volume
    // resident across the aggregation passes. Compare real_time and
    // resident_bytes against BM_Sgm at the same size.
    stereo::SgmParams p;
    p.maxDisparity = 32;
    runSgmVariant(state, p, true);
}
BENCHMARK(BM_SgmMaterialized)->Arg(256)->Arg(1024)->UseRealTime();

void
BM_SgmPaths4(benchmark::State &state)
{
    // Single-sweep engine: drops the up directions and the down
    // volume entirely, trading accuracy (see the README table) for
    // one pass over the image and the smallest footprint.
    stereo::SgmParams p;
    p.maxDisparity = 32;
    p.paths = 4;
    runSgmVariant(state, p, false);
}
BENCHMARK(BM_SgmPaths4)->Arg(512)->Arg(1024)->UseRealTime();

void
BM_SteadyStateAlloc(benchmark::State &state)
{
    // The zero-allocation contract as a trajectory datapoint: heap
    // allocations per warm SGM frame (the gate proper — exactly 0 —
    // lives in alloc_baseline_test) and the arena hit rate once the
    // shelves are populated. A hit rate falling away from ~1.0 means
    // some hot path started asking the pool for shapes it never
    // returns, i.e. recycling broke even if timings look fine.
    Rng rng(10);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::SgmParams p;
    p.maxDisparity = 32;

    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (int i = 0; i < 3; ++i) // populate the shelves
        benchmark::DoNotOptimize(
            stereo::sgmCompute(left, right, p, ctx));
    const BufferPool::Stats warm = buffers.stats();

    uint64_t allocs = 0, frames = 0;
    for (auto _ : state) {
        debug::AllocScope scope;
        benchmark::DoNotOptimize(
            stereo::sgmCompute(left, right, p, ctx));
        allocs += scope.counts().allocs;
        ++frames;
    }

    const BufferPool::Stats s = buffers.stats();
    const uint64_t hits = s.hits - warm.hits;
    const uint64_t misses = s.misses - warm.misses;
    state.counters["allocs_per_frame"] = benchmark::Counter(
        frames ? double(allocs) / double(frames) : 0.0);
    state.counters["pool_hit_rate"] = benchmark::Counter(
        hits + misses ? double(hits) / double(hits + misses) : 1.0);
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SteadyStateAlloc)->Arg(128)->UseRealTime();

// --------------------------------------------------- SIMD level sweep
//
// One benchmark instance per supported ISA, so the scalar baseline
// and the vector backends land in the same BENCH_kernels.json run
// (the ≥2x census / cost-volume acceptance datapoints).

/** Force a level for one benchmark, restoring the active one after
 * (so an ASV_SIMD override keeps governing the rest of the run). */
class LevelGuard
{
  public:
    explicit LevelGuard(simd::Level level)
        : previous_(simd::activeLevel())
    {
        simd::setLevel(level);
    }
    ~LevelGuard() { simd::setLevel(previous_); }

  private:
    simd::Level previous_;
};

void
BM_Census(benchmark::State &state, simd::Level level)
{
    LevelGuard guard(level);
    Rng rng(7);
    const int n = int(state.range(0));
    image::Image img = data::makeTexture(n, n, 8.f, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(stereo::censusTransform(img, 2));
    state.SetItemsProcessed(state.iterations() * n * n);
}

void
BM_CostVolume(benchmark::State &state, simd::Level level)
{
    LevelGuard guard(level);
    Rng rng(8);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::SgmParams p;
    p.maxDisparity = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stereo::reference::sgmCostVolume(
            left, right, p, ExecContext::global()));
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}

void
BM_AggregateRow(benchmark::State &state, simd::Level level)
{
    // One horizontal SGM path over a 256-pixel row: per pixel, the
    // dispatched aggregateRow kernel updates all nd disparity lanes
    // and hands its horizontal min to the next pixel — the exact
    // call pattern of the aggregation passes. Buffers follow the
    // kernel contract (0xFFFF sentinels at prev[-1]/prev[nd]).
    LevelGuard guard(level);
    Rng rng(9);
    const int nd = int(state.range(0));
    const int w = 256;
    std::vector<uint16_t> cost(int64_t(w) * nd);
    for (auto &c : cost)
        c = uint16_t(rng.uniformInt(0, 48));
    std::vector<uint16_t> prev(nd + 2, 0xFFFF), cur(nd + 2, 0xFFFF);
    std::vector<uint32_t> total(int64_t(w) * nd, 0);
    const simd::Kernels &k = simd::kernels();
    for (auto _ : state) {
        uint16_t *pp = prev.data() + 1, *pc = cur.data() + 1;
        uint16_t m = 0xFFFF;
        for (int d = 0; d < nd; ++d) {
            pp[d] = cost[d];
            m = std::min(m, pp[d]);
        }
        for (int x = 1; x < w; ++x) {
            m = k.aggregateRow(cost.data() + int64_t(x) * nd, pp, m,
                               nd, 3, 40, pc,
                               total.data() + int64_t(x) * nd);
            std::swap(pp, pc);
        }
        benchmark::DoNotOptimize(m);
    }
    state.SetItemsProcessed(state.iterations() * (w - 1) * nd);
}

/** A DispNet-shaped 3x3 stride-1 pad-1 convolution layer. */
struct ConvGemmShape
{
    const char *name;
    int64_t c, k, h, w;
};

// The ≥3x AVX2-vs-scalar acceptance datapoint tracked in
// BENCH_kernels.json (C=64 -> K=32 on a 32² ifmap), then three
// layers of the perfbench dnn_dispnet chain at 96x312: conv5b (P=30
// columns, one 24-wide register block plus a masked tail), iconv1
// (the wide 32-channel refinement layer, P=7488) and the pr1 head
// (K=1: one filter tile, parallel over column panels only).
constexpr ConvGemmShape kConvGemmShapes[] = {
    {"32", 64, 32, 32, 32},
    {"conv5b", 512, 512, 3, 10},
    {"iconv1", 32, 32, 48, 156},
    {"pr1", 32, 1, 48, 156},
};

void
BM_ConvGemm(benchmark::State &state, simd::Level level,
            ConvGemmShape shape)
{
    // The DNN-path f32 route: a 3x3 convolution as an implicit GEMM
    // (operand blocks packed from the input) over the dispatched
    // gemmTile kernel with the bias+ReLU epilogue fused.
    LevelGuard guard(level);
    Tensor in = randomTensor({shape.c, shape.h, shape.w}, 12);
    Tensor w = randomTensor({shape.k, shape.c, 3, 3}, 13);
    std::vector<float> bias(size_t(shape.k), 0.1f);
    const tensor::ConvSpec spec = tensor::ConvSpec::uniform(2, 1, 1);
    tensor::ConvEpilogue epi;
    epi.bias = bias.data();
    epi.relu = true;
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tensor::convNd(in, w, spec, epi, nullptr, ctx));
    state.SetItemsProcessed(state.iterations() * shape.c * shape.k * 9 *
                            shape.h * shape.w);
}

void
BM_Deconv(benchmark::State &state, simd::Level level)
{
    // The paper's deconvolution proper, per ISA: transformed k4 s2 p1
    // (DispNet/FlowNetS refinement layer, C=64 -> K=32), sub-convs on
    // the f32 GEMM route with the epilogue fused. BM_Fig11Deconv*
    // (bench_fig11_deconv_breakdown) sets it against the
    // zero-insertion reference at the same level.
    LevelGuard guard(level);
    const int64_t n = state.range(0);
    Tensor in = randomTensor({64, n, n}, 14);
    Tensor w = randomTensor({32, 64, 4, 4}, 15);
    std::vector<float> bias(32, 0.1f);
    const DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    tensor::ConvEpilogue epi;
    epi.bias = bias.data();
    epi.relu = true;
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            deconv::transformedDeconv(in, w, spec, epi, nullptr,
                                      ctx));
    // MACs of the transformed deconv = K*C*k² useful taps per ofmap
    // position (4 sub-kernels of 2x2 over a 2n² ofmap grid).
    state.SetItemsProcessed(state.iterations() * 64 * 32 * 16 * n *
                            n);
}

void
BM_FusedCostRow(benchmark::State &state, simd::Level level)
{
    // The streaming-SGM inner producer: one image row of Hamming
    // costs computed on the fly from two census rows, written into
    // tile scratch instead of a resident volume.
    LevelGuard guard(level);
    Rng rng(11);
    const int nd = int(state.range(0));
    const int w = 1024;
    std::vector<uint64_t> cl(w), cr(w);
    for (int x = 0; x < w; ++x) {
        cl[x] = uint64_t(rng.uniformInt64(0, INT64_MAX));
        cr[x] = uint64_t(rng.uniformInt64(0, INT64_MAX));
    }
    std::vector<uint16_t> out(int64_t(w) * nd);
    const simd::Kernels &k = simd::kernels();
    for (auto _ : state) {
        k.costRow(cl.data(), cr.data(), w, nd, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w * nd);
}

} // namespace

int
main(int argc, char **argv)
{
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Sse42, simd::Level::Avx2,
          simd::Level::Neon}) {
        if (!simd::levelSupported(level))
            continue;
        const std::string suffix = simd::levelName(level);
        benchmark::RegisterBenchmark(
            ("BM_Census/" + suffix).c_str(), BM_Census, level)
            ->Arg(256);
        benchmark::RegisterBenchmark(
            ("BM_CostVolume/" + suffix).c_str(), BM_CostVolume,
            level)
            ->Arg(256);
        benchmark::RegisterBenchmark(
            ("BM_AggregateRow/" + suffix).c_str(), BM_AggregateRow,
            level)
            ->Arg(64);
        benchmark::RegisterBenchmark(
            ("BM_FusedCostRow/" + suffix).c_str(), BM_FusedCostRow,
            level)
            ->Arg(64);
        for (const ConvGemmShape &shape : kConvGemmShapes)
            benchmark::RegisterBenchmark(
                ("BM_ConvGemm/" + suffix + "/" + shape.name).c_str(),
                BM_ConvGemm, level, shape)
                ->UseRealTime();
        benchmark::RegisterBenchmark(
            ("BM_Deconv/" + suffix).c_str(), BM_Deconv, level)
            ->Arg(16)
            ->UseRealTime();
    }
    benchmark::AddCustomContext("asv_simd", simd::activeName());
    benchmark::AddCustomContext(
        "asv_simd_best", simd::levelName(simd::bestSupported()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

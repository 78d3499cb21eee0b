/**
 * @file
 * ism_qvga: one 320x240 camera through IsmPipeline in a closed loop.
 *
 * Static PW = 4 sequencer, SGM key frames (maxDisparity = 64) and an
 * injected ThreadPool of opt.threads. processFrame() is called back
 * to back. The traced run re-composes processFrame() from its
 * public stages (recompose.hh) and must stay bit-identical to it.
 */

#include <memory>
#include <string>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "data/scene.hh"
#include "host.hh"
#include "recompose.hh"
#include "stats.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"
#include "workload_common.hh"

namespace perfbench
{

namespace
{

constexpr int kWidth = 320;
constexpr int kHeight = 240;
constexpr int kPw = 4;
//! 4 scenes x 8 frames, looped: each run's timing averages over
//! several scenes, and every scene cut lands on a key frame (8 % PW
//! == 0), so no frame is propagated across a cut.
constexpr int kScenes = 4;
constexpr int kFramesPerScene = 8;
constexpr int kFrames = kScenes * kFramesPerScene;
constexpr int kSetups = 5;
//! frames re-composed by the untraced run's bit-identity gate
constexpr int kCheckFrames = 3 * kPw;
//! gross-error ceiling on delivered maps (seeds give 1-3%)
constexpr double kMaxBad3Pct = 25.0;

asv::core::IsmParams
ismParams()
{
    asv::core::IsmParams p;
    p.propagationWindow = kPw;
    p.maxDisparity = 64;
    return p;
}

std::shared_ptr<const asv::stereo::Matcher>
keyMatcher()
{
    return asv::stereo::makeMatcher("sgm", "maxDisparity=64");
}

std::unique_ptr<asv::core::IsmPipeline>
makePipeline(std::shared_ptr<asv::ThreadPool> pool)
{
    return std::make_unique<asv::core::IsmPipeline>(
        ismParams(), keyMatcher(), asv::core::makeStaticSequencer(kPw),
        std::move(pool));
}

struct FrameLog
{
    std::vector<FrameSample> frames;
    std::vector<double> allMs, keyMs, nonKeyMs;
    std::vector<uint64_t> hashes; //!< every frame since fresh state
    double bad3Sum = 0.0;
    int64_t ops = 0;
    int64_t timed = 0;
};

} // namespace

Report
runIsmQvga(const RunOptions &opt)
{
    Report rep;
    asv::data::SceneConfig cfg;
    cfg.width = kWidth;
    cfg.height = kHeight;
    cfg.numObjects = 6;
    cfg.groundStrips = 4;
    cfg.maxDisparity = 48.f;
    Frames in;
    for (int sc = 0; sc < kScenes; ++sc) {
        Frames part = generateFrames(cfg, kFramesPerScene,
                                     opt.seed * kScenes + uint64_t(sc));
        for (int f = 0; f < kFramesPerScene; ++f) {
            in.left.push_back(std::move(part.left[size_t(f)]));
            in.right.push_back(std::move(part.right[size_t(f)]));
            in.gt.push_back(std::move(part.gt[size_t(f)]));
        }
    }
    RssPeak rss;

    // ---- set-up: pool + engine + pipeline, warmed on one window.
    std::shared_ptr<asv::ThreadPool> pool;
    std::unique_ptr<asv::core::IsmPipeline> pipe;
    FrameLog log;
    std::vector<double> setups;
    for (int r = 0; r < kSetups; ++r) {
        pipe.reset();
        pool.reset();
        log.hashes.clear();
        const double t0 = wallNow();
        pool = std::make_shared<asv::ThreadPool>(opt.threads);
        pipe = makePipeline(pool);
        for (int f = 0; f < kPw; ++f)
            log.hashes.push_back(imageHash(
                pipe->processFrame(in.left[f], in.right[f]).disparity));
        setups.push_back(wallNow() - t0);
        rss.sample();
    }
    rep.add("setup_s", median(setups), "s");

    // ---- timed closed loop (untraced).
    const asv::core::IsmParams params = ismParams();
    const auto &matcher = pipe->matcher();
    const double budget = opt.trace ? 0.5 * opt.seconds : opt.seconds;
    const double start = wallNow();
    for (int64_t i = kPw; wallNow() - start < budget; ++i) {
        const int f = int(i % kFrames);
        const double cpu0 = processCpuNow();
        const double t0 = wallNow();
        asv::core::IsmFrameResult r =
            pipe->processFrame(in.left[size_t(f)], in.right[size_t(f)]);
        const double t1 = wallNow();
        const double ms = 1e3 * (t1 - t0);
        log.frames.push_back({ms, 1e3 * (processCpuNow() - cpu0)});
        log.allMs.push_back(ms);
        (r.keyFrame ? log.keyMs : log.nonKeyMs).push_back(ms);
        log.ops += r.keyFrame
                       ? matcher.ops(kWidth, kHeight)
                       : asv::core::nonKeyFrameOps(kWidth, kHeight,
                                                   params);
        log.bad3Sum +=
            asv::stereo::badPixelRate(r.disparity, in.gt[size_t(f)]);
        if (log.hashes.size() < size_t(kCheckFrames))
            log.hashes.push_back(imageHash(r.disparity));
        ++log.timed;
        rss.sample();
    }
    rep.attempted = log.timed;
    const double bad3 = log.timed ? log.bad3Sum / double(log.timed) : 0.0;

    addLatencyMetrics(rep, log.allMs);
    if (!opt.trace)
        addClosedLoopMetrics(rep, log.frames, rss);
    rep.add("key_frame_ms", median(log.keyMs), "ms");
    rep.add("nonkey_frame_ms", median(log.nonKeyMs), "ms");
    rep.add("bad3_pct", bad3, "%");
    rep.stamp("frames", std::to_string(log.timed) + " (" +
                            std::to_string(log.keyMs.size()) + " key)");

    rep.gate(bad3 <= kMaxBad3Pct,
             "mean bad3 " + std::to_string(bad3) + "% above the " +
                 std::to_string(kMaxBad3Pct) + "% gross-error ceiling");

    // ---- gate: the stage re-composition is bit-identical to
    // processFrame() from a fresh state (pool size is irrelevant to
    // the result by the library's worker-count contract).
    {
        Tracer scratch;
        IsmRecomposer rec(params, keyMatcher(), *pool);
        int mismatches = 0;
        for (size_t k = 0; k < log.hashes.size(); ++k) {
            const size_t f = k % kFrames;
            const uint64_t h = imageHash(rec.step(
                in.left[f], in.right[f], scratch, int64_t(k), -1));
            mismatches += h != log.hashes[k];
        }
        rep.gate(mismatches == 0,
                 std::to_string(mismatches) +
                     " re-composed frames differ from processFrame()");
    }

    if (!opt.trace)
        return rep;

    // ---- traced run: the re-composition, spanned per stage, against
    // a reference IsmPipeline fed the same frames (untimed).
    Tracer tr;
    {
        IsmRecomposer rec(params, keyMatcher(), *pool);
        auto ref = makePipeline(pool);
        int mismatches = 0;
        int64_t frames = 0;
        const double t_start = wallNow();
        for (int64_t i = 0; wallNow() - t_start < 0.5 * opt.seconds; ++i) {
            const size_t f = size_t(i % kFrames);
            const uint64_t got =
                imageHash(rec.step(in.left[f], in.right[f], tr, i, -1));
            const uint64_t want = imageHash(
                ref->processFrame(in.left[f], in.right[f]).disparity);
            mismatches += got != want;
            ++frames;
        }
        rep.attempted += frames;
        rep.gate(mismatches == 0,
                 std::to_string(mismatches) + " traced frames differ "
                                              "from processFrame()");
    }
    addStageMetrics(rep, tr);
    rep.add("core.ops_per_frame",
            log.timed ? double(log.ops) / double(log.timed) : 0.0,
            "count");
    const double untraced = median(log.allMs);
    rep.add("trace.overhead_pct",
            untraced > 0
                ? 100.0 * (median(tr.durationsMs("frame")) / untraced - 1)
                : 0.0,
            "%");

    // Worker-scaling curves on the same key frames / flow pairs.
    for (int w : scalingWorkers(opt.workers)) {
        asv::ThreadPool p(w);
        asv::BufferPool b;
        const asv::ExecContext ctx(p, b);
        std::vector<double> sgm, flow;
        for (int rep_i = 0; rep_i < 2; ++rep_i) {
            for (int f = 0; f < kFrames; f += kPw) {
                double t0 = wallNow();
                (void)matcher.compute(in.left[size_t(f)],
                                      in.right[size_t(f)], ctx);
                sgm.push_back(1e3 * (wallNow() - t0));
                t0 = wallNow();
                (void)asv::core::ismFlow(in.left[size_t(f)],
                                         in.left[size_t(f + 1)], params,
                                         ctx);
                flow.push_back(1e3 * (wallNow() - t0));
            }
        }
        const std::string sfx = ".w" + std::to_string(w);
        rep.add("stereo.sgm.compute_ms" + sfx, median(sgm), "ms");
        rep.add("flow.ism_flow_ms" + sfx, median(flow), "ms");
    }

    rep.add("common.threadpool.fork_join_us", forkJoinUs(*pool), "us");
    addBufferPoolStats(rep, pipe->buffers().stats());
    writeTrace(rep, tr, opt, "ism_qvga");
    return rep;
}

} // namespace perfbench

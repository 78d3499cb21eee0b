/**
 * @file
 * Helpers shared by the workload runners.
 */

#ifndef PERFBENCH_WORKLOAD_COMMON_HH
#define PERFBENCH_WORKLOAD_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "host.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

/** Generated stereo frames with ground truth (flow fields dropped). */
struct Frames
{
    std::vector<asv::image::Image> left, right, gt;
};

inline Frames
generateFrames(const asv::data::SceneConfig &cfg, int count,
               uint64_t seed)
{
    asv::data::StereoSequence seq =
        asv::data::generateSequence(cfg, count, seed);
    Frames out;
    for (asv::data::StereoFrame &f : seq.frames) {
        out.left.push_back(std::move(f.left));
        out.right.push_back(std::move(f.right));
        out.gt.push_back(std::move(f.gtDisparity));
    }
    return out;
}

inline std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Stamp which percentile a tail figure is, with its sample count. */
inline void
stampTail(Report &rep, const std::string &what, const Tail &t)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%.6g of %lld samples, %lld beyond",
                  t.percentile, static_cast<long long>(t.samples),
                  static_cast<long long>(t.beyond));
    rep.stamp(what, buf);
}

/** The gated figures of a timed closed loop: fps, CPU, memory. */
inline void
addClosedLoopMetrics(Report &rep, const std::vector<FrameSample> &frames,
                     const RssPeak &rss)
{
    const LoopFigures f = summarize(frames);
    rep.add("fps", f.fps, "1/s");
    rep.add("cpu_ms_per_frame", f.cpuMsPerFrame, "ms");
    rep.add("mem_peak_mb", rss.growthMb(), "MB");
}

/**
 * Frame latency at the median and the tail, stamped with the tail's
 * rank. Every run reports them from its untraced frames; they are not
 * gated, because hypervisor steal moves them more than any bound.
 */
inline void
addLatencyMetrics(Report &rep, const std::vector<double> &ms)
{
    const Tail t = tail(ms);
    rep.add("frame_p50_ms", median(ms), "ms");
    rep.add("frame_tail_ms", t.value, "ms");
    stampTail(rep, "frame_tail", t);
}

/** 1, 2, 4 workers, never above the run's own cap. */
inline std::vector<int>
scalingWorkers(int cap)
{
    std::vector<int> out;
    for (int w : {1, 2, 4})
        if (w <= cap)
            out.push_back(w);
    return out;
}

/**
 * Median cost of an empty parallelFor over one index per worker on
 * @p pool, in microseconds (20 batches of 200 calls).
 */
inline double
forkJoinUs(asv::ThreadPool &pool)
{
    const int n = pool.numThreads();
    std::vector<double> per_call;
    for (int batch = 0; batch < 20; ++batch) {
        const double t0 = wallNow();
        for (int i = 0; i < 200; ++i)
            pool.parallelFor(0, n, [](int64_t, int64_t) {});
        per_call.push_back(1e6 * (wallNow() - t0) / 200.0);
    }
    return median(per_call);
}

/** Per-stage figures of IsmRecomposer spans (recompose.hh). */
inline void
addStageMetrics(Report &rep, const Tracer &tr)
{
    const double frame_ms = tr.totalMs("frame");
    const double staged_ms =
        tr.totalMs("core.decide") + tr.totalMs("stereo.sgm.compute") +
        tr.totalMs("flow.ism_flow") + tr.totalMs("core.propagate") +
        tr.totalMs("core.carry");
    rep.add("stereo.sgm.compute_ms",
            median(tr.durationsMs("stereo.sgm.compute")), "ms");
    rep.add("stereo.sgm.cores_busy", tr.coresBusy("stereo.sgm.compute"),
            "cores");
    rep.add("flow.ism_flow_ms", median(tr.durationsMs("flow.ism_flow")),
            "ms");
    rep.add("flow.cores_busy", tr.coresBusy("flow.ism_flow"), "cores");
    rep.add("core.propagate_ms", median(tr.durationsMs("core.propagate")),
            "ms");
    rep.add("core.layer_sum_frac",
            frame_ms > 0 ? staged_ms / frame_ms : 0.0, "ratio");
}

/** common.bufferpool.* from one arena's counters. */
inline void
addBufferPoolStats(Report &rep, const asv::BufferPool::Stats &bs)
{
    const uint64_t acquires = bs.hits + bs.misses;
    rep.add("common.bufferpool.hit_rate",
            acquires ? double(bs.hits) / double(acquires) : 0.0, "ratio");
    rep.add("common.bufferpool.resident_mb",
            double(bs.residentBytes) / (1024.0 * 1024.0), "MB");
}

/** Write the run's spans as Chrome trace JSON under opt.outDir. */
inline void
writeTrace(Report &rep, const Tracer &tr, const RunOptions &opt,
           const std::string &workload)
{
    const std::string path = opt.outDir + "/" + workload + "-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    rep.gate(tr.writeChrome(path), "could not write " + path);
    rep.stamp("trace_file", path);
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_COMMON_HH

/**
 * @file
 * The harness's own statistics: medians, the tail rank, due-time
 * latency accounting and CPU-per-frame. Header-only and free of any
 * libasv dependency so tests/stats_test.cc can pin each rule alone.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the two middle values); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest percentile of a sample that still has at least
 * @p min_beyond samples beyond it: the (min_beyond + 1)-th largest
 * value, reported with the percentile it sits at (its rank / n) so
 * a reader knows which tail was measured. A tail below the median
 * is no tail: with n < 2 * min_beyond + 1 the median is returned
 * and @c valid is false.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; //!< 0..100
    int64_t beyond = 0;      //!< samples ranked above @c value
    int64_t samples = 0;
    bool valid = false;
};

inline Tail
tail(std::vector<double> v, int64_t min_beyond = 10)
{
    Tail t;
    t.samples = int64_t(v.size());
    if (t.samples < 2 * min_beyond + 1) {
        t.value = median(std::move(v));
        t.percentile = 50.0;
        t.beyond = t.samples / 2;
        return t;
    }
    std::sort(v.begin(), v.end());
    const int64_t rank = t.samples - 1 - min_beyond; // 0-based
    t.value = v[size_t(rank)];
    t.percentile = 100.0 * double(rank + 1) / double(t.samples);
    t.beyond = min_beyond;
    t.valid = true;
    return t;
}

/**
 * Open-loop latency book. Every frame is timed from the moment it
 * was *due* to be released, not from when the generator actually
 * released it: a stalled consumer that holds the generator up then
 * shows in the latency of every frame that waited behind it, and
 * the generator's own lateness is reported on the side.
 *
 * Frames are keyed by (stream, ticket) — the per-stream acceptance
 * index the server hands back with each result.
 */
class DueLatencyBook
{
  public:
    /** Frame (stream, ticket) was due at @p due_s and actually
     *  released at @p released_s (seconds, one clock). */
    void
    release(int stream, int64_t ticket, double due_s, double released_s)
    {
        frames_[{stream, ticket}] = Entry{due_s, released_s};
    }

    /** Frame (stream, ticket) was delivered at @p done_s. Returns
     *  its due-to-delivery latency (s), or -1 for a ticket that was
     *  never released. */
    double
    deliver(int stream, int64_t ticket, double done_s)
    {
        auto it = frames_.find({stream, ticket});
        if (it == frames_.end())
            return -1.0;
        return done_s - it->second.due;
    }

    /** Release-minus-due lateness (s) of every released frame. */
    std::vector<double>
    lateness() const
    {
        std::vector<double> out;
        for (const auto &[key, e] : frames_)
            out.push_back(std::max(0.0, e.released - e.due));
        return out;
    }

  private:
    struct Entry
    {
        double due = 0.0;
        double released = 0.0;
    };
    std::map<std::pair<int, int64_t>, Entry> frames_;
};

/** One completed frame of a timed loop. */
struct FrameSample
{
    double wallMs = 0.0; //!< its latency
    double cpuMs = 0.0;  //!< process CPU charged to it
};

/** A timed closed loop's throughput and CPU cost, over every frame. */
struct LoopFigures
{
    double fps = 0.0;           //!< frames / summed frame time
    double cpuMsPerFrame = 0.0; //!< process CPU per frame
};

inline LoopFigures
summarize(const std::vector<FrameSample> &frames)
{
    LoopFigures out;
    if (frames.empty())
        return out;
    double wall = 0.0, cpu = 0.0;
    for (const FrameSample &f : frames) {
        wall += f.wallMs;
        cpu += f.cpuMs;
    }
    const double n = double(frames.size());
    out.fps = wall > 0 ? 1e3 * n / wall : 0.0;
    out.cpuMsPerFrame = cpu / n;
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH

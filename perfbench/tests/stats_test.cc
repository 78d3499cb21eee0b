/**
 * @file
 * Tests of the harness's own statistics (src/stats.hh): the tail
 * percentile rule, due-time latency accounting under a stalled
 * consumer, CPU-per-frame accounting across threads, and the
 * whole-run tail of a closed loop.
 *
 * Built by perfbench/CMakeLists.txt; perfbench/run.py runs it before
 * every benchmark run, and `python3 perfbench/run.py --selftest`
 * runs it alone. Exit code 0 means every check passed.
 */

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "stats.hh"

namespace
{

int failures = 0;

#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                         __LINE__, #cond);                              \
            ++failures;                                                 \
        }                                                               \
    } while (0)

bool
near(double a, double b, double eps = 1e-9)
{
    return std::fabs(a - b) <= eps;
}

using namespace perfbench;

void
tailPicksRankWithTenBeyond()
{
    // 1..100 shuffled: the 11th largest is 90, ten values beyond it,
    // and it sits at the 90th percentile.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    std::rotate(v.begin(), v.begin() + 37, v.end());
    const Tail t = tail(v);
    CHECK(t.valid);
    CHECK(near(t.value, 90.0));
    CHECK(t.beyond == 10);
    CHECK(t.samples == 100);
    CHECK(near(t.percentile, 90.0));
    int above = 0;
    for (double x : v)
        above += x > t.value;
    CHECK(above == 10);

    // 0..999: the 11th largest is 989, at the 99th percentile.
    std::vector<double> big;
    for (int i = 0; i < 1000; ++i)
        big.push_back(i);
    const Tail tb = tail(big);
    CHECK(tb.valid);
    CHECK(near(tb.value, 989.0));
    CHECK(near(tb.percentile, 99.0));

    // Exactly 21 samples: the tail is the median, still valid.
    std::vector<double> edge;
    for (int i = 0; i < 21; ++i)
        edge.push_back(i);
    const Tail te = tail(edge);
    CHECK(te.valid);
    CHECK(near(te.value, 10.0));

    // 20 samples: a "tail" would sit below the median — refused.
    edge.pop_back();
    const Tail ts = tail(edge);
    CHECK(!ts.valid);
    CHECK(near(ts.value, median(edge)));
}

void
medianOfEvenAndOdd()
{
    CHECK(near(median({3, 1, 2}), 2.0));
    CHECK(near(median({4, 1, 3, 2}), 2.5));
    CHECK(near(median({}), 0.0));
}

/**
 * One consumer serving frames due every 10 ms, 2 ms each, on a
 * single-slot hand-off: the generator can release frame i only
 * after frame i-1 was taken. Frame 3 stalls the consumer for 50 ms.
 * Timed from *due*, every later frame that queued behind the stall
 * carries it; timed from *release* (what a closed-loop harness
 * sees) the stall would vanish from those frames.
 */
void
dueLatencyCountsAStalledConsumer()
{
    DueLatencyBook book;
    const double period = 0.010, service = 0.002, stall = 0.050;
    double consumer_free = 0.0;
    std::vector<double> lat, from_release;
    for (int i = 0; i < 10; ++i) {
        const double due = i * period;
        const double released = std::max(due, consumer_free);
        book.release(0, i, due, released);
        const double start = std::max(released, consumer_free);
        const double done = start + service + (i == 3 ? stall : 0.0);
        consumer_free = done;
        lat.push_back(book.deliver(0, i, done));
        from_release.push_back(done - released);
    }
    // Frame 3 itself: 52 ms from due.
    CHECK(near(lat[3], 0.052));
    // Frame 4 was due at 40 ms but could only go at 82 ms: 44 ms
    // from due, although it took only 2 ms once released.
    CHECK(near(lat[4], 0.044));
    CHECK(near(from_release[4], 0.002));
    // The backlog drains at 8 ms per period: frames 5-8 still late.
    CHECK(near(lat[5], 0.036));
    CHECK(near(lat[8], 0.012));
    CHECK(near(lat[9], 0.004));
    // The generator's lateness is reported, not hidden.
    const std::vector<double> late = book.lateness();
    CHECK(near(late[4], 0.042));
    CHECK(near(late[0], 0.0));
    // Unknown tickets are refused, not counted.
    CHECK(book.deliver(1, 0, 1.0) < 0.0);
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
processCpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** Burn @p seconds of this thread's own CPU time. */
void
burn(double seconds)
{
    const double until = threadCpuNow() + seconds;
    volatile double sink = 0.0;
    while (threadCpuNow() < until)
        sink = sink + 1.0;
}

void
cpuPerFrameChargesEveryThread()
{
    // Each "frame" has a helper thread burn 20 ms of CPU while the
    // caller burns 20 ms too. Process CPU per frame must include both
    // (>= 40 ms), however the host schedules them.
    std::vector<FrameSample> frames;
    for (int f = 0; f < 3; ++f) {
        const double cpu0 = processCpuNow();
        std::thread helper([] { burn(0.020); });
        burn(0.020);
        helper.join();
        frames.push_back({1.0, 1e3 * (processCpuNow() - cpu0)});
    }
    const LoopFigures r = summarize(frames);
    CHECK(r.cpuMsPerFrame >= 39.0);
    CHECK(r.cpuMsPerFrame < 200.0);
}

void
slowQuarterSetsTheTail()
{
    // ism_qvga's shape: 120 frames, every 4th of a slow kind. The
    // tail is the 11th largest of the whole run, p91.7, so it lands
    // on the slow kind and moves with it, not with the others.
    std::vector<FrameSample> frames;
    std::vector<double> ms;
    for (int i = 0; i < 120; ++i) {
        frames.push_back(i % 4 == 0 ? FrameSample{150.0 + i, 60.0}
                                    : FrameSample{100.0, 100.0});
        ms.push_back(frames.back().wallMs);
    }
    const Tail t = tail(ms);
    CHECK(t.valid);
    CHECK(t.samples == 120);
    CHECK(near(t.percentile, 100.0 * 110.0 / 120.0));
    CHECK(near(t.value, 150.0 + 76.0)); // slow frames 0, 4, .., 116
    CHECK(near(median(ms), 100.0));
    // The slow kind 20% slower: the tail moves by its 20%, the
    // median not at all.
    std::vector<double> slower = ms;
    for (size_t i = 0; i < slower.size(); i += 4)
        slower[i] *= 1.2;
    CHECK(near(tail(slower).value, 1.2 * t.value));
    CHECK(near(median(slower), 100.0));

    // fps and CPU per frame are over every frame too.
    const LoopFigures r = summarize(frames);
    double wall = 0.0;
    for (double x : ms)
        wall += x;
    CHECK(near(r.fps, 1e3 * 120.0 / wall));
    CHECK(near(r.cpuMsPerFrame, (30 * 60.0 + 90 * 100.0) / 120.0));
    CHECK(near(summarize({}).fps, 0.0));
}

} // namespace

int
main()
{
    tailPicksRankWithTenBeyond();
    medianOfEvenAndOdd();
    dueLatencyCountsAStalledConsumer();
    cpuPerFrameChargesEveryThread();
    slowQuarterSetsTheTail();
    if (failures) {
        std::fprintf(stderr, "perfbench_stats_test: %d check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("perfbench_stats_test: all checks passed\n");
    return 0;
}

/**
 * @file
 * asv::serve::Server contract suite.
 *
 * Covers the serving frontend's five load-bearing guarantees:
 *
 *  - per-stream FIFO delivery under concurrent submitters (including
 *    two clients racing into the *same* stream);
 *  - global backpressure: a tiny submission ring saturates, blocking
 *    submit() never loses a frame, trySubmit() reports QueueFull;
 *  - load shedding drops oldest-non-key only, never an accepted key
 *    frame, and every shed frame is reported at its ordered position;
 *  - results are bit-identical to a serial IsmPipeline loop over the
 *    same frames (the serving layer adds scheduling, not arithmetic);
 *  - the serve hot path — submit, ring transfer, routing, shedding,
 *    shed delivery — is allocation-free at steady state
 *    (AllocTracker-guarded, including the FrameQueue in isolation);
 *  - the server's one arena holds what can be in flight, not what
 *    the ring could hold, including across mid-stream resolution
 *    flips that trim it under another stream's feet.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "image/image.hh"
#include "serve/frame_queue.hh"
#include "serve/server.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;
using namespace asv::serve;

struct FramePair
{
    image::Image left;
    image::Image right;
};

std::vector<FramePair>
makeFrames(int count, uint64_t seed, int width = 64, int height = 48)
{
    data::SceneConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.maxDisparity = 14.f;
    const auto seq = data::generateSequence(cfg, count, seed);
    std::vector<FramePair> frames;
    for (const auto &f : seq.frames)
        frames.push_back({f.left, f.right});
    return frames;
}

std::shared_ptr<const stereo::Matcher>
testMatcher()
{
    return stereo::makeMatcher("bm", "maxDisparity=16,blockRadius=2");
}

core::IsmParams
testParams(int propagation_window = 3)
{
    core::IsmParams params;
    params.propagationWindow = propagation_window;
    params.maxDisparity = 16;
    return params;
}

/** Per-stream capture of everything the callback delivered. The
 *  callback runs on the dispatcher thread; tests read only after
 *  drain()/stop(), whose internal accounting publishes the writes. */
struct ResultLog
{
    std::vector<ServeResult> results;
    void
    operator()(ServeResult &&r)
    {
        results.push_back(std::move(r));
    }
};

StreamConfig
streamConfig(ResultLog &log, int propagation_window = 3,
             int max_queued = 64, int max_in_flight = 2)
{
    StreamConfig cfg;
    cfg.params = testParams(propagation_window);
    cfg.matcher = testMatcher();
    cfg.maxQueued = max_queued;
    cfg.maxInFlight = max_in_flight;
    cfg.onResult = [&log](ServeResult &&r) { log(std::move(r)); };
    return cfg;
}

/**
 * Bytes a serial IsmPipeline's arena holds after running @p frames
 * on a pool of @p threads: one frame's stage working set at that
 * shape, fixed by the code path alone (no frames overlap, so no
 * scheduling enters it). Results are dropped, so their maps count.
 */
uint64_t
serialWorkingSet(const std::vector<FramePair> &frames, int window,
                 int threads)
{
    core::IsmPipeline serial(testParams(window), testMatcher(),
                             core::makeStaticSequencer(window),
                             std::make_shared<ThreadPool>(threads));
    for (const FramePair &f : frames)
        (void)serial.processFrame(f.left, f.right);
    return serial.buffers().stats().residentBytes;
}

/** Bytes of one lent left/right payload pair at @p frame's shape. */
uint64_t
pairBytes(const FramePair &frame)
{
    return 2 * sizeof(float) * static_cast<uint64_t>(frame.left.size());
}

/** Everything the arena holds: idle plus handed out. */
uint64_t
arenaBytes(const Server &server)
{
    const BufferPool::Stats st = server.buffers().stats();
    return st.residentBytes + st.outstandingBytes;
}

TEST(Serve, SubmitStatuses)
{
    ServerConfig sc;
    sc.manualDispatch = true;
    sc.workers = 2;
    sc.queueCapacity = 2;
    Server server(sc);

    ResultLog log;
    const StreamId id = server.openStream(streamConfig(log));
    const auto frames = makeFrames(1, 7);

    EXPECT_EQ(server.submit(99, frames[0].left, frames[0].right),
              SubmitStatus::UnknownStream);
    EXPECT_EQ(server.trySubmit(id, frames[0].left, frames[0].right),
              SubmitStatus::Accepted);
    EXPECT_EQ(server.trySubmit(id, frames[0].left, frames[0].right),
              SubmitStatus::Accepted);
    // Ring capacity 2, nobody pumping: the third attempt reports
    // QueueFull instead of blocking.
    EXPECT_EQ(server.trySubmit(id, frames[0].left, frames[0].right),
              SubmitStatus::QueueFull);

    server.drain();
    server.stop();
    EXPECT_EQ(server.submit(id, frames[0].left, frames[0].right),
              SubmitStatus::Closed);

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].submitted, 4);
    EXPECT_EQ(stats.streams[0].rejected, 2); // QueueFull + Closed
    EXPECT_EQ(stats.streams[0].accepted, 2);
    EXPECT_EQ(stats.delivered, stats.accepted);
    EXPECT_EQ(log.results.size(), 2u);
}

TEST(Serve, BitIdenticalToSerialLoop)
{
    constexpr int kFrames = 10;
    constexpr int kWindow = 3;

    // Two streams with different content on one server: shared pool,
    // interleaved dispatch — and still every stream's results must
    // equal its own serial IsmPipeline loop bit for bit.
    const std::vector<std::vector<FramePair>> frames = {
        makeFrames(kFrames, 11), makeFrames(kFrames, 22)};

    std::vector<ResultLog> logs(2);
    ServerConfig sc;
    sc.workers = 2;
    Server server(sc);
    std::vector<StreamId> ids;
    for (int s = 0; s < 2; ++s)
        ids.push_back(server.openStream(
            streamConfig(logs[static_cast<size_t>(s)], kWindow,
                         /*max_queued=*/kFrames)));

    for (int f = 0; f < kFrames; ++f)
        for (size_t s = 0; s < 2; ++s)
            ASSERT_EQ(server.submit(ids[s],
                                    frames[s][static_cast<size_t>(f)].left,
                                    frames[s][static_cast<size_t>(f)].right),
                      SubmitStatus::Accepted);
    server.drain();
    server.stop();

    for (size_t s = 0; s < 2; ++s) {
        core::IsmPipeline serial(testParams(kWindow), testMatcher(),
                                 core::makeStaticSequencer(kWindow));
        ASSERT_EQ(logs[s].results.size(), static_cast<size_t>(kFrames));
        for (int f = 0; f < kFrames; ++f) {
            const core::IsmFrameResult expect = serial.processFrame(
                frames[s][static_cast<size_t>(f)].left,
                frames[s][static_cast<size_t>(f)].right);
            const ServeResult &got =
                logs[s].results[static_cast<size_t>(f)];
            EXPECT_EQ(got.ticket, f);
            EXPECT_EQ(got.status, ResultStatus::Ok);
            EXPECT_EQ(got.keyFrame, expect.keyFrame)
                << "stream " << s << " frame " << f;
            ASSERT_EQ(got.disparity.width(), expect.disparity.width());
            EXPECT_EQ(got.disparity.maxAbsDiff(expect.disparity), 0.0)
                << "stream " << s << " frame " << f;
        }
    }
}

TEST(Serve, PerStreamFifoUnderConcurrentSubmitters)
{
    constexpr int kStreams = 4;
    constexpr int kFrames = 12;

    std::vector<ResultLog> logs(kStreams);
    ServerConfig sc;
    sc.workers = 2;
    sc.queueCapacity = 16;
    Server server(sc);
    std::vector<StreamId> ids;
    for (int s = 0; s < kStreams; ++s)
        ids.push_back(server.openStream(
            streamConfig(logs[static_cast<size_t>(s)], 3,
                         /*max_queued=*/kFrames)));

    const auto frames = makeFrames(4, 33);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kStreams; ++s) {
        submitters.emplace_back([&, s] {
            for (int f = 0; f < kFrames; ++f) {
                const FramePair &p =
                    frames[static_cast<size_t>(f) % frames.size()];
                ASSERT_EQ(server.submit(ids[static_cast<size_t>(s)],
                                        p.left, p.right),
                          SubmitStatus::Accepted);
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    server.drain();
    server.stop();

    for (int s = 0; s < kStreams; ++s) {
        const auto &results = logs[static_cast<size_t>(s)].results;
        ASSERT_EQ(results.size(), static_cast<size_t>(kFrames))
            << "stream " << s;
        for (int f = 0; f < kFrames; ++f) {
            // Dense, strictly increasing tickets: exact FIFO.
            EXPECT_EQ(results[static_cast<size_t>(f)].ticket, f)
                << "stream " << s;
            EXPECT_EQ(results[static_cast<size_t>(f)].status,
                      ResultStatus::Ok);
        }
    }
}

TEST(Serve, SameStreamConcurrentSubmittersStayOrdered)
{
    constexpr int kThreads = 2;
    constexpr int kPerThread = 10;

    ResultLog log;
    ServerConfig sc;
    sc.workers = 2;
    sc.queueCapacity = 8;
    Server server(sc);
    const StreamId id = server.openStream(
        streamConfig(log, 3, /*max_queued=*/kThreads * kPerThread));

    const auto frames = makeFrames(2, 44);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&] {
            for (int f = 0; f < kPerThread; ++f) {
                const FramePair &p =
                    frames[static_cast<size_t>(f) % frames.size()];
                ASSERT_EQ(server.submit(id, p.left, p.right),
                          SubmitStatus::Accepted);
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    server.drain();
    server.stop();

    // Two racing clients: the interleaving is arbitrary but the
    // delivery must be every accepted frame, in ticket order.
    ASSERT_EQ(log.results.size(),
              static_cast<size_t>(kThreads * kPerThread));
    for (size_t i = 0; i < log.results.size(); ++i) {
        EXPECT_EQ(log.results[i].ticket, static_cast<int64_t>(i));
        EXPECT_EQ(log.results[i].status, ResultStatus::Ok);
    }
}

TEST(Serve, BackpressureSaturationNeverLosesFrames)
{
    constexpr int kFrames = 30;

    ResultLog log;
    ServerConfig sc;
    sc.workers = 2;
    sc.queueCapacity = 2; // saturate the global ring constantly
    Server server(sc);
    const StreamId id = server.openStream(
        streamConfig(log, 3, /*max_queued=*/2, /*max_in_flight=*/1));

    const auto frames = makeFrames(3, 55);
    for (int f = 0; f < kFrames; ++f) {
        const FramePair &p =
            frames[static_cast<size_t>(f) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
    }
    server.drain();
    server.stop();

    // Every accepted frame surfaced exactly once, in order — some
    // computed, some shed (the tiny pending queue sheds under
    // flood), none lost.
    ASSERT_EQ(log.results.size(), static_cast<size_t>(kFrames));
    int64_t shed = 0;
    int64_t ok = 0;
    for (size_t i = 0; i < log.results.size(); ++i) {
        EXPECT_EQ(log.results[i].ticket, static_cast<int64_t>(i));
        if (log.results[i].status == ResultStatus::Shed)
            ++shed;
        else if (log.results[i].status == ResultStatus::Ok)
            ++ok;
    }
    EXPECT_EQ(shed + ok, kFrames);

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].accepted, kFrames);
    EXPECT_EQ(stats.streams[0].shed, shed);
    EXPECT_EQ(stats.streams[0].completed, ok);
    EXPECT_EQ(stats.delivered, stats.accepted);
}

TEST(Serve, ShedDropsOldestNonKeyNeverAcceptedKeys)
{
    // Deterministic shedding scenario: manual dispatch, stream
    // paused, propagationWindow 3, maxQueued 3, nine frames. Routing
    // tickets 0..8 (keys 0, 3, 6) into a 3-deep queue must evict
    // exactly the non-keys 1, 2, 4, 5 and shed the incoming 7, 8 —
    // the three accepted keys survive untouched.
    ResultLog log;
    ServerConfig sc;
    sc.manualDispatch = true;
    sc.workers = 2;
    sc.queueCapacity = 16;
    Server server(sc);
    StreamConfig cfg = streamConfig(log, 3, /*max_queued=*/3,
                                    /*max_in_flight=*/3);
    cfg.paused = true;
    const StreamId id = server.openStream(std::move(cfg));

    const auto frames = makeFrames(2, 66);
    for (int f = 0; f < 9; ++f) {
        const FramePair &p =
            frames[static_cast<size_t>(f) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
    }
    server.pump(); // route + shed; nothing dispatches while paused
    EXPECT_TRUE(log.results.empty())
        << "shed notifications must wait for their ordered position";

    server.setPaused(id, false);
    server.drain();
    server.stop();

    ASSERT_EQ(log.results.size(), 9u);
    for (int f = 0; f < 9; ++f) {
        const ServeResult &r = log.results[static_cast<size_t>(f)];
        EXPECT_EQ(r.ticket, f);
        if (f % 3 == 0) {
            EXPECT_EQ(r.status, ResultStatus::Ok)
                << "key frame " << f << " must never be shed";
            EXPECT_TRUE(r.keyFrame);
            EXPECT_FALSE(r.disparity.empty());
        } else {
            EXPECT_EQ(r.status, ResultStatus::Shed) << "frame " << f;
            EXPECT_FALSE(r.keyFrame);
            EXPECT_TRUE(r.disparity.empty());
        }
    }
}

TEST(Serve, HeartbeatAndStats)
{
    std::mutex mutex;
    std::vector<ServerStats> beats;

    ResultLog log;
    ServerConfig sc;
    sc.workers = 2;
    sc.heartbeatPeriod = std::chrono::milliseconds(5);
    Server server(sc);
    const StreamId id = server.openStream(streamConfig(log));
    const int token = server.subscribe([&](const ServerStats &s) {
        std::lock_guard<std::mutex> lock(mutex);
        beats.push_back(s);
    });

    const auto frames = makeFrames(3, 77);
    for (int f = 0; f < 12; ++f) {
        const FramePair &p =
            frames[static_cast<size_t>(f) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
    }
    server.drain();

    // The heartbeat thread samples every 5ms; give it a few periods.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!beats.empty())
                break;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "heartbeat never fired";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.unsubscribe(token);

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].completed, 12);
    EXPECT_EQ(stats.streams[0].queueDepth, 0);
    EXPECT_EQ(stats.streams[0].inFlight, 0);
    EXPECT_EQ(stats.delivered, stats.accepted);
    EXPECT_GT(stats.workers, 0);
    EXPECT_GE(stats.poolHitRate, 0.0);
    EXPECT_LE(stats.poolHitRate, 1.0);
    // Payloads and ISM stage buffers recycle through the server's
    // one arena; after 12 frames it must have seen traffic.
    EXPECT_GT(stats.poolHits + stats.poolMisses, 0u);
    server.stop();

    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_FALSE(beats.empty());
    EXPECT_EQ(beats.back().streams.size(), 1u);
}

TEST(Serve, ResidentMemoryFollowsWorkInFlight)
{
    // A 256-cell ring lapped 2.5 times by two flooding streams: the
    // arena may hold only what can be in flight — per stream its
    // pending frames (maxQueued), its pipeline's frames (maxInFlight)
    // and the previous-frame snapshot pair, one submitted pair per
    // stream not yet routed, and the stage buffers of every frame in
    // a pipeline. Ring capacity appears nowhere in the bound: a ring
    // whose cells kept their payloads would hold 256 pairs.
    constexpr int kStreams = 2;
    constexpr int kFrames = 320; // per stream
    constexpr int kWindow = 3;
    constexpr int kMaxQueued = 4;
    constexpr int kMaxInFlight = 2;
    constexpr int kWorkers = 2;

    ServerConfig sc;
    sc.manualDispatch = true;
    sc.workers = kWorkers;
    sc.queueCapacity = 256;
    Server server(sc);
    int delivered = 0;
    std::vector<StreamId> ids;
    for (int s = 0; s < kStreams; ++s) {
        StreamConfig cfg;
        cfg.params = testParams(kWindow);
        cfg.matcher = testMatcher();
        cfg.maxQueued = kMaxQueued;
        cfg.maxInFlight = kMaxInFlight;
        // Dropping the result hands its map back to the arena.
        cfg.onResult = [&delivered](ServeResult &&) { ++delivered; };
        ids.push_back(server.openStream(std::move(cfg)));
    }
    ASSERT_EQ(server.stats().ringCapacity, 256);

    const auto frames = makeFrames(4, 101);
    uint64_t peak = 0;
    for (int f = 0; f < kFrames; ++f) {
        const FramePair &p =
            frames[static_cast<size_t>(f) % frames.size()];
        for (const StreamId id : ids)
            ASSERT_EQ(server.submit(id, p.left, p.right),
                      SubmitStatus::Accepted);
        // Flood, shedding, then let the pipelines catch up, so both
        // full queues and busy pipelines are sampled.
        if (f % 8 == 7)
            server.drain();
        else
            server.pump();
        peak = std::max(peak, arenaBytes(server));
    }
    server.drain();
    peak = std::max(peak, arenaBytes(server));
    server.stop();
    EXPECT_EQ(delivered, kStreams * kFrames);

    const uint64_t pairs =
        kStreams * (kMaxQueued + kMaxInFlight + 1) + kStreams;
    const uint64_t stage_frames = kStreams * kMaxInFlight;
    const uint64_t bound =
        pairs * pairBytes(frames[0]) +
        stage_frames * serialWorkingSet(frames, kWindow, kWorkers + 1);
    EXPECT_LE(peak, bound)
        << "arena bytes grew with the ring, not with work in flight";
}

TEST(Serve, MixedResolutionsShareOneArena)
{
    // Stream 0 stays at 64x48 while stream 1 flips between 48x32 and
    // 56x40 every block of frames, for 20 flip cycles. Each flip
    // trims the shared arena while stream 0's stages may be running
    // on it; the trim drops idle buffers only, so both streams stay
    // bit-identical to their own serial IsmPipeline, and the idle
    // bytes stay within what the two streams can have in flight.
    constexpr int kCycles = 20;
    constexpr int kBlock = 3; // frames per resolution block
    constexpr int kWindow = 3;
    constexpr int kMaxInFlight = 2;
    constexpr int kWorkers = 2;

    const std::vector<FramePair> steady = makeFrames(2 * kBlock, 111);
    const std::vector<std::vector<FramePair>> flipping = {
        makeFrames(kBlock, 112, 48, 32), makeFrames(kBlock, 113, 56, 40)};

    struct Delivered
    {
        int64_t ticket = -1;
        ResultStatus status = ResultStatus::Failed;
        bool keyFrame = false;
        image::Image disparity; //!< plain copy: the arena's map is freed
    };
    std::vector<std::vector<Delivered>> logs(2);

    ServerConfig sc;
    sc.workers = kWorkers;
    Server server(sc);
    std::vector<StreamId> ids;
    for (int s = 0; s < 2; ++s) {
        StreamConfig cfg;
        cfg.params = testParams(kWindow);
        cfg.matcher = testMatcher();
        cfg.maxQueued = kBlock; // a drained block never sheds
        cfg.maxInFlight = kMaxInFlight;
        auto &log = logs[static_cast<size_t>(s)];
        cfg.onResult = [&log](ServeResult &&r) {
            log.push_back({r.ticket, r.status, r.keyFrame,
                           image::Image(r.disparity)});
        };
        ids.push_back(server.openStream(std::move(cfg)));
    }

    std::vector<std::vector<const FramePair *>> sent(2);
    uint64_t max_idle = 0;
    for (int b = 0; b < 2 * kCycles; ++b) {
        for (int f = 0; f < kBlock; ++f) {
            sent[0].push_back(
                &steady[static_cast<size_t>((b * kBlock + f) %
                                            (2 * kBlock))]);
            sent[1].push_back(
                &flipping[static_cast<size_t>(b % 2)]
                         [static_cast<size_t>(f)]);
            for (size_t s = 0; s < 2; ++s)
                ASSERT_EQ(server.submit(ids[s], sent[s].back()->left,
                                        sent[s].back()->right),
                          SubmitStatus::Accepted);
        }
        server.drain();
        max_idle =
            std::max(max_idle, server.buffers().stats().residentBytes);
    }
    server.stop();

    for (size_t s = 0; s < 2; ++s) {
        core::IsmPipeline serial(testParams(kWindow), testMatcher(),
                                 core::makeStaticSequencer(kWindow));
        ASSERT_EQ(logs[s].size(), sent[s].size()) << "stream " << s;
        for (size_t f = 0; f < sent[s].size(); ++f) {
            const core::IsmFrameResult expect = serial.processFrame(
                sent[s][f]->left, sent[s][f]->right);
            const Delivered &got = logs[s][f];
            EXPECT_EQ(got.ticket, static_cast<int64_t>(f));
            ASSERT_EQ(got.status, ResultStatus::Ok)
                << "stream " << s << " frame " << f;
            EXPECT_EQ(got.keyFrame, expect.keyFrame)
                << "stream " << s << " frame " << f;
            ASSERT_EQ(got.disparity.width(), expect.disparity.width());
            ASSERT_EQ(got.disparity.height(),
                      expect.disparity.height());
            EXPECT_EQ(got.disparity.maxAbsDiff(expect.disparity), 0.0)
                << "stream " << s << " frame " << f;
        }
    }

    // Per stream: its largest shape's payload pairs (pending,
    // in pipeline, previous snapshot, one unrouted) and the stage
    // working sets of its frames in flight.
    const uint64_t pairs = kBlock + kMaxInFlight + 2;
    const uint64_t flip_set = std::max(
        serialWorkingSet(flipping[0], kWindow, kWorkers + 1),
        serialWorkingSet(flipping[1], kWindow, kWorkers + 1));
    const uint64_t bound =
        pairs * (pairBytes(steady[0]) + pairBytes(flipping[1][0])) +
        kMaxInFlight *
            (serialWorkingSet(steady, kWindow, kWorkers + 1) +
             flip_set);
    EXPECT_LE(max_idle, bound)
        << "idle arena bytes grew across resolution flips";
}

TEST(Serve, HotPathAllocationFreeAtSteadyState)
{
    // Single-threaded serving (manualDispatch) with a paused stream:
    // the measured region exercises submission (ring enqueue),
    // routing, ticketing, shedding, and — via the inline manual
    // stop() — ordered shed delivery, with zero heap traffic.
    // (AllocTracker counts every thread, so the pipeline-dispatch
    // side, which allocates by documented exception, stays out of
    // the picture by keeping the stream paused.)
    int delivered = 0;
    int shed = 0;

    ServerConfig sc;
    sc.manualDispatch = true;
    sc.workers = 2;
    sc.queueCapacity = 4;
    Server server(sc);
    StreamConfig cfg;
    cfg.params = testParams(/*propagation_window=*/1000);
    cfg.matcher = testMatcher();
    cfg.maxQueued = 64;
    cfg.maxInFlight = 1;
    cfg.paused = true;
    cfg.onResult = [&delivered, &shed](ServeResult &&r) {
        ++delivered;
        if (r.status == ResultStatus::Shed)
            ++shed;
    };
    const StreamId id = server.openStream(std::move(cfg));

    const auto frames = makeFrames(2, 88);

    // Warm-up: one lap of the ring, every pending slot, and the
    // dispatcher scratch see the frame shape once.
    for (int i = 0; i < 80; ++i) {
        const FramePair &p =
            frames[static_cast<size_t>(i) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
        server.pump();
    }

    {
        ASV_ASSERT_NO_ALLOC;
        for (int i = 0; i < 100; ++i) {
            const FramePair &p =
                frames[static_cast<size_t>(i) % frames.size()];
            server.submit(id, p.left, p.right);
            server.pump();
        }
        server.stop(); // inline: delivers the whole backlog as Shed
    }

    // 180 accepted; 64 still pending at stop — every one reported.
    EXPECT_EQ(delivered, 180);
    EXPECT_EQ(shed, 180);
}

TEST(Serve, FrameQueueAllocationFreeAfterWarmup)
{
    const auto frames = makeFrames(2, 99);
    BufferPool arena;
    FrameQueue queue(4, arena);
    FrameQueue::Item item;

    // Two laps warm every cell (and the swap partner).
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            queue.tryEnqueue(0, frames[static_cast<size_t>(i) % 2].left,
                             frames[static_cast<size_t>(i) % 2].right));
        ASSERT_TRUE(queue.tryDequeue(item));
    }

    {
        ASV_ASSERT_NO_ALLOC;
        for (int i = 0; i < 32; ++i) {
            queue.tryEnqueue(0, frames[static_cast<size_t>(i) % 2].left,
                             frames[static_cast<size_t>(i) % 2].right);
            queue.tryDequeue(item);
        }
    }
    EXPECT_EQ(queue.approxSize(), 0);
}

} // namespace

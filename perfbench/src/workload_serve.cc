/**
 * @file
 * serve_cams: an 8-camera rig served by one serve::Server.
 *
 * Eight 160x120 streams, each from its own seed, SGM key frames
 * (maxDisparity = 32), PW = 4, maxQueued = 8, maxInFlight = 2 and
 * two workers. Open loop: one generator thread releases each
 * stream's frames at 3 fps, staggered evenly (24 fps offered).
 * Streams 0-3 enter through trySubmit(); streams 4-7 are written to
 * a shared-memory ring with ShmFrameWriter and ingested with
 * ingestShmFrames() on the same thread. Latency runs from each
 * frame's due time to its ResultFn delivery.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "data/scene.hh"
#include "host.hh"
#include "recompose.hh"
#include "serve/server.hh"
#include "serve/shm_transport.hh"
#include "stats.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"
#include "workload_common.hh"

namespace perfbench
{

namespace
{

namespace serve = asv::serve;

constexpr int kStreams = 8;
constexpr int kShmFirst = 4; //!< streams >= this arrive over SHM
constexpr int kWidth = 160;
constexpr int kHeight = 120;
constexpr int kPw = 4;
constexpr int kFrames = 32; //!< per stream, looped; multiple of kPw
constexpr int kSetups = 5;
constexpr double kStreamFps = 3.0;
constexpr double kMaxBad3Pct = 25.0;

asv::core::IsmParams
ismParams()
{
    asv::core::IsmParams p;
    p.propagationWindow = kPw;
    p.maxDisparity = 32;
    return p;
}

std::shared_ptr<const asv::stereo::Matcher>
keyMatcher()
{
    return asv::stereo::makeMatcher("sgm", "maxDisparity=32");
}

struct Delivery
{
    int stream = -1;
    int64_t ticket = -1;
    serve::ResultStatus status = serve::ResultStatus::Ok;
    bool key = false;
    double at = 0.0;
    uint64_t hash = 0;  //!< imageHash of the map (Ok only)
    double bad3 = 0.0;  //!< bad-3px rate vs ground truth (Ok only)
};

/** One server with its streams and SHM rings, warmed up. */
struct Rig
{
    explicit Rig(const std::vector<Frames> &frames) : in(frames) {}

    const std::vector<Frames> &in;
    std::unique_ptr<serve::Server> server;
    std::vector<serve::StreamId> ids;
    std::vector<std::unique_ptr<serve::ShmFrameWriter>> writers;
    std::vector<std::unique_ptr<serve::ShmFrameReader>> readers;
    std::vector<uint64_t> nextShm;
    //! what is behind each ticket: generated frame, generator tick
    struct Ticket
    {
        int frame = 0;
        int64_t tick = -1; //!< -1: warm-up
    };
    //! written by the generator, read by deliveries: ticketMutex
    std::vector<std::vector<Ticket>> tickets;
    std::mutex ticketMutex;
    serve::ShmIngestResult shmTotals;
    std::vector<Delivery> deliveries; //!< guarded by deliveryMutex
    std::mutex deliveryMutex;

    /**
     * ResultFn: stamp the delivery time first, then keep only what
     * the checks need (hash and error rate), so the harness holds no
     * maps and adds nothing to the measured memory.
     */
    void
    onResult(serve::ServeResult &&r)
    {
        Delivery d;
        d.at = wallNow();
        d.stream = int(r.stream);
        d.ticket = r.ticket;
        d.status = r.status;
        d.key = r.keyFrame;
        if (r.status == serve::ResultStatus::Ok) {
            int frame = 0;
            {
                std::lock_guard<std::mutex> lock(ticketMutex);
                frame = tickets[size_t(d.stream)][size_t(d.ticket)].frame;
            }
            d.hash = imageHash(r.disparity);
            d.bad3 = asv::stereo::badPixelRate(
                r.disparity, in[size_t(d.stream)].gt[size_t(frame)]);
        }
        std::lock_guard<std::mutex> lock(deliveryMutex);
        deliveries.push_back(d);
    }

    void
    addTicket(int s, int frame, int64_t tick)
    {
        std::lock_guard<std::mutex> lock(ticketMutex);
        tickets[size_t(s)].push_back({frame, tick});
    }

    ~Rig()
    {
        // Stop delivering into onResult() before the members it
        // writes go away.
        if (server)
            server->stop();
    }

    /**
     * Offer frame @p f of stream @p s, tagged with generator tick
     * @p tick; true if accepted. Spans carry the ticket the frame
     * gets if accepted — this thread is the stream's only producer —
     * so they share (stream, ticket) with the frame's delivery.
     */
    bool
    offer(int s, int f, const Frames &frames, Tracer *tr, int64_t tick)
    {
        const size_t fi = size_t(f);
        int64_t ticket = 0;
        {
            std::lock_guard<std::mutex> lock(ticketMutex);
            ticket = int64_t(tickets[size_t(s)].size());
        }
        if (s < kShmFirst) {
            const int sp =
                tr ? tr->begin("serve.submit", ticket, -1, s) : -1;
            const serve::SubmitStatus st = server->trySubmit(
                ids[size_t(s)], frames.left[fi], frames.right[fi]);
            if (tr)
                tr->end(sp);
            if (st != serve::SubmitStatus::Accepted)
                return false;
            addTicket(s, f, tick);
            return true;
        }
        const size_t k = size_t(s - kShmFirst);
        writers[k]->write(ids[size_t(s)], frames.left[fi],
                          frames.right[fi]);
        const int sp =
            tr ? tr->begin("serve.shm_ingest", ticket, -1, s) : -1;
        const serve::ShmIngestResult r = serve::ingestShmFrames(
            *readers[k], *server, ids[size_t(s)], nextShm[k]);
        if (tr)
            tr->end(sp);
        shmTotals.submitted += r.submitted;
        shmTotals.skipped += r.skipped;
        shmTotals.corrupt += r.corrupt;
        for (int i = 0; i < r.submitted; ++i)
            addTicket(s, f, tick);
        return r.submitted > 0;
    }
};

std::unique_ptr<Rig>
buildRig(int workers, const std::vector<Frames> &in)
{
    auto rig = std::make_unique<Rig>(in);
    serve::ServerConfig sc;
    sc.workers = workers;
    rig->server = std::make_unique<serve::Server>(sc);
    const auto matcher = keyMatcher();
    rig->tickets.resize(kStreams);
    for (int s = 0; s < kStreams; ++s) {
        serve::StreamConfig c;
        c.params = ismParams();
        c.matcher = matcher;
        c.onResult = [r = rig.get()](serve::ServeResult &&res) {
            r->onResult(std::move(res));
        };
        c.maxQueued = 8;
        c.maxInFlight = 2;
        rig->ids.push_back(rig->server->openStream(std::move(c)));
    }
    for (int s = kShmFirst; s < kStreams; ++s) {
        const std::string name = "/asv_perfbench_" +
                                 std::to_string(getpid()) + "_" +
                                 std::to_string(s);
        rig->writers.push_back(std::make_unique<serve::ShmFrameWriter>(
            name, kWidth, kHeight, 8));
        rig->readers.push_back(
            std::make_unique<serve::ShmFrameReader>(name));
        rig->nextShm.push_back(0);
    }
    // Warm-up: one propagation window per stream, delivered.
    for (int f = 0; f < kPw; ++f)
        for (int s = 0; s < kStreams; ++s)
            while (!rig->offer(s, f, in[size_t(s)], nullptr, -1))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rig->server->drain();
    return rig;
}

} // namespace

Report
runServeCams(const RunOptions &opt)
{
    Report rep;
    const int workers = std::min(2, opt.workers);
    asv::data::SceneConfig cfg;
    cfg.width = kWidth;
    cfg.height = kHeight;
    cfg.numObjects = 6;
    cfg.groundStrips = 4;
    cfg.maxDisparity = 24.f;
    std::vector<Frames> in;
    for (int s = 0; s < kStreams; ++s)
        in.push_back(generateFrames(cfg, kFrames,
                                    opt.seed * 1000003ull + uint64_t(s)));
    RssPeak rss;

    // ---- set-up: server + streams + SHM rings, warmed up.
    std::unique_ptr<Rig> rig;
    std::vector<double> setups;
    for (int r = 0; r < kSetups; ++r) {
        rig.reset();
        const double t0 = wallNow();
        rig = buildRig(workers, in);
        setups.push_back(wallNow() - t0);
        rss.sample();
    }
    {
        std::lock_guard<std::mutex> lock(rig->deliveryMutex);
        rig->deliveries.clear();
        rig->deliveries.reserve(size_t(opt.seconds * 64) + 64);
    }

    // ---- open loop: 24 fps offered for opt.seconds.
    Tracer tr;
    Tracer *trp = opt.trace ? &tr : nullptr;
    DueLatencyBook book;
    const double period = 1.0 / (kStreamFps * kStreams);
    const int64_t ticks = int64_t(opt.seconds / period);
    int64_t offered = 0, rejected = 0;
    double depth_sum = 0.0, util_sum = 0.0;
    int ring_max = 0, polls = 0;
    const double cpu0 = processCpuNow();
    const double t0 = wallNow() + 0.01;
    for (int64_t i = 0; i < ticks; ++i) {
        const double due = t0 + double(i) * period;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(due))));
        const int s = int(i % kStreams);
        const int f = int((kPw + i / kStreams) % kFrames);
        const double released = wallNow();
        ++offered;
        Tracer *tracing = i >= ticks / 2 ? trp : nullptr;
        if (rig->offer(s, f, in[size_t(s)], tracing, i)) {
            const int64_t ticket =
                int64_t(rig->tickets[size_t(s)].size()) - 1;
            book.release(s, ticket, due, released);
        } else {
            ++rejected;
        }
        const serve::ServerStats st = rig->server->stats();
        int depth = 0;
        for (const auto &ss : st.streams)
            depth += ss.queueDepth;
        depth_sum += depth;
        util_sum += st.utilization;
        ring_max = std::max(ring_max, st.ringDepth);
        ++polls;
        rss.sample();
    }
    rig->server->drain();
    const double cpu1 = processCpuNow();

    // ---- account deliveries.
    std::vector<Delivery> dl;
    {
        std::lock_guard<std::mutex> lock(rig->deliveryMutex);
        dl = std::move(rig->deliveries);
    }
    std::vector<double> all_ms, key_ms, nonkey_ms, half_ms[2];
    int64_t ok = 0, shed = 0, failed = 0, keys = 0, ops = 0;
    double last = t0, bad3_sum = 0.0;
    std::vector<int> shed_on(kStreams, 0);
    std::vector<int64_t> expect(kStreams, kPw); // FIFO check
    int fifo_breaks = 0;
    const auto matcher = keyMatcher();
    const asv::core::IsmParams params = ismParams();
    for (const Delivery &d : dl) {
        const size_t s = size_t(d.stream);
        fifo_breaks += d.ticket != expect[s];
        expect[s] = d.ticket + 1;
        last = std::max(last, d.at);
        if (d.status == serve::ResultStatus::Shed) {
            ++shed;
            ++shed_on[s];
            continue;
        }
        if (d.status == serve::ResultStatus::Failed) {
            ++failed;
            continue;
        }
        ++ok;
        keys += d.key;
        ops += d.key ? matcher->ops(kWidth, kHeight)
                     : asv::core::nonKeyFrameOps(kWidth, kHeight, params);
        const Rig::Ticket &tk = rig->tickets[s][size_t(d.ticket)];
        const double ms = 1e3 * book.deliver(d.stream, d.ticket, d.at);
        all_ms.push_back(ms);
        (d.key ? key_ms : nonkey_ms).push_back(ms);
        half_ms[tk.tick >= ticks / 2].push_back(ms);
        bad3_sum += d.bad3;
        if (trp && tk.tick >= ticks / 2)
            tr.record("serve.deliver", d.at, d.at, d.ticket, d.stream);
    }
    std::vector<double> late_ms;
    for (double l : book.lateness())
        late_ms.push_back(1e3 * l);
    const Tail late_tail = tail(late_ms);
    rep.genLateMs = late_tail.value;
    const int64_t accepted = offered - rejected;
    const double bad3 = ok ? bad3_sum / double(ok) : 0.0;

    rep.attempted = offered;
    rep.failed = rejected + failed + rig->shmTotals.skipped +
                 rig->shmTotals.corrupt;
    if (!opt.trace) {
        rep.add("setup_s", median(setups), "s");
        rep.add("fps", double(ok) / (last - t0), "1/s");
        rep.add("cpu_ms_per_frame", ok ? 1e3 * (cpu1 - cpu0) / double(ok)
                                       : 0.0,
                "ms");
        rep.add("mem_peak_mb", rss.growthMb(), "MB");
    }
    rep.add("key_frame_ms", median(key_ms), "ms");
    rep.add("nonkey_frame_ms", median(nonkey_ms), "ms");
    rep.add("bad3_pct", bad3, "%");
    rep.add("shed_frac", accepted ? double(shed) / double(accepted) : 0.0,
            "ratio");
    // A traced run spans its second half: latency from the first.
    addLatencyMetrics(rep, opt.trace ? half_ms[0] : all_ms);
    stampTail(rep, "gen_late_tail", late_tail);
    rep.stamp("offered", std::to_string(offered) + " frames at " +
                             fmt(1.0 / period) + " fps");
    rep.stamp("server_workers", std::to_string(workers));

    // ---- gates.
    rep.gate(fifo_breaks == 0, std::to_string(fifo_breaks) +
                                   " deliveries out of ticket order");
    for (int s = 0; s < kStreams; ++s)
        rep.gate(expect[size_t(s)] ==
                     int64_t(rig->tickets[size_t(s)].size()),
                 "stream " + std::to_string(s) +
                     ": tickets not dense up to the last accepted");
    rep.gate(rig->shmTotals.corrupt == 0 && rig->shmTotals.skipped == 0,
             "SHM frames failed their checksum or were overwritten");
    rep.gate(bad3 <= kMaxBad3Pct,
             "mean bad3 " + fmt(bad3) + "% above the gross-error ceiling");

    // Ok results of every stream that shed nothing must equal a
    // serial IsmPipeline over the same frames, ticket for ticket.
    // One single-threaded pipeline per stream, streams side by side:
    // outputs are worker-count independent by the library contract.
    std::vector<std::vector<uint64_t>> want(kStreams);
    {
        asv::ThreadPool streams(opt.workers);
        streams.parallelFor(0, kStreams, [&](int64_t lo, int64_t hi) {
            for (int64_t s = lo; s < hi; ++s) {
                if (shed_on[size_t(s)])
                    continue;
                asv::core::IsmPipeline ref(
                    params, matcher, asv::core::makeStaticSequencer(kPw),
                    std::make_shared<asv::ThreadPool>(1));
                for (const Rig::Ticket &tk : rig->tickets[size_t(s)])
                    want[size_t(s)].push_back(imageHash(
                        ref.processFrame(
                               in[size_t(s)].left[size_t(tk.frame)],
                               in[size_t(s)].right[size_t(tk.frame)])
                            .disparity));
            }
        });
        int mismatches = 0;
        for (const Delivery &d : dl) {
            const size_t s = size_t(d.stream);
            if (shed_on[s] || d.status != serve::ResultStatus::Ok)
                continue;
            mismatches += d.hash != want[s][size_t(d.ticket)];
        }
        rep.gate(mismatches == 0,
                 std::to_string(mismatches) +
                     " served maps differ from a serial IsmPipeline");
    }

    if (!opt.trace)
        return rep;

    // ---- per-layer figures. The stage split comes from stream 0's
    // frames re-composed on one thread, the shape a server worker
    // runs them in (nested parallelFor serial).
    {
        Tracer stages;
        asv::ThreadPool one(1);
        IsmRecomposer rec(params, matcher, one);
        int mismatches = 0;
        const auto &tks = rig->tickets[0];
        for (size_t k = 0; k < tks.size(); ++k) {
            const uint64_t h = imageHash(rec.step(
                in[0].left[size_t(tks[k].frame)],
                in[0].right[size_t(tks[k].frame)], stages, int64_t(k),
                0));
            mismatches += !want[0].empty() && h != want[0][k];
        }
        rep.gate(mismatches == 0,
                 std::to_string(mismatches) +
                     " re-composed stream-0 frames differ");
        addStageMetrics(rep, stages);
    }
    const serve::ServerStats st = rig->server->stats();
    rep.add("serve.submit_us",
            1e3 * median(tr.durationsMs("serve.submit")), "us");
    rep.add("serve.shm_ingest_us",
            1e3 * median(tr.durationsMs("serve.shm_ingest")), "us");
    rep.add("serve.queue_depth_mean", polls ? depth_sum / polls : 0.0,
            "frames");
    rep.add("serve.ring_depth_max", ring_max, "frames");
    rep.add("serve.utilization", polls ? util_sum / polls : 0.0, "ratio");
    rep.add("serve.key_frames", double(keys), "count");
    rep.add("serve.shed", double(shed), "count");
    rep.add("serve.rejected", double(rejected), "count");
    rep.add("serve.failed", double(failed), "count");
    rep.add("serve.shm_skipped", rig->shmTotals.skipped, "count");
    rep.add("serve.shm_corrupt", rig->shmTotals.corrupt, "count");
    rep.add("serve.bufferpool.hit_rate", st.poolHitRate, "ratio");
    rep.add("serve.bufferpool.resident_mb",
            double(st.poolResidentBytes) / (1024.0 * 1024.0), "MB");
    rep.add("serve.gen_late_ms", late_tail.value, "ms");
    rep.add("common.bufferpool.hit_rate", st.poolHitRate, "ratio");
    rep.add("common.bufferpool.resident_mb",
            double(st.poolResidentBytes) / (1024.0 * 1024.0), "MB");
    rep.add("common.threadpool.fork_join_us",
            forkJoinUs(*rig->server->pool()), "us");
    rep.add("core.ops_per_frame", ok ? double(ops) / double(ok) : 0.0,
            "count");
    // Second half of the loop was traced: its p50 latency against
    // the untraced first half's.
    const double untraced = median(half_ms[0]);
    rep.add("trace.overhead_pct",
            untraced > 0 ? 100.0 * (median(half_ms[1]) / untraced - 1)
                         : 0.0,
            "%");
    writeTrace(rep, tr, opt, "serve_cams");
    return rep;
}

} // namespace perfbench

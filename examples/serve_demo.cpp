/**
 * @file
 * Multi-stream serving demo: dozens of synthetic stereo cameras
 * through one asv::serve::Server, with a live heartbeat table.
 *
 * Every stream gets its own submitter thread flooding frames at the
 * server (blocking submit — global backpressure paces the clients),
 * while the heartbeat subscription prints per-stream fps, queue
 * depth, shed and completed counts as the run progresses. At the
 * end the demo *verifies* the serving contract and exits non-zero
 * on any violation:
 *
 *  - per-stream FIFO: tickets delivered dense and strictly in order;
 *  - zero loss: every accepted frame came back exactly once, as
 *    Ok, Shed or Failed — shedding is reported, never silent;
 *  - the delivered counts agree with the server's own stats.
 *
 * Shed key frames are reported separately: a *queued* key is never
 * evicted, but when the pending queue is wall-to-wall keys (only
 * under heavy oversubscription, as here) an incoming key is shed on
 * arrival rather than evicting an older key.
 *
 * Usage: serve_demo [--streams N] [--frames M] [--workers W]
 *        (defaults: 16 streams, 48 frames per stream)
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/scene.hh"
#include "serve/server.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;
using namespace asv::serve;

struct StreamLog
{
    std::vector<ServeResult> results; //!< dispatcher-thread writes
};

int
parseFlag(int argc, char **argv, const char *flag, int fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return std::atoi(argv[i + 1]);
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    const int num_streams = parseFlag(argc, argv, "--streams", 16);
    const int num_frames = parseFlag(argc, argv, "--frames", 48);
    const int workers = parseFlag(argc, argv, "--workers", 0);
    if (num_streams < 1 || num_frames < 1) {
        std::fprintf(stderr, "need --streams >= 1, --frames >= 1\n");
        return 2;
    }

    // One short synthetic stereo video per stream (unique content:
    // per-stream seed).
    data::SceneConfig scene;
    scene.width = 96;
    scene.height = 64;
    scene.maxDisparity = 14.f;
    std::vector<data::StereoSequence> videos;
    videos.reserve(static_cast<size_t>(num_streams));
    for (int s = 0; s < num_streams; ++s)
        videos.push_back(data::generateSequence(
            scene, std::min(num_frames, 8),
            /*seed=*/1000 + static_cast<uint64_t>(s)));

    ServerConfig sc;
    sc.workers = workers;
    sc.queueCapacity = 64;
    sc.heartbeatPeriod = std::chrono::milliseconds(200);
    Server server(sc);

    const auto matcher =
        stereo::makeMatcher("bm", "maxDisparity=16,blockRadius=2");
    std::vector<StreamLog> logs(static_cast<size_t>(num_streams));
    std::vector<StreamId> ids;
    for (int s = 0; s < num_streams; ++s) {
        StreamConfig cfg;
        cfg.params.propagationWindow = 4;
        cfg.params.maxDisparity = 16;
        cfg.matcher = matcher;
        // A few "safety-critical" cameras outrank the rest.
        cfg.priority = s % 4 == 0 ? 1 : 0;
        cfg.maxQueued = 6;
        cfg.maxInFlight = 2;
        StreamLog &log = logs[static_cast<size_t>(s)];
        cfg.onResult = [&log](ServeResult &&r) {
            log.results.push_back(std::move(r));
        };
        ids.push_back(server.openStream(std::move(cfg)));
    }

    // Heartbeat table: one aggregate line plus the four busiest
    // streams, every period.
    const int token = server.subscribe([](const ServerStats &st) {
        double fps = 0.0;
        int64_t shed = 0;
        int depth = 0;
        for (const auto &s : st.streams) {
            fps += s.fps;
            shed += s.shed;
            depth += s.queueDepth;
        }
        std::printf("[hb] streams %zu  fps %7.1f  ring %d/%d  "
                    "queued %d  shed %lld  util %4.0f%%  pool-hit "
                    "%4.1f%%  pool-resident %.1f MB\n",
                    st.streams.size(), fps, st.ringDepth,
                    st.ringCapacity, depth,
                    static_cast<long long>(shed),
                    100.0 * st.utilization, 100.0 * st.poolHitRate,
                    static_cast<double>(st.poolResidentBytes) /
                        (1024.0 * 1024.0));
    });

    std::printf("serving %d streams x %d frames (%d workers)\n",
                num_streams, num_frames, server.stats().workers);

    std::vector<std::thread> submitters;
    for (int s = 0; s < num_streams; ++s) {
        submitters.emplace_back([&, s] {
            const auto &video =
                videos[static_cast<size_t>(s)].frames;
            for (int f = 0; f < num_frames; ++f) {
                const auto &frame =
                    video[static_cast<size_t>(f) % video.size()];
                if (server.submit(ids[static_cast<size_t>(s)],
                                  frame.left, frame.right) !=
                    SubmitStatus::Accepted)
                    return; // server stopping — counted as rejected
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    server.drain();
    const ServerStats final_stats = server.stats();
    server.unsubscribe(token);
    server.stop();

    // ---- verify the serving contract ----
    int violations = 0;
    int64_t total_ok = 0;
    int64_t total_shed = 0;
    int64_t shed_keys = 0;
    for (int s = 0; s < num_streams; ++s) {
        const auto &results = logs[static_cast<size_t>(s)].results;
        if (results.size() != static_cast<size_t>(num_frames)) {
            std::fprintf(stderr,
                         "VIOLATION stream %d: %zu results for %d "
                         "accepted frames\n",
                         s, results.size(), num_frames);
            ++violations;
            continue;
        }
        for (size_t i = 0; i < results.size(); ++i) {
            const ServeResult &r = results[i];
            if (r.ticket != static_cast<int64_t>(i)) {
                std::fprintf(stderr,
                             "VIOLATION stream %d: FIFO broken at "
                             "position %zu (ticket %lld)\n",
                             s, i,
                             static_cast<long long>(r.ticket));
                ++violations;
                break;
            }
            if (r.status == ResultStatus::Shed) {
                ++total_shed;
                if (r.keyFrame)
                    ++shed_keys; // all-keys queue: shed on arrival
            } else if (r.status == ResultStatus::Ok) {
                ++total_ok;
            } else {
                std::fprintf(stderr, "stream %d frame %lld: %s\n", s,
                             static_cast<long long>(r.ticket),
                             r.error.c_str());
                ++violations;
            }
        }
    }

    if (final_stats.delivered != final_stats.accepted) {
        std::fprintf(stderr,
                     "VIOLATION: delivered %lld != accepted %lld\n",
                     static_cast<long long>(final_stats.delivered),
                     static_cast<long long>(final_stats.accepted));
        ++violations;
    }

    std::printf("\ndelivered %lld / accepted %lld  (ok %lld, shed "
                "%lld, of which keys on arrival %lld)\n",
                static_cast<long long>(final_stats.delivered),
                static_cast<long long>(final_stats.accepted),
                static_cast<long long>(total_ok),
                static_cast<long long>(total_shed),
                static_cast<long long>(shed_keys));
    std::printf("per-stream FIFO and zero-loss: %s\n",
                violations == 0 ? "verified" : "VIOLATED");
    return violations == 0 ? 0 : 1;
}

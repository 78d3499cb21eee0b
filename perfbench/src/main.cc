/**
 * @file
 * asv_perfbench: one workload, one run.
 *
 *   asv_perfbench --workload ism_qvga|serve_cams|dnn_dispnet
 *                 --seed N [--holdout] --seconds S --trace 0|1
 *                 [--out-dir DIR]
 *
 * Timed sections run on pools of kTimedThreads; correctness checks
 * and the traced scaling curve use up to kCheckWorkers (host.hh).
 * Both are capped at the CPUs this process may use.
 *
 * Prints the run's stamps and every metric by name and unit, then,
 * as its last line, one JSON object: correct / attempted / failed /
 * usable / metrics / stamps. perfbench/run.py builds this binary and
 * turns that line into the benchmark's result line.
 *
 * Exit codes: 0 ok, 1 a correctness gate failed, 2 bad usage,
 * 3 the run is unusable (host too loaded or generator too late).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/simd.hh"
#include "host.hh"
#include "workload_common.hh"

namespace
{

using namespace perfbench;

//! A run that starts or ends above this 1-minute load per CPU is
//! unusable: it measures contention, not the program. One busy
//! benchmark process is load <= 1 per CPU.
constexpr double kMaxLoadPerCpu = 2.0;
//! serve_cams generator lateness (tail) above one 24 fps period.
constexpr double kMaxGenLateMs = 1000.0 / 24.0;
//! Seeds passed with --holdout are mapped into a disjoint input
//! space, so a claim can be re-checked on inputs never used while
//! the change was written.
constexpr uint64_t kHoldoutSalt = 0x9e3779b97f4a7c15ull;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "asv_perfbench: %s\nusage: asv_perfbench --workload "
                 "ism_qvga|serve_cams|dnn_dispnet --seed N [--holdout] "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n",
                 msg);
    return 2;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
loadString(const std::array<double, 3> &la)
{
    return fmt(la[0]) + " " + fmt(la[1]) + " " + fmt(la[2]);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir = ".";
    long long seed = -1;
    double seconds = -1;
    int trace = -1;
    bool holdout = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_val = i + 1 < argc;
        if (a == "--holdout") {
            holdout = true;
        } else if (!has_val) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            workload = argv[++i];
        } else if (a == "--seed") {
            seed = std::atoll(argv[++i]);
        } else if (a == "--seconds") {
            seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            trace = std::atoi(argv[++i]);
        } else if (a == "--out-dir") {
            out_dir = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1))
        return usage("--seed, --seconds and --trace are required");

    const int ncpu = onlineCpus();
    RunOptions opt;
    opt.seed = uint64_t(seed);
    if (holdout)
        opt.seed = (opt.seed + 1) * kHoldoutSalt;
    opt.seconds = seconds;
    opt.trace = trace == 1;
    opt.threads = std::min(kTimedThreads, ncpu);
    opt.workers = std::min(kCheckWorkers, ncpu);
    opt.outDir = out_dir;
    // Kernels that take no ExecContext (tensor::deconvNd) run on the
    // process-global pool: size it like every other pool here.
    setenv("ASV_THREADS", std::to_string(opt.threads).c_str(), 1);

    if (workload != "ism_qvga" && workload != "serve_cams" &&
        workload != "dnn_dispnet")
        return usage(("unknown workload " + workload).c_str());
    const auto load_before = loadAverage();
    const auto jiffies_before = hostCpuJiffies();
    Report rep;
    try {
        if (workload == "ism_qvga")
            rep = runIsmQvga(opt);
        else if (workload == "serve_cams")
            rep = runServeCams(opt);
        else
            rep = runDnnDispnet(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "asv_perfbench: %s failed: %s\n",
                     workload.c_str(), e.what());
        return 1;
    }
    const auto jiffies_after = hostCpuJiffies();
    const uint64_t all = jiffies_after[0] - jiffies_before[0];
    const auto load_after = loadAverage();
    rep.add("fail_frac",
            rep.attempted ? double(rep.failed) / double(rep.attempted)
                          : 1.0,
            "ratio");

    rep.stamp("workload", workload);
    rep.stamp("seed", std::to_string(seed) +
                          (holdout ? " (held-out space)" : ""));
    rep.stamp("mode", opt.trace ? "traced" : "end-to-end");
    rep.stamp("nproc", std::to_string(ncpu));
    rep.stamp("threads", std::to_string(opt.threads));
    rep.stamp("check_workers", std::to_string(opt.workers));
    rep.stamp("simd", asv::simd::activeName());
    rep.stamp("build_type", PERFBENCH_BUILD_TYPE);
    rep.stamp("load_before", loadString(load_before));
    rep.stamp("load_after", loadString(load_after));
    rep.stamp("gen_late_ms", fmt(rep.genLateMs));
    // The hypervisor's steal share over the run: time it ran other
    // guests while ours wanted a CPU. A stamp for the reader; the
    // run is reported whatever it reads.
    rep.stamp("host_steal_pct",
              fmt(all ? 100.0 *
                            double(jiffies_after[1] - jiffies_before[1]) /
                            double(all)
                      : 0.0));

    std::string unusable;
    const double max_load = kMaxLoadPerCpu * ncpu;
    if (load_before[0] > max_load || load_after[0] > max_load)
        unusable = "1-minute load above " + fmt(max_load);
    else if (rep.genLateMs > kMaxGenLateMs)
        unusable = "generator ran " + fmt(rep.genLateMs) +
                   " ms late (limit " + fmt(kMaxGenLateMs) + " ms)";

    for (const auto &[k, v] : rep.stamps)
        std::printf("# %-22s %s\n", k.c_str(), v.c_str());
    for (const Metric &m : rep.metrics)
        std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &g : rep.gateFailures)
        std::printf("GATE FAILED: %s\n", g.c_str());
    if (!unusable.empty())
        std::printf("UNUSABLE RUN: %s\n", unusable.c_str());

    const bool correct = rep.gateFailures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"usable\": %s, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(rep.attempted),
                static_cast<long long>(rep.failed),
                unusable.empty() ? "true" : "false");
    for (size_t i = 0; i < rep.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", rep.metrics[i].name.c_str(),
                    rep.metrics[i].value, rep.metrics[i].unit.c_str());
    std::printf("}, \"stamps\": {");
    for (size_t i = 0; i < rep.stamps.size(); ++i)
        std::printf("%s\"%s\": \"%s\"", i ? ", " : "",
                    rep.stamps[i].first.c_str(),
                    jsonEscape(rep.stamps[i].second).c_str());
    std::printf("}}\n");
    std::fflush(stdout);
    if (!correct)
        return 1;
    return unusable.empty() ? 0 : 3;
}

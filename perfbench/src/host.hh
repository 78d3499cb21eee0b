/**
 * @file
 * Host probes and the per-run report every workload fills in.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "image/image.hh"

namespace perfbench
{

/** Monotonic wall clock, seconds. */
double wallNow();

/** CPU time of the whole process (all threads, user + sys), s. */
double processCpuNow();

/** Resident set size of the process, MiB. */
double rssMb();

/** 1/5/15-minute load average. */
std::array<double, 3> loadAverage();

/** Host-wide {total, steal} CPU jiffies from /proc/stat; steal is
 *  time the hypervisor ran someone else while a vCPU wanted to run. */
std::array<uint64_t, 2> hostCpuJiffies();

/** CPUs this process may run on (what `nproc` prints). */
int onlineCpus();

/** FNV-1a over raw bytes: a bit-identity witness. */
uint64_t hashBytes(const void *data, size_t bytes);

/** hashBytes() over an image's dimensions and pixel bits. */
uint64_t imageHash(const asv::image::Image &img);

/** Peak-RSS tracker: call sample() on the hot thread now and then. */
class RssPeak
{
  public:
    RssPeak() : baseline_(rssMb()), peak_(baseline_) {}
    void sample();
    /** Peak growth over the construction-time baseline, MiB. */
    double growthMb() const { return peak_ - baseline_; }

  private:
    double baseline_;
    double peak_;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run measured and checked. */
struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> stamps;
    std::vector<std::string> gateFailures;
    int64_t attempted = 0;
    int64_t failed = 0;
    //! run-validity figure; a run above kMaxGenLateMs is unusable
    double genLateMs = 0.0;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void
    stamp(std::string key, std::string value)
    {
        stamps.emplace_back(std::move(key), std::move(value));
    }
    /** Record a correctness gate; a failure counts in @c failed. */
    void gate(bool ok, const std::string &what);
};

/**
 * Pool size of the ism_qvga and dnn_dispnet timed sections, the
 * steadiest of 1, 2 and 4 on a shared 4-vCPU host (interleaved runs,
 * IQR of frame_p50_ms over the median). One thread keeps the whole
 * working set in one core's caches, which neighbours evict: ism_qvga
 * p50 86-118 ms, dnn_dispnet 824-932 ms. Four threads wait at every
 * fork-join for any vCPU the hypervisor stole: ism_qvga p50 86-269
 * ms under 1-11% steal. Two threads held 85-89 ms and 521-527 ms.
 * The traced run's 1/2/4-worker curves show the rest.
 */
constexpr int kTimedThreads = 2;
//! Pool size of the correctness checks and top of the traced curves.
constexpr int kCheckWorkers = 4;

/** Options shared by every workload. */
struct RunOptions
{
    uint64_t seed = 1;    //!< input seed (already held-out-mapped)
    double seconds = 10;  //!< timed-section length
    bool trace = false;   //!< per-layer run instead of end-to-end
    int threads = 2;      //!< kTimedThreads, capped at nproc
    int workers = 4;      //!< kCheckWorkers, capped at nproc
    std::string outDir;   //!< where trace files go
};

Report runIsmQvga(const RunOptions &opt);
Report runServeCams(const RunOptions &opt);
Report runDnnDispnet(const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_HOST_HH

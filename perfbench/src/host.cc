#include "host.hh"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench
{

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
rssMb()
{
    long pages = 0, resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

std::array<double, 3>
loadAverage()
{
    std::array<double, 3> la{-1.0, -1.0, -1.0};
    if (getloadavg(la.data(), 3) != 3)
        la = {-1.0, -1.0, -1.0};
    return la;
}

std::array<uint64_t, 2>
hostCpuJiffies()
{
    std::array<uint64_t, 2> out{0, 0};
    if (FILE *f = std::fopen("/proc/stat", "r")) {
        unsigned long long v[8] = {};
        if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]) == 8) {
            for (unsigned long long x : v)
                out[0] += x;
            out[1] = v[7];
        }
        std::fclose(f);
    }
    return out;
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return int(sysconf(_SC_NPROCESSORS_ONLN));
}

uint64_t
hashBytes(const void *data, size_t bytes)
{
    // FNV-1a over 64-bit words (then the tail bytes): any flipped
    // bit changes the result, at a word per multiply.
    uint64_t h = 1469598103934665603ull;
    const auto *b = static_cast<const unsigned char *>(data);
    size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        uint64_t w = 0;
        std::memcpy(&w, b + i, 8);
        h ^= w;
        h *= 1099511628211ull;
    }
    for (; i < bytes; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
imageHash(const asv::image::Image &img)
{
    const int dims[2] = {img.width(), img.height()};
    uint64_t h = hashBytes(dims, sizeof(dims));
    if (!img.empty())
        h ^= hashBytes(img.data(), sizeof(float) * size_t(img.width()) *
                                       size_t(img.height()));
    return h;
}

void
RssPeak::sample()
{
    const double now = rssMb();
    if (now > peak_)
        peak_ = now;
}

void
Report::gate(bool ok, const std::string &what)
{
    if (ok)
        return;
    gateFailures.push_back(what);
    ++failed;
}

} // namespace perfbench

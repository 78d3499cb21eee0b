#include "trace.hh"

#include <atomic>
#include <cstdio>

#include "host.hh"

namespace perfbench
{

namespace
{

int
threadId()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

} // namespace

int
Tracer::begin(const char *name, int64_t frame, int parent, int stream)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.frame = frame;
    s.stream = stream;
    s.thread = threadId();
    s.cpu0 = processCpuNow();
    s.t0 = wallNow();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
    return int(spans_.size()) - 1;
}

void
Tracer::end(int id)
{
    const double t1 = wallNow();
    const double cpu1 = processCpuNow();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(id)].t1 = t1;
    spans_[size_t(id)].cpu1 = cpu1;
}

int
Tracer::record(const char *name, double t0, double t1, int64_t frame,
               int stream, int parent)
{
    Span s;
    s.name = name;
    s.t0 = t0;
    s.t1 = t1;
    s.parent = parent;
    s.frame = frame;
    s.stream = stream;
    s.thread = threadId();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
    return int(spans_.size()) - 1;
}

std::vector<Span>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        if (name == s.name && s.t1 >= s.t0)
            out.push_back(1e3 * (s.t1 - s.t0));
    return out;
}

double
Tracer::totalMs(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durationsMs(name))
        sum += d;
    return sum;
}

double
Tracer::coresBusy(const std::string &name) const
{
    double wall = 0.0, cpu = 0.0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_) {
        if (name != s.name || s.t1 < s.t0)
            continue;
        wall += s.t1 - s.t0;
        cpu += s.cpu1 - s.cpu0;
    }
    return wall > 0.0 ? cpu / wall : 0.0;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    const std::vector<Span> spans = snapshot();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double origin = spans.empty() ? 0.0 : spans.front().t0;
    for (const Span &s : spans)
        origin = s.t0 < origin ? s.t0 : origin;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,"
                     "\"frame\":%lld,\"stream\":%d}}",
                     i ? "," : "", s.name, s.thread,
                     1e6 * (s.t0 - origin), 1e6 * (s.t1 - s.t0), i,
                     s.parent, static_cast<long long>(s.frame),
                     s.stream);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

/**
 * @file
 * In-memory span recorder for the traced runs. Spans are taken from
 * outside the library, at the boundary of each layer's public
 * functions, kept in memory while the run lasts and written once at
 * the end as Chrome trace-event JSON (chrome://tracing, Perfetto).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    const char *name = "";
    double t0 = 0.0, t1 = 0.0;     //!< wall, s
    double cpu0 = 0.0, cpu1 = 0.0; //!< process CPU, s
    int parent = -1;               //!< index of the enclosing span
    int64_t frame = -1;            //!< frame id (ticket in serve)
    int stream = -1;               //!< camera stream, -1 if none
    int thread = 0;                //!< small per-thread id
};

/** Thread-safe; spans of one frame share (stream, frame). */
class Tracer
{
  public:
    Tracer() { spans_.reserve(1 << 16); }

    /** Open a span; returns its id for end() and as a parent. */
    int begin(const char *name, int64_t frame, int parent = -1,
              int stream = -1);
    void end(int id);

    /** A span that is already over (e.g. a delivery instant). */
    int record(const char *name, double t0, double t1, int64_t frame,
               int stream, int parent = -1);

    std::vector<Span> snapshot() const;

    /** Wall times (ms) of every closed span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const;
    /** Sum of wall ms of the spans called @p name. */
    double totalMs(const std::string &name) const;
    /** Process CPU-s per wall-s inside the spans called @p name. */
    double coresBusy(const std::string &name) const;

    /** Write Chrome trace-event JSON; false on I/O failure. */
    bool writeChrome(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span. */
class TraceScope
{
  public:
    TraceScope(Tracer &t, const char *name, int64_t frame,
               int parent = -1, int stream = -1)
        : tracer_(t), id_(t.begin(name, frame, parent, stream))
    {
    }
    ~TraceScope() { tracer_.end(id_); }
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;
    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH

/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans are recorded only from the benchmark's files, around the calls
 * it makes into each gnnperf module's public functions (and, through
 * the timing decorator, around every Backend virtual). Each span has a
 * name, a start and end on the steady clock, the span that was open
 * when it started (its parent) and the training step it belongs to
 * (-1 outside a step). Spans stay in memory until the run ends, when
 * they are summarised and written as a Chrome trace-event file.
 *
 * The benchmark driver is single threaded (kernels fan out inside the
 * library's own pool), so the open-span stack needs no locking.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time of the whole process (every thread), in nanoseconds. Time
 * the hypervisor steals from a vCPU is not charged to it, so on a
 * shared host this reads the program's own work where wall time swings
 * with the neighbours' load.
 */
inline int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span
{
    const char *name;  ///< static string (layer.call)
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;  ///< index of the enclosing span, -1 at top
    int32_t step = -1;    ///< training step id, -1 outside a step
};

class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int32_t open(const char *name);

    /** Close the innermost open span (must be `id`). */
    void close(int32_t id);

    /** Step id stamped into spans opened from now on (-1 = none). */
    void setStep(int32_t step) { step_ = step; }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus the union of its
     * children's intervals (children never overlap on one thread, so
     * the union is their sum).
     */
    std::vector<int64_t> selfNs() const;

    /** Write the spans as Chrome trace-event JSON (Perfetto opens it). */
    bool writeChromeTrace(const std::string &path,
                          const std::string &process_name) const;

  private:
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
    int32_t step_ = -1;
};

/** RAII span; a null tracer makes it a branch and nothing else. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : -1)
    {
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH

/**
 * @file
 * Trace collection: phases, layer scopes, and record emission.
 *
 * The Profiler is a process-wide sink. When disabled (the default)
 * record emission is a branch and a return, so unprofiled runs (unit
 * tests, accuracy-only training) pay almost nothing. When enabled,
 * tensor ops, graph kernels and collation code append KernelRecord /
 * HostRecord entries annotated with the current Phase and layer scope;
 * the Timeline then prices the trace (see timeline.hh).
 *
 * Every record also carries its measured window: the host wall time
 * since the previous record, or since the trace was last enabled or
 * cleared. Windows tile the traced span with no gaps, so summing them
 * per kernel, layer or phase attributes all of it (obs/roofline.hh).
 * Only the thread that drives training records: the trace is not
 * thread-safe, and a pooled launch's workers finish before the caller
 * records it, so one cursor covers them.
 */

#ifndef GNNPERF_DEVICE_PROFILER_HH
#define GNNPERF_DEVICE_PROFILER_HH

#include <chrono>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/checks.hh"
#include "device/kernel_registry.hh"
#include "device/trace.hh"
#include "obs/spans.hh"

namespace gnnperf {

/**
 * Process-wide trace collector.
 */
class Profiler
{
  public:
    /** The process-wide instance. */
    static Profiler &instance();

    /** Enable/disable trace collection; enabling restarts the window. */
    void
    setEnabled(bool enabled)
    {
        enabled_ = enabled;
        if (enabled)
            cursor_ = Clock::now();
    }
    bool enabled() const { return enabled_; }

    /** Current phase (stamped into records). */
    void setPhase(Phase phase) { phase_ = phase; }
    Phase phase() const { return phase_; }

    /**
     * Enter a named layer scope (e.g. "conv1"). Returns the previous
     * scope id so callers can restore it. Names are interned: the same
     * name maps to the same id across epochs.
     */
    int16_t pushLayer(const char *name);

    /** Restore a previous layer scope id. */
    void setLayer(int16_t id) { layer_ = id; }
    int16_t layer() const { return layer_; }

    /** All interned layer names, indexed by id. */
    const std::vector<std::string> &layerNames() const
    {
        return layerNames_;
    }

    /** Emit a kernel record (no-op when disabled). */
    void
    recordKernel(const char *name, double flops, double bytes)
    {
        // Checked builds verify the name even while tracing is off:
        // the registry contract holds for every kernel a test runs,
        // not just the profiled ones.
        if (checksEnabled())
            assertKernelRegistered(name);
        if (!enabled_)
            return;
        trace_.addKernel(KernelRecord{name, flops, bytes, phase_, layer_,
                                      window()});
    }

    /** Emit a host record (no-op when disabled). */
    void
    recordHost(const char *name, HostOpKind kind, double bytes,
               double items)
    {
        if (!enabled_)
            return;
        trace_.addHost(HostRecord{name, kind, bytes, items, phase_,
                                  layer_, window()});
    }

    /** The collected trace. */
    const Trace &trace() const { return trace_; }

    /**
     * Drop all collected records and restart the window (layer
     * interning is kept).
     */
    void
    clearTrace()
    {
        trace_.clear();
        cursor_ = Clock::now();
    }

    /** Drop records and layer interning. */
    void reset();

  private:
    using Clock = std::chrono::steady_clock;

    Profiler() = default;

    /** Wall ns since the previous record; moves the cursor to now. */
    float
    window()
    {
        const Clock::time_point now = Clock::now();
        const float ns =
            std::chrono::duration<float, std::nano>(now - cursor_).count();
        cursor_ = now;
        return ns;
    }

    bool enabled_ = false;
    Clock::time_point cursor_{};
    Phase phase_ = Phase::Other;
    int16_t layer_ = -1;
    Trace trace_;
    std::vector<std::string> layerNames_;
    std::unordered_map<std::string, int16_t> layerIds_;
};

/**
 * RAII phase scope: sets the phase, restores the previous on exit.
 * Doubles as a wall-clock HostSpan (obs/spans.hh) so enabling the
 * span tracer times every phase for real; the span opens *after* the
 * phase switch so it is stamped with the new phase.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase phase)
        : prev_(Profiler::instance().phase()),
          span_((Profiler::instance().setPhase(phase),
                 phaseName(phase)))
    {
    }

    ~PhaseScope() { Profiler::instance().setPhase(prev_); }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    Phase prev_;
    HostSpan span_;
};

/**
 * RAII layer scope: tags records with a layer name (e.g. "conv2").
 * Also a wall-clock HostSpan, opened after the layer push so the span
 * carries its own layer id.
 */
class LayerScope
{
  public:
    explicit LayerScope(const char *name)
        : prev_(Profiler::instance().layer()),
          span_((Profiler::instance().pushLayer(name), name))
    {
    }

    ~LayerScope() { Profiler::instance().setLayer(prev_); }

    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    int16_t prev_;
    HostSpan span_;
};

/** Convenience free functions for emitting records. */
inline void
recordKernel(const char *name, double flops, double bytes)
{
    Profiler::instance().recordKernel(name, flops, bytes);
}

inline void
recordHost(const char *name, HostOpKind kind, double bytes,
           double items = 0.0)
{
    Profiler::instance().recordHost(name, kind, bytes, items);
}

} // namespace gnnperf

#endif // GNNPERF_DEVICE_PROFILER_HH

/**
 * @file
 * Allocator event recording: the memory timeline and peak ownership.
 *
 * PR 3's allocators report *aggregate* MemoryStats — end-of-run
 * counters that say how high the logical and reserved lines got, but
 * not *when* memory moved or *which* live tensors owned the peak. The
 * MemTracer records one timestamped event per allocator action
 * (alloc/free/split/coalesce/trim/emptyCache plus peak-reset markers)
 * with the block id, size, device and the profiler phase/layer active
 * at the time, sampling the post-event logical/reserved levels; the
 * merged execution trace (obs/exec_trace.hh) renders those samples as
 * per-device counter tracks next to the host spans and the simulated
 * GPU stream — the paper's Fig. 4 curve as a timeline instead of a
 * single number.
 *
 * On top of the stream it keeps per-device **peak attribution**: at
 * every new logical or reserved high-water mark it snapshots the
 * active phase/layer/span and the top-K live blocks by size, so "who
 * owns the peak" is answerable after the run. Enabling the tracer
 * resets the DeviceManager's peak accounting (emitting ResetPeak
 * markers), so the trace window and MemoryStats peaks describe the
 * same interval and the counter-track maxima equal the stats peaks
 * exactly.
 *
 * Cost discipline mirrors the Profiler/SpanTracer: off by default,
 * every hook starts with a relaxed atomic load — a branch and a
 * return when disabled.
 */

#ifndef GNNPERF_OBS_MEMTRACE_HH
#define GNNPERF_OBS_MEMTRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/device.hh"
#include "device/trace.hh"

namespace gnnperf {

struct MemoryBlock;

/** What an allocator event describes. */
enum class MemEventKind : uint8_t {
    Alloc,       ///< a block was handed to a tensor (logical +=)
    Free,        ///< a live block was released (logical -=)
    Split,       ///< a cached block was split (caching allocator)
    Coalesce,    ///< free neighbours merged (caching allocator)
    Trim,        ///< generational cache trim returned segments
    EmptyCache,  ///< emptyCache() returned every free segment
    ResetPeak,   ///< peak accounting was reset (new measure window)
    GuardViolation,  ///< redzone/poison corruption (checked builds)
};

/** Number of distinct memory-event kinds. */
constexpr int kNumMemEventKinds = 8;

/** Human-readable event-kind name ("alloc", "reset_peak", …). */
const char *memEventName(MemEventKind kind);

/** One timestamped allocator event with sampled memory levels. */
struct MemEvent
{
    double tsUs = 0.0;           ///< µs on the shared trace clock
    uint64_t blockId = 0;        ///< tracer block id (0 = n/a)
    std::size_t bytes = 0;       ///< kind-specific payload bytes
    std::size_t logicalBytes = 0;   ///< live bytes after the event
    std::size_t reservedBytes = 0;  ///< pool bytes after the event
    MemEventKind kind = MemEventKind::Alloc;
    DeviceKind device = DeviceKind::Host;
    Phase phase = Phase::Other;  ///< profiler phase at event time
    int16_t layer = -1;          ///< profiler layer scope at event time
};

/** One live block inside a peak snapshot. */
struct PeakBlockInfo
{
    uint64_t id = 0;
    std::size_t bytes = 0;
    Phase phase = Phase::Other;  ///< phase the block was allocated in
    std::string layer;           ///< layer scope at allocation ("")
    double allocTsUs = 0.0;
};

/**
 * State captured at a memory high-water mark: who was running and
 * which live blocks own the bytes. `trackedBytes` sums every live
 * block the tracer has seen allocated; `totalBytes` is the
 * DeviceManager level at capture, so `totalBytes - trackedBytes` is
 * memory allocated before tracing was enabled.
 */
struct PeakSnapshot
{
    bool valid = false;
    double tsUs = 0.0;
    Phase phase = Phase::Other;  ///< active phase at the peak
    std::string layer;           ///< active layer scope ("" = none)
    std::string span;            ///< innermost open host span ("")
    std::size_t totalBytes = 0;
    std::size_t trackedBytes = 0;
    std::size_t liveBlockCount = 0;   ///< tracked live blocks
    std::vector<PeakBlockInfo> topBlocks;  ///< largest first, ≤ kTopK
};

/**
 * Process-wide allocator event sink. Thread-safe; intentionally
 * leaked (like the DeviceManager) so blocks released during static
 * destruction can still notify it.
 */
class MemTracer
{
  public:
    /** Live blocks kept per peak snapshot. */
    static constexpr int kTopK = 8;

    /** Default event-list capacity (see class comment on overflow). */
    static constexpr std::size_t kDefaultEventCapacity = 1 << 20;

    /** The process-wide instance. */
    static MemTracer &instance();

    /**
     * Enable/disable recording. Enabling resets the tracer *and* the
     * DeviceManager peak accounting on every device (emitting
     * ResetPeak markers) so the stats peaks and the recorded window
     * coincide.
     */
    void setEnabled(bool on);

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    // --- allocator hooks (branch + return when disabled) ---

    /** A block was handed out; assigns `block->traceId`. */
    void onAlloc(DeviceKind device, MemoryBlock *block);

    /** A live block is being released (call before it is recycled). */
    void onFree(DeviceKind device, const MemoryBlock *block);

    void onSplit(DeviceKind device, std::size_t bytes);
    void onCoalesce(DeviceKind device, std::size_t bytes);

    /** trim()/emptyCache() returned `bytes` to the system. */
    void onCacheRelease(DeviceKind device, MemEventKind kind,
                        std::size_t bytes);

    /** DeviceManager::resetPeak hook: emit a window marker. */
    void onResetPeak(DeviceKind device);

    /**
     * The allocator guard layer found a torn canary/poison byte in
     * `block` at `offset` (docs/CORRECTNESS.md). Recorded even while
     * the tracer is disabled — the process is about to panic, and the
     * event must not depend on tracing being on to exist.
     */
    void onGuardViolation(DeviceKind device, const MemoryBlock *block,
                          std::size_t offset);

    // --- queries ---

    /** Recorded events in chronological order. */
    std::vector<MemEvent> events() const;

    /** Events not stored because the capacity was reached. */
    std::size_t droppedCount() const;

    /** Snapshot at the device's logical high-water mark. */
    PeakSnapshot logicalPeak(DeviceKind device) const;

    /** Snapshot at the device's reserved high-water mark. */
    PeakSnapshot reservedPeak(DeviceKind device) const;

    /** Drop all events, live-block tracking and snapshots. */
    void reset();

    /** Shrink/grow the event capacity (drops events). Test hook. */
    void setEventCapacity(std::size_t capacity);

  private:
    MemTracer() = default;

    struct LiveBlock
    {
        std::size_t bytes = 0;
        Phase phase = Phase::Other;
        int16_t layer = -1;
        double tsUs = 0.0;
    };

    struct PerDevice
    {
        std::unordered_map<uint64_t, LiveBlock> live;
        std::size_t trackedLiveBytes = 0;
        std::size_t logicalMax = 0;   ///< window max of logical bytes
        std::size_t reservedMax = 0;  ///< window max of reserved bytes
        PeakSnapshot logicalPeak;
        PeakSnapshot reservedPeak;
    };

    PerDevice &dev(DeviceKind device)
    {
        return device == DeviceKind::Cuda ? cuda_ : host_;
    }

    const PerDevice &dev(DeviceKind device) const
    {
        return device == DeviceKind::Cuda ? cuda_ : host_;
    }

    /**
     * Append an event stamped with the clock/phase/layer and the
     * device's post-event levels; maintains window maxima and peak
     * snapshots. Events that establish a new window maximum (and
     * ResetPeak markers) are always stored, so the counter-track
     * maxima survive capacity overflow exactly.
     */
    void pushEvent(DeviceKind device, MemEventKind kind,
                   uint64_t block_id, std::size_t bytes);

    void captureSnapshot(PerDevice &d, PeakSnapshot &snap,
                         std::size_t total_bytes) const;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<MemEvent> events_;
    std::size_t eventCapacity_ = kDefaultEventCapacity;
    std::size_t dropped_ = 0;
    uint64_t lastId_ = 0;
    PerDevice host_;
    PerDevice cuda_;
};

} // namespace gnnperf

#endif // GNNPERF_OBS_MEMTRACE_HH

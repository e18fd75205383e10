#include "obs/memtrace.hh"

#include <algorithm>
#include <utility>

#include "device/allocator.hh"
#include "device/profiler.hh"
#include "obs/spans.hh"

namespace gnnperf {

namespace {

/** Interned layer id → name ("" when out of scope). */
std::string
layerNameOf(int16_t layer)
{
    if (layer < 0)
        return "";
    const auto &names = Profiler::instance().layerNames();
    const auto idx = static_cast<std::size_t>(layer);
    return idx < names.size() ? names[idx] : "";
}

} // namespace

const char *
memEventName(MemEventKind kind)
{
    switch (kind) {
      case MemEventKind::Alloc:
        return "alloc";
      case MemEventKind::Free:
        return "free";
      case MemEventKind::Split:
        return "split";
      case MemEventKind::Coalesce:
        return "coalesce";
      case MemEventKind::Trim:
        return "trim";
      case MemEventKind::EmptyCache:
        return "empty_cache";
      case MemEventKind::ResetPeak:
        return "reset_peak";
      case MemEventKind::GuardViolation:
        return "guard_violation";
    }
    return "?";
}

MemTracer &
MemTracer::instance()
{
    // Leaked like the DeviceManager: blocks released during static
    // destruction must still find the tracer alive.
    static MemTracer *tracer = new MemTracer();  // lint:allow leaked singleton
    return *tracer;
}

void
MemTracer::setEnabled(bool on)
{
    if (!on) {
        enabled_.store(false, std::memory_order_relaxed);
        return;
    }
    reset();
    enabled_.store(true, std::memory_order_relaxed);
    // Open the measurement window: resetting the peaks routes back
    // through onResetPeak(), so the trace starts with one ResetPeak
    // marker per device and the MemoryStats peaks cover exactly the
    // recorded interval.
    DeviceManager &dm = DeviceManager::instance();
    dm.resetPeak(DeviceKind::Host);
    dm.resetPeak(DeviceKind::Cuda);
}

void
MemTracer::onAlloc(DeviceKind device, MemoryBlock *block)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    PerDevice &d = dev(device);
    block->traceId = ++lastId_;
    const Profiler &prof = Profiler::instance();
    LiveBlock live;
    live.bytes = block->requested;
    live.phase = prof.phase();
    live.layer = prof.layer();
    live.tsUs = SpanTracer::nowUs();
    d.trackedLiveBytes += live.bytes;
    d.live.emplace(block->traceId, live);
    pushEvent(device, MemEventKind::Alloc, block->traceId,
              block->requested);
}

void
MemTracer::onFree(DeviceKind device, const MemoryBlock *block)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    PerDevice &d = dev(device);
    std::size_t bytes = block->requested;
    if (block->traceId != 0) {
        // Blocks allocated before tracing was enabled carry id 0 and
        // are simply not in the live map; their frees still record.
        auto it = d.live.find(block->traceId);
        if (it != d.live.end()) {
            bytes = it->second.bytes;
            d.trackedLiveBytes -= bytes;
            d.live.erase(it);
        }
    }
    pushEvent(device, MemEventKind::Free, block->traceId, bytes);
}

void
MemTracer::onSplit(DeviceKind device, std::size_t bytes)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    pushEvent(device, MemEventKind::Split, 0, bytes);
}

void
MemTracer::onCoalesce(DeviceKind device, std::size_t bytes)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    pushEvent(device, MemEventKind::Coalesce, 0, bytes);
}

void
MemTracer::onCacheRelease(DeviceKind device, MemEventKind kind,
                          std::size_t bytes)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    pushEvent(device, kind, 0, bytes);
}

void
MemTracer::onGuardViolation(DeviceKind device,
                            const MemoryBlock *block,
                            std::size_t offset)
{
    // Deliberately no enabled() gate: the allocator is about to panic,
    // and a post-mortem reader of the trace must find the violation
    // regardless of whether recording was on.
    std::lock_guard<std::mutex> lock(mu_);
    pushEvent(device, MemEventKind::GuardViolation, block->traceId,
              offset);
}

void
MemTracer::onResetPeak(DeviceKind device)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    pushEvent(device, MemEventKind::ResetPeak, 0, 0);
}

std::vector<MemEvent>
MemTracer::events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

std::size_t
MemTracer::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

PeakSnapshot
MemTracer::logicalPeak(DeviceKind device) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dev(device).logicalPeak;
}

PeakSnapshot
MemTracer::reservedPeak(DeviceKind device) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dev(device).reservedPeak;
}

void
MemTracer::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    dropped_ = 0;
    lastId_ = 0;
    host_ = PerDevice{};
    cuda_ = PerDevice{};
}

void
MemTracer::setEventCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mu_);
    eventCapacity_ = capacity > 0 ? capacity : 1;
    events_.clear();
    dropped_ = 0;
}

// mu_ must be held.
void
MemTracer::pushEvent(DeviceKind device, MemEventKind kind,
                     uint64_t block_id, std::size_t bytes)
{
    const MemoryStats &stats = DeviceManager::instance().stats(device);
    MemEvent ev;
    ev.tsUs = SpanTracer::nowUs();
    ev.blockId = block_id;
    ev.bytes = bytes;
    ev.logicalBytes = stats.currentBytes;
    ev.reservedBytes = stats.reservedBytes;
    ev.kind = kind;
    ev.device = device;
    const Profiler &prof = Profiler::instance();
    ev.phase = prof.phase();
    ev.layer = prof.layer();

    PerDevice &d = dev(device);
    bool must_store = kind == MemEventKind::ResetPeak;
    if (kind == MemEventKind::ResetPeak) {
        // New measurement window: maxima restart at the current
        // levels, matching MemoryStats::resetPeak().
        d.logicalMax = ev.logicalBytes;
        d.reservedMax = ev.reservedBytes;
        captureSnapshot(d, d.logicalPeak, ev.logicalBytes);
        captureSnapshot(d, d.reservedPeak, ev.reservedBytes);
    } else {
        if (ev.logicalBytes > d.logicalMax) {
            d.logicalMax = ev.logicalBytes;
            captureSnapshot(d, d.logicalPeak, ev.logicalBytes);
            must_store = true;
        }
        if (ev.reservedBytes > d.reservedMax) {
            d.reservedMax = ev.reservedBytes;
            captureSnapshot(d, d.reservedPeak, ev.reservedBytes);
            must_store = true;
        }
    }
    // Markers and max-establishing events are stored past capacity so
    // the counter-track maxima stay exact under overflow.
    if (events_.size() < eventCapacity_ || must_store)
        events_.push_back(ev);
    else
        ++dropped_;
}

// mu_ must be held.
void
MemTracer::captureSnapshot(PerDevice &d, PeakSnapshot &snap,
                           std::size_t total_bytes) const
{
    snap.valid = true;
    snap.tsUs = SpanTracer::nowUs();
    const Profiler &prof = Profiler::instance();
    snap.phase = prof.phase();
    snap.layer = layerNameOf(prof.layer());
    snap.span = SpanTracer::instance().currentSpanName();
    snap.totalBytes = total_bytes;
    snap.trackedBytes = d.trackedLiveBytes;
    snap.liveBlockCount = d.live.size();

    std::vector<PeakBlockInfo> blocks;
    blocks.reserve(d.live.size());
    for (const auto &[id, live] : d.live) {
        PeakBlockInfo info;
        info.id = id;
        info.bytes = live.bytes;
        info.phase = live.phase;
        info.layer = layerNameOf(live.layer);
        info.allocTsUs = live.tsUs;
        blocks.push_back(std::move(info));
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const PeakBlockInfo &a, const PeakBlockInfo &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes > b.bytes;
                  return a.id < b.id;
              });
    if (blocks.size() > static_cast<std::size_t>(kTopK))
        blocks.resize(kTopK);
    snap.topBlocks = std::move(blocks);
}

} // namespace gnnperf

/**
 * @file
 * MemTracer unit tests against scripted allocator sequences: the
 * disabled path records nothing, every allocator action lands as an
 * event with sampled levels, the window maxima match the
 * DeviceManager peaks exactly, and the peak-attribution snapshot's
 * live blocks sum to the recorded peak.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/checks.hh"
#include "device/allocator.hh"
#include "device/device.hh"
#include "device/profiler.hh"
#include "obs/memtrace.hh"

using namespace gnnperf;

namespace {

/**
 * Backing capacity the caching allocator reserves for `bytes`: in
 * checked builds the redzones ride inside the quantum-rounded size.
 */
std::size_t
cachedCapacity(std::size_t bytes)
{
    const std::size_t guard =
        checksEnabled() ? Allocator::kRedzone : 0;
    const std::size_t n = std::max<std::size_t>(bytes + 2 * guard, 1);
    return (n + CachingAllocator::kQuantum - 1) /
           CachingAllocator::kQuantum * CachingAllocator::kQuantum;
}

/** Window maximum of one device's levels after its last ResetPeak. */
struct WindowMax
{
    std::size_t logical = 0;
    std::size_t reserved = 0;
};

WindowMax
windowMax(const std::vector<MemEvent> &events, DeviceKind device)
{
    std::size_t last_reset = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].device == device &&
            events[i].kind == MemEventKind::ResetPeak)
            last_reset = i;
    }
    WindowMax w;
    for (std::size_t i = last_reset; i < events.size(); ++i) {
        if (events[i].device != device)
            continue;
        w.logical = std::max(w.logical, events[i].logicalBytes);
        w.reserved = std::max(w.reserved, events[i].reservedBytes);
    }
    return w;
}

std::size_t
countKind(const std::vector<MemEvent> &events, MemEventKind kind)
{
    std::size_t n = 0;
    for (const MemEvent &ev : events)
        n += ev.kind == kind ? 1 : 0;
    return n;
}

class MemTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MemTracer::instance().setEnabled(false);
        MemTracer::instance().setEventCapacity(
            MemTracer::kDefaultEventCapacity);
        MemTracer::instance().reset();
    }

    void
    TearDown() override
    {
        MemTracer::instance().setEnabled(false);
        MemTracer::instance().reset();
    }
};

TEST_F(MemTraceTest, DisabledRecordsNothing)
{
    DirectAllocator alloc(DeviceKind::Cuda);
    MemoryBlock *block = alloc.allocate(4096);
    alloc.release(block);
    EXPECT_TRUE(MemTracer::instance().events().empty());
    EXPECT_EQ(MemTracer::instance().droppedCount(), 0u);
    EXPECT_FALSE(
        MemTracer::instance().logicalPeak(DeviceKind::Cuda).valid);
}

TEST_F(MemTraceTest, EnableEmitsResetMarkersForBothDevices)
{
    MemTracer::instance().setEnabled(true);
    const auto events = MemTracer::instance().events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, MemEventKind::ResetPeak);
    EXPECT_EQ(events[1].kind, MemEventKind::ResetPeak);
    EXPECT_NE(events[0].device, events[1].device);
}

TEST_F(MemTraceTest, AllocFreeEventsSampleExactLevels)
{
    MemTracer &mt = MemTracer::instance();
    DeviceManager &dm = DeviceManager::instance();
    mt.setEnabled(true);
    const std::size_t base = dm.current(DeviceKind::Cuda);

    CachingAllocator alloc(DeviceKind::Cuda);
    MemoryBlock *a = alloc.allocate(1000);
    MemoryBlock *b = alloc.allocate(2000);
    alloc.release(a);
    alloc.release(b);
    alloc.emptyCache();
    mt.setEnabled(false);

    const auto events = mt.events();
    EXPECT_EQ(countKind(events, MemEventKind::Alloc), 2u);
    EXPECT_EQ(countKind(events, MemEventKind::Free), 2u);
    EXPECT_EQ(countKind(events, MemEventKind::EmptyCache), 1u);

    // The counter maxima over the final window equal the stats peaks
    // byte for byte — the exactness contract the trace file exports.
    const WindowMax w = windowMax(events, DeviceKind::Cuda);
    EXPECT_EQ(w.logical, dm.peak(DeviceKind::Cuda));
    EXPECT_EQ(w.reserved, dm.reservedPeak(DeviceKind::Cuda));
    EXPECT_EQ(w.logical, base + 3000);
}

TEST_F(MemTraceTest, PeakBlocksSumToRecordedPeak)
{
    MemTracer &mt = MemTracer::instance();
    DeviceManager &dm = DeviceManager::instance();
    Profiler::instance().reset();
    mt.setEnabled(true);
    const std::size_t base = dm.current(DeviceKind::Cuda);

    CachingAllocator alloc(DeviceKind::Cuda);
    MemoryBlock *a = nullptr;
    MemoryBlock *b = nullptr;
    MemoryBlock *c = nullptr;
    {
        PhaseScope phase(Phase::Forward);
        LayerScope layer("conv1");
        a = alloc.allocate(1000);
        b = alloc.allocate(2000);
        c = alloc.allocate(512);
    }

    const PeakSnapshot snap = mt.logicalPeak(DeviceKind::Cuda);
    ASSERT_TRUE(snap.valid);
    EXPECT_EQ(snap.totalBytes, dm.peak(DeviceKind::Cuda));
    EXPECT_EQ(snap.totalBytes, base + 3512);
    EXPECT_EQ(snap.trackedBytes, 3512u);
    EXPECT_EQ(snap.liveBlockCount, 3u);
    EXPECT_EQ(snap.phase, Phase::Forward);
    EXPECT_EQ(snap.layer, "conv1");

    // The live blocks in the snapshot own the peak completely.
    std::size_t block_sum = 0;
    for (const PeakBlockInfo &info : snap.topBlocks)
        block_sum += info.bytes;
    EXPECT_EQ(block_sum, snap.trackedBytes);
    EXPECT_EQ(block_sum + base, snap.totalBytes);
    // Largest first.
    ASSERT_EQ(snap.topBlocks.size(), 3u);
    EXPECT_EQ(snap.topBlocks[0].bytes, 2000u);
    EXPECT_EQ(snap.topBlocks[1].bytes, 1000u);
    EXPECT_EQ(snap.topBlocks[2].bytes, 512u);
    EXPECT_EQ(snap.topBlocks[0].phase, Phase::Forward);
    EXPECT_EQ(snap.topBlocks[0].layer, "conv1");

    alloc.release(a);
    alloc.release(b);
    alloc.release(c);
    alloc.emptyCache();
    mt.setEnabled(false);
}

TEST_F(MemTraceTest, SplitAndCoalesceEventsRecorded)
{
    MemTracer &mt = MemTracer::instance();
    mt.setEnabled(true);

    CachingAllocator alloc(DeviceKind::Cuda);
    MemoryBlock *big = alloc.allocate(4096);
    alloc.release(big);
    // Reuse splits the cached 4096-byte block; releasing coalesces.
    MemoryBlock *small = alloc.allocate(512);
    alloc.release(small);
    alloc.emptyCache();
    mt.setEnabled(false);

    const auto events = mt.events();
    ASSERT_EQ(countKind(events, MemEventKind::Split), 1u);
    ASSERT_EQ(countKind(events, MemEventKind::Coalesce), 1u);
    const std::size_t tail =
        cachedCapacity(4096) - cachedCapacity(512);
    for (const MemEvent &ev : events) {
        if (ev.kind == MemEventKind::Split) {
            EXPECT_EQ(ev.bytes, tail);
        }
        if (ev.kind == MemEventKind::Coalesce) {
            EXPECT_EQ(ev.bytes, tail);
        }
        if (ev.kind == MemEventKind::EmptyCache) {
            EXPECT_EQ(ev.bytes, cachedCapacity(4096));
        }
    }
}

TEST_F(MemTraceTest, TrimEventCarriesFreedBytes)
{
    MemTracer &mt = MemTracer::instance();
    mt.setEnabled(true);

    CachingAllocator alloc(DeviceKind::Cuda);
    MemoryBlock *block = alloc.allocate(2048);
    alloc.release(block);
    alloc.trim();  // first trim: block survives (used this gen)
    alloc.trim();  // second trim: stale, returned to the system
    mt.setEnabled(false);

    const auto events = mt.events();
    std::vector<std::size_t> trims;
    for (const MemEvent &ev : events)
        if (ev.kind == MemEventKind::Trim)
            trims.push_back(ev.bytes);
    ASSERT_EQ(trims.size(), 2u);
    EXPECT_EQ(trims[0], 0u);
    EXPECT_EQ(trims[1], cachedCapacity(2048));
}

TEST_F(MemTraceTest, MidRunResetPeakStartsNewWindow)
{
    MemTracer &mt = MemTracer::instance();
    DeviceManager &dm = DeviceManager::instance();
    mt.setEnabled(true);
    const std::size_t base = dm.current(DeviceKind::Cuda);

    CachingAllocator alloc(DeviceKind::Cuda);
    MemoryBlock *big = alloc.allocate(5120);
    alloc.release(big);
    alloc.emptyCache();
    // The trainers do this at the start of every run.
    dm.resetPeak(DeviceKind::Cuda);
    MemoryBlock *small = alloc.allocate(1024);
    alloc.release(small);
    alloc.emptyCache();
    mt.setEnabled(false);

    const auto events = mt.events();
    // The final window sees only the small allocation...
    const WindowMax w = windowMax(events, DeviceKind::Cuda);
    EXPECT_EQ(w.logical, dm.peak(DeviceKind::Cuda));
    EXPECT_EQ(w.logical, base + 1024);
    // ...while the whole trace still carries the earlier spike.
    std::size_t overall = 0;
    for (const MemEvent &ev : events)
        if (ev.device == DeviceKind::Cuda)
            overall = std::max(overall, ev.logicalBytes);
    EXPECT_EQ(overall, base + 5120);
}

TEST_F(MemTraceTest, WindowMaxEventsSurviveCapacityOverflow)
{
    MemTracer &mt = MemTracer::instance();
    DeviceManager &dm = DeviceManager::instance();
    mt.setEnabled(true);
    mt.setEventCapacity(4);

    CachingAllocator alloc(DeviceKind::Cuda);
    // Growing live set: every alloc is a new logical maximum, so all
    // of them must be stored even past the 4-event capacity.
    std::vector<MemoryBlock *> blocks;
    for (int i = 0; i < 10; ++i)
        blocks.push_back(alloc.allocate(1024));
    const auto after_growth = mt.events();
    EXPECT_EQ(countKind(after_growth, MemEventKind::Alloc), 10u);
    EXPECT_EQ(mt.droppedCount(), 0u);

    const WindowMax w = windowMax(after_growth, DeviceKind::Cuda);
    EXPECT_EQ(w.logical, dm.peak(DeviceKind::Cuda));

    // Below-peak churn does get dropped once the list is full.
    for (MemoryBlock *b : blocks)
        alloc.release(b);
    EXPECT_GT(mt.droppedCount(), 0u);
    alloc.emptyCache();
    mt.setEnabled(false);
}

TEST_F(MemTraceTest, PreEnableBlocksFreeSafelyAsUntracked)
{
    DirectAllocator alloc(DeviceKind::Cuda);
    MemoryBlock *old = alloc.allocate(2048);

    MemTracer &mt = MemTracer::instance();
    mt.setEnabled(true);
    // The enable-time snapshot sees the pre-existing bytes as
    // untracked level, with no live blocks to attribute them to.
    const PeakSnapshot at_enable = mt.logicalPeak(DeviceKind::Cuda);
    ASSERT_TRUE(at_enable.valid);
    EXPECT_GE(at_enable.totalBytes, 2048u);
    EXPECT_EQ(at_enable.trackedBytes, 0u);

    EXPECT_EQ(old->traceId, 0u);
    alloc.release(old);
    mt.setEnabled(false);

    const auto events = mt.events();
    ASSERT_EQ(countKind(events, MemEventKind::Free), 1u);
    for (const MemEvent &ev : events) {
        if (ev.kind != MemEventKind::Free)
            continue;
        EXPECT_EQ(ev.blockId, 0u);
        EXPECT_EQ(ev.bytes, 2048u);
    }
}

TEST_F(MemTraceTest, EventNamesCoverEveryKind)
{
    // Exhaustive: a new enum value must get a name and a bump of
    // kNumMemEventKinds before this passes again.
    EXPECT_EQ(kNumMemEventKinds, 8);
    const char *expected[kNumMemEventKinds] = {
        "alloc",    "free", "split",      "coalesce",
        "trim",     "empty_cache", "reset_peak", "guard_violation",
    };
    for (int i = 0; i < kNumMemEventKinds; ++i) {
        EXPECT_STREQ(memEventName(static_cast<MemEventKind>(i)),
                     expected[i]);
    }
}

} // namespace

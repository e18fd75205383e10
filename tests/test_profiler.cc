/**
 * @file
 * Profiler and Timeline tests: phase/layer scoping, trace contents,
 * measured windows, async replay semantics, attribution.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <stdexcept>

#include "device/profiler.hh"
#include "device/timeline.hh"

using namespace gnnperf;

namespace {

using Clock = std::chrono::steady_clock;

/** Busy-wait (no sleep, so no scheduler slack) for at least `d`. */
void
spin(std::chrono::microseconds d)
{
    const Clock::time_point end = Clock::now() + d;
    while (Clock::now() < end) {
    }
}

/** A trace entry's measured window in ns, kernel or host. */
double
windowNs(const TraceEntry &e)
{
    return e.isKernel ? e.kernel.wallNs : e.host.wallNs;
}

class ProfilerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::instance().reset();
        Profiler::instance().setEnabled(true);
    }

    void
    TearDown() override
    {
        Profiler::instance().reset();
        Profiler::instance().setEnabled(false);
    }
};

} // namespace

TEST_F(ProfilerFixture, DisabledProfilerRecordsNothing)
{
    Profiler::instance().setEnabled(false);
    recordKernel("sgemm", 1.0, 1.0);
    recordHost("h", HostOpKind::Memcpy, 1.0, 1.0);
    EXPECT_TRUE(Profiler::instance().trace().empty());
}

TEST_F(ProfilerFixture, RecordsCarryPhase)
{
    {
        PhaseScope phase(Phase::Forward);
        recordKernel("sgemm", 1.0, 1.0);
    }
    recordKernel("relu", 1.0, 1.0);
    const auto &entries = Profiler::instance().trace().entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].kernel.phase, Phase::Forward);
    EXPECT_EQ(entries[1].kernel.phase, Phase::Other);
}

TEST_F(ProfilerFixture, PhaseScopesNest)
{
    PhaseScope outer(Phase::Forward);
    {
        PhaseScope inner(Phase::Backward);
        EXPECT_EQ(Profiler::instance().phase(), Phase::Backward);
    }
    EXPECT_EQ(Profiler::instance().phase(), Phase::Forward);
}

TEST_F(ProfilerFixture, LayerScopesInternAndRestore)
{
    {
        LayerScope conv1("conv1");
        recordKernel("sgemm", 1.0, 1.0);
        {
            LayerScope conv2("conv2");
            recordKernel("relu", 1.0, 1.0);
        }
        recordKernel("add", 1.0, 1.0);
    }
    recordKernel("tanh", 1.0, 1.0);
    const auto &prof = Profiler::instance();
    ASSERT_EQ(prof.layerNames().size(), 2u);
    const auto &entries = prof.trace().entries();
    EXPECT_EQ(entries[0].kernel.layer, 0);
    EXPECT_EQ(entries[1].kernel.layer, 1);
    EXPECT_EQ(entries[2].kernel.layer, 0);
    EXPECT_EQ(entries[3].kernel.layer, -1);
}

TEST_F(ProfilerFixture, LayerNamesStableAcrossEpochs)
{
    {
        LayerScope s("conv1");
    }
    {
        LayerScope s("conv1");
    }
    EXPECT_EQ(Profiler::instance().layerNames().size(), 1u);
}

TEST_F(ProfilerFixture, ScopesUnwindOnException)
{
    // RAII guards must restore phase and layer when an exception
    // unwinds a model's forward pass mid-scope.
    try {
        PhaseScope phase(Phase::Forward);
        LayerScope layer("conv1");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(Profiler::instance().phase(), Phase::Other);
    recordKernel("sgemm", 1.0, 1.0);
    const auto &entries = Profiler::instance().trace().entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].kernel.layer, -1);
    EXPECT_EQ(entries[0].kernel.phase, Phase::Other);
}

TEST_F(ProfilerFixture, TraceAggregates)
{
    recordKernel("sgemm", 10.0, 100.0);
    recordKernel("relu", 20.0, 200.0);
    recordHost("h", HostOpKind::Memcpy, 50.0, 1.0);
    const Trace &trace = Profiler::instance().trace();
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.kernelCount(), 2u);
    EXPECT_DOUBLE_EQ(trace.totalFlops(), 30.0);
    EXPECT_DOUBLE_EQ(trace.totalKernelBytes(), 300.0);
}

TEST_F(ProfilerFixture, BusySpinsBoundEachWindowFromBelow)
{
    using std::chrono::microseconds;
    const microseconds spins[] = {microseconds(2000), microseconds(500),
                                  microseconds(3000), microseconds(1000)};
    Profiler::instance().clearTrace();
    for (std::size_t i = 0; i < std::size(spins); ++i) {
        spin(spins[i]);
        if (i % 2 == 0)
            recordKernel("sgemm", 1.0, 1.0);
        else
            recordHost("h", HostOpKind::Memcpy, 1.0, 1.0);
    }
    const auto &entries = Profiler::instance().trace().entries();
    ASSERT_EQ(entries.size(), std::size(spins));
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_GE(windowNs(entries[i]),
                  std::chrono::nanoseconds(spins[i]).count())
            << "record " << i;
    }
}

TEST_F(ProfilerFixture, WindowsSumToTheTimeSinceTheReset)
{
    // Time before the clear belongs to no record of the new trace.
    recordKernel("relu", 1.0, 1.0);
    spin(std::chrono::microseconds(2000));
    const Clock::time_point start = Clock::now();
    Profiler::instance().clearTrace();
    for (int i = 0; i < 20; ++i) {
        spin(std::chrono::microseconds(250));
        recordKernel("relu", 1.0, 1.0);
    }
    const double traced =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    double sum = 0.0;
    for (const TraceEntry &e : Profiler::instance().trace().entries())
        sum += windowNs(e);
    EXPECT_NEAR(sum, traced, 0.01 * traced);
}

TEST_F(ProfilerFixture, EnablingRestartsTheWindow)
{
    // Time spent disabled belongs to no record.
    Profiler &prof = Profiler::instance();
    prof.setEnabled(false);
    spin(std::chrono::microseconds(5000));
    recordKernel("sgemm", 1.0, 1.0);
    EXPECT_TRUE(prof.trace().empty());
    prof.setEnabled(true);
    recordKernel("sgemm", 1.0, 1.0);
    ASSERT_EQ(prof.trace().size(), 1u);
    EXPECT_LT(prof.trace().entries()[0].kernel.wallNs, 5e6);
}

TEST(Timeline, HostOnlyTrace)
{
    Trace trace;
    trace.addHost({"h", HostOpKind::Dispatch, 0.0, 2.0, Phase::Other,
                   -1});
    CostModel model;
    TimelineResult t = Timeline::replay(trace, model, 0.0);
    EXPECT_NEAR(t.elapsed,
                model.host.hostOpBase +
                    2.0 * model.host.dispatchItemCost, 1e-12);
    EXPECT_DOUBLE_EQ(t.gpuBusy, 0.0);
    EXPECT_DOUBLE_EQ(t.utilization(), 0.0);
}

TEST(Timeline, DispatchBoundKernelsHideGpuTime)
{
    // Tiny kernels behind large dispatch: elapsed ≈ N × dispatch,
    // utilization low. This is the ENZYMES regime (paper §IV-C).
    Trace trace;
    for (int i = 0; i < 100; ++i)
        trace.addKernel({"k", 1e3, 1e3, Phase::Forward, -1});
    CostModel model;
    const double dispatch = 30e-6;
    TimelineResult t = Timeline::replay(trace, model, dispatch);
    EXPECT_NEAR(t.elapsed, 100 * dispatch, 100 * dispatch * 0.2);
    EXPECT_LT(t.utilization(), 0.25);
    EXPECT_EQ(t.kernelLaunches, 100u);
}

TEST(Timeline, KernelBoundTraceRunsAheadOfHost)
{
    // Huge kernels: elapsed ≈ Σ kernel time, utilization → 1. This is
    // the DD regime.
    Trace trace;
    for (int i = 0; i < 10; ++i)
        trace.addKernel({"k", 1e10, 1e6, Phase::Forward, -1});
    CostModel model;
    TimelineResult t = Timeline::replay(trace, model, 30e-6);
    const double kernel_time = 10 * (model.gpu.kernelOverhead +
                                     1e10 / model.gpu.flopsPerSec);
    EXPECT_NEAR(t.elapsed, kernel_time, kernel_time * 0.25);
    EXPECT_GT(t.utilization(), 0.8);
}

TEST(Timeline, PhaseAttributionSumsToElapsed)
{
    Trace trace;
    trace.addHost({"load", HostOpKind::Memcpy, 1e6, 1.0,
                   Phase::DataLoading, -1});
    trace.addKernel({"fwd", 1e6, 1e6, Phase::Forward, -1});
    trace.addKernel({"bwd", 1e6, 1e6, Phase::Backward, -1});
    trace.addKernel({"upd", 1e3, 1e3, Phase::Update, -1});
    CostModel model;
    TimelineResult t = Timeline::replay(trace, model, 30e-6);
    EXPECT_NEAR(t.phaseElapsed.total(), t.elapsed, 1e-12);
    EXPECT_GT(t.phaseElapsed[Phase::DataLoading], 0.0);
    EXPECT_GT(t.phaseElapsed[Phase::Forward], 0.0);
    EXPECT_EQ(t.phaseKernels[static_cast<int>(Phase::Forward)], 1u);
    EXPECT_EQ(t.phaseKernels[static_cast<int>(Phase::DataLoading)],
              0u);
}

TEST(Timeline, LayerAttribution)
{
    Trace trace;
    trace.addKernel({"a", 1e6, 1e6, Phase::Forward, 0});
    trace.addKernel({"b", 2e6, 2e6, Phase::Forward, 1});
    trace.addKernel({"c", 1e3, 1e3, Phase::Forward, -1});
    CostModel model;
    TimelineResult t = Timeline::replay(trace, model, 30e-6,
                                        {"conv1", "conv2"});
    ASSERT_EQ(t.layerElapsed.size(), 2u);
    EXPECT_GT(t.layerElapsed[0], 0.0);
    EXPECT_GT(t.layerElapsed[1], 0.0);
    EXPECT_LE(t.layerElapsed[0] + t.layerElapsed[1], t.elapsed);
}

TEST(Timeline, HigherDispatchSlowsDispatchBoundTrace)
{
    Trace trace;
    for (int i = 0; i < 50; ++i)
        trace.addKernel({"k", 1e3, 1e3, Phase::Forward, -1});
    CostModel model;
    TimelineResult pyg = Timeline::replay(trace, model, 28e-6);
    TimelineResult dgl = Timeline::replay(trace, model, 36e-6);
    EXPECT_GT(dgl.elapsed, pyg.elapsed * 1.15);
}

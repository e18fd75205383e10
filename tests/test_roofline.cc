/**
 * @file
 * Roofline attribution tests: per-kernel bound classification, group
 * aggregation invariants (shares sum to 100%), the Timeline
 * record-visitation hook, JSON schema validity, the measured class
 * and verdict from per-record wall windows, and the end-to-end GatedGCN
 * DGL-vs-PyG edge-pathology gap.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hh"
#include "core/experiment.hh"
#include "device/cost_model.hh"
#include "device/timeline.hh"
#include "obs/roofline.hh"

using namespace gnnperf;

namespace {

/** A kernel big enough that fixed per-launch costs are negligible. */
KernelRecord
bigKernel(double flops, double bytes)
{
    return {"k", flops, bytes, Phase::Forward, -1};
}

/** A kernel record with a hand-set measured window. */
KernelRecord
timedKernel(const char *name, double flops, double bytes,
            double wall_seconds)
{
    KernelRecord k{name, flops, bytes, Phase::Forward, -1};
    k.wallNs = static_cast<float>(wall_seconds * 1e9);
    return k;
}

/** 1 TFLOP/s and 100 GB/s: 1 GFLOP or 100 MB is 1 ms of work. */
const HostPeaks kPeaks{1e12, 1e11};

/** `json` without its `"measured": {...}` objects and their commas. */
std::string
withoutMeasured(std::string json)
{
    const std::string key = "\"measured\": {";
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key)) {
        const std::size_t comma = json.rfind(',', at);
        json.erase(comma, json.find('}', at) + 1 - comma);
    }
    return json;
}

} // namespace

TEST(ClassifyKernel, ComputeBound)
{
    CostModel model;
    // 1 GFLOP over 1 KB: compute time dwarfs both the memory time and
    // the fixed launch cost.
    KernelBound b = classifyKernel(bigKernel(1e12, 1e3), model, 30e-6);
    EXPECT_EQ(b.cls, BoundClass::Compute);
    EXPECT_GT(b.computeSeconds, b.memorySeconds);
    EXPECT_GT(b.computeSeconds, b.overheadSeconds + b.dispatchSeconds);
    EXPECT_DOUBLE_EQ(b.intensity, 1e12 / 1e3);
}

TEST(ClassifyKernel, BandwidthBound)
{
    CostModel model;
    // 1 GB moved for almost no math.
    KernelBound b = classifyKernel(bigKernel(1e3, 1e9), model, 30e-6);
    EXPECT_EQ(b.cls, BoundClass::Bandwidth);
    EXPECT_GT(b.memorySeconds, b.computeSeconds);
}

TEST(ClassifyKernel, DispatchBound)
{
    CostModel model;
    // Tiny kernel: both roofline terms are under the launch cost.
    KernelBound b = classifyKernel(bigKernel(1e3, 1e3), model, 30e-6);
    EXPECT_EQ(b.cls, BoundClass::Dispatch);
    EXPECT_LT(std::max(b.computeSeconds, b.memorySeconds),
              b.overheadSeconds + b.dispatchSeconds);
}

TEST(ClassifyKernel, GpuSecondsMatchesCostModel)
{
    CostModel model;
    const KernelRecord k = bigKernel(1e9, 1e6);
    KernelBound b = classifyKernel(k, model, 30e-6);
    EXPECT_DOUBLE_EQ(b.gpuSeconds, model.kernelTime(k));
}

TEST(BoundClassName, CoversAllClasses)
{
    EXPECT_STREQ(boundClassName(BoundClass::Compute), "compute");
    EXPECT_STREQ(boundClassName(BoundClass::Bandwidth), "bandwidth");
    EXPECT_STREQ(boundClassName(BoundClass::Dispatch), "dispatch");
}

TEST(TimelineVisitor, FrontierDeltasSumToElapsed)
{
    Trace trace;
    trace.addHost({"load", HostOpKind::Memcpy, 1e6, 1.0,
                   Phase::DataLoading, -1});
    for (int i = 0; i < 20; ++i)
        trace.addKernel({"k", 1e6, 1e6, Phase::Forward, -1});
    trace.addHost({"meta", HostOpKind::MetaBuild, 0.0, 64.0,
                   Phase::DataLoading, -1});

    CostModel model;
    double sum = 0.0;
    std::size_t visited = 0;
    TimelineResult t = Timeline::replay(
        trace, model, 30e-6, {}, [&](const RecordTiming &rt) {
            sum += rt.frontierDelta;
            ++visited;
        });
    EXPECT_EQ(visited, trace.size());
    EXPECT_NEAR(sum, t.elapsed, 1e-12);
}

TEST(TimelineVisitor, KernelDurationIsPricedTime)
{
    Trace trace;
    trace.addKernel({"k", 1e9, 1e6, Phase::Forward, -1});
    CostModel model;
    Timeline::replay(trace, model, 30e-6, {},
                     [&](const RecordTiming &rt) {
                         ASSERT_TRUE(rt.entry.isKernel);
                         EXPECT_DOUBLE_EQ(
                             rt.duration,
                             model.kernelTime(rt.entry.kernel));
                     });
}

TEST(RooflineAnalyzer, GroupsAndInvariants)
{
    Trace trace;
    trace.addHost({"collate", HostOpKind::IndexedGather, 1e5, 300.0,
                   Phase::DataLoading, -1});
    trace.addKernel({"sgemm", 1e12, 1e3, Phase::Forward, 0});
    trace.addKernel({"spmm", 1e3, 1e9, Phase::Forward, 1});
    trace.addKernel({"relu", 1e3, 1e3, Phase::Forward, 0});
    trace.addKernel({"sgemm", 1e12, 1e3, Phase::Backward, 1});

    RooflineReport r = analyzeRoofline(trace, CostModel(), 30e-6,
                                       {"conv1", "conv2"}, "test");
    EXPECT_EQ(r.epochs, 1u);
    EXPECT_EQ(r.total.launches, 4u);
    EXPECT_EQ(r.byKernel.size(), 3u);  // sgemm, spmm, relu
    EXPECT_EQ(r.byLayer.size(), 3u);   // conv1, conv2, (none)
    EXPECT_EQ(r.byPhase.size(), 3u);   // DataLoading, Forward, Backward
    ASSERT_EQ(r.byHostOp.size(), 1u);
    EXPECT_EQ(r.byHostOp[0].name, "indexed_gather");
    EXPECT_EQ(r.byHostOp[0].ops, 1u);

    // Every record got a bound class and the per-class launch counts
    // add back up.
    std::size_t classed = 0;
    for (int c = 0; c < kNumBoundClasses; ++c)
        classed += r.total.boundLaunches[c];
    EXPECT_EQ(classed, r.total.launches);
    EXPECT_EQ(r.total.boundLaunches[static_cast<int>(
                  BoundClass::Compute)], 2u);
    EXPECT_EQ(r.total.boundLaunches[static_cast<int>(
                  BoundClass::Bandwidth)], 1u);
    EXPECT_EQ(r.total.boundLaunches[static_cast<int>(
                  BoundClass::Dispatch)], 1u);

    // Elapsed attribution: layer groups (plus host rows charged to
    // their layer) partition the run exactly.
    double layer_sum = 0.0;
    for (const auto &g : r.byLayer)
        layer_sum += g.elapsedSeconds;
    EXPECT_NEAR(layer_sum, r.elapsed, 1e-12);
    double phase_sum = 0.0;
    for (const auto &g : r.byPhase)
        phase_sum += g.elapsedSeconds;
    EXPECT_NEAR(phase_sum, r.elapsed, 1e-12);

    // Bound shares are a distribution.
    double share_sum = 0.0;
    for (int c = 0; c < kNumBoundClasses; ++c)
        share_sum += r.total.boundShare(static_cast<BoundClass>(c));
    EXPECT_NEAR(share_sum, 1.0, 1e-12);
}

TEST(RooflineAnalyzer, MultiEpochAccumulates)
{
    Trace trace;
    trace.addKernel({"k", 1e6, 1e6, Phase::Forward, -1});
    RooflineAnalyzer analyzer(CostModel(), 30e-6, "multi");
    analyzer.addTrace(trace, {});
    analyzer.addTrace(trace, {});
    RooflineReport r = analyzer.report();
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.total.launches, 2u);
    RooflineReport one = analyzeRoofline(trace, CostModel(), 30e-6, {},
                                         "one");
    EXPECT_NEAR(r.elapsed, 2.0 * one.elapsed, 1e-12);
}

TEST(RooflineJson, ParsesAndCarriesSchema)
{
    Trace trace;
    trace.addKernel({"sgemm", 1e12, 1e3, Phase::Forward, 0});
    trace.addHost({"collate", HostOpKind::Memcpy, 1e5, 1.0,
                   Phase::DataLoading, -1});
    RooflineReport r = analyzeRoofline(trace, CostModel(), 30e-6,
                                       {"conv1"}, "GCN/PyG");

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(rooflineReportToJson(r), doc, &error))
        << error;
    ASSERT_EQ(doc.type, JsonValue::Type::Object);
    EXPECT_EQ(doc.at("label").str, "GCN/PyG");
    // Emitted with %.9g, so round-trips to ~9 significant digits.
    EXPECT_NEAR(doc.at("utilization").asNumber(), r.utilization(),
                1e-8 * r.utilization());
    const JsonValue &kernels = doc.at("kernels");
    ASSERT_NE(kernels.find("sgemm"), nullptr);
    EXPECT_EQ(kernels.at("sgemm").at("bound").str, "compute");
    const JsonValue &suite_kernel =
        doc.at("layers").at("conv1").at("bound_shares");
    EXPECT_NEAR(suite_kernel.at("compute").asNumber() +
                    suite_kernel.at("bandwidth").asNumber() +
                    suite_kernel.at("dispatch").asNumber(),
                1.0, 1e-9);

    JsonValue suite;
    ASSERT_TRUE(parseJson(rooflineSuiteToJson({r}), suite, &error))
        << error;
    EXPECT_NE(suite.at("reports").find("GCN/PyG"), nullptr);
}

TEST(MeasuredBound, MirrorsClassifyKernel)
{
    // 1 ms of compute or memory in a 1.5 ms window: the larger term.
    EXPECT_EQ(measuredBound(1e9, 1e6, 1.5e-3, kPeaks),
              BoundClass::Compute);
    EXPECT_EQ(measuredBound(1e6, 1e8, 1.5e-3, kPeaks),
              BoundClass::Bandwidth);
    // The same work in a 3 ms window runs below both roofs.
    EXPECT_EQ(measuredBound(1e9, 1e6, 3e-3, kPeaks),
              BoundClass::Dispatch);
    EXPECT_EQ(measuredBound(1e6, 1e8, 3e-3, kPeaks),
              BoundClass::Dispatch);
    // Nothing to judge: no window, or no peaks.
    EXPECT_FALSE(measuredBound(1e9, 1e6, 0.0, kPeaks));
    EXPECT_FALSE(measuredBound(1e9, 1e6, 1e-3, HostPeaks{}));
    EXPECT_STREQ(agreementVerdict(BoundClass::Compute, std::nullopt),
                 "n/a");
}

TEST(RooflineAnalyzer, MeasuredClassAndVerdictPerGroup)
{
    // Modeled classes come from the default 2080Ti, as in the
    // ClassifyKernel tests; the windows are chosen against kPeaks.
    Trace trace;
    trace.addKernel(timedKernel("gemm", 1e12, 1e3, 1.5));  // 1 s work
    trace.addKernel(timedKernel("copy", 1e3, 1e9, 15e-3)); // 10 ms work
    trace.addKernel(timedKernel("tiny", 1e3, 1e3, 1e-4));
    trace.addKernel(timedKernel("slow", 1e12, 1e3, 5.0));  // 1 s in 5 s
    RooflineAnalyzer analyzer(CostModel(), 30e-6, "timed", kPeaks);
    analyzer.addTrace(trace, {});
    const RooflineReport r = analyzer.report();
    EXPECT_NEAR(r.wall, 1.5 + 15e-3 + 1e-4 + 5.0, 1e-6);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(rooflineReportToJson(r), doc, &error))
        << error;
    const struct
    {
        const char *name, *modeled, *measured, *verdict;
    } want[] = {
        {"gemm", "compute", "compute", "agree"},
        {"copy", "bandwidth", "bandwidth", "agree"},
        {"tiny", "dispatch", "dispatch", "agree"},
        {"slow", "compute", "dispatch", "disagree"},
    };
    for (const auto &w : want) {
        const JsonValue &g = doc.at("kernels").at(w.name);
        EXPECT_EQ(g.at("bound").str, w.modeled) << w.name;
        EXPECT_EQ(g.at("measured").at("bound").str, w.measured) << w.name;
        EXPECT_EQ(g.at("measured").at("verdict").str, w.verdict)
            << w.name;
    }
    const JsonValue &m = doc.at("measured");
    EXPECT_EQ(m.at("gemm_flops_per_s").asNumber(), 1e12);
    EXPECT_EQ(m.at("triad_bytes_per_s").asNumber(), 1e11);
    const std::string table = renderRooflineKernels(r);
    EXPECT_NE(table.find("Verdict"), std::string::npos);
    EXPECT_NE(table.find("disagree"), std::string::npos);
}

TEST(RooflineJson, ModeledLeavesIgnoreTheWindows)
{
    auto report = [](double wall_scale) {
        Trace trace;
        trace.addKernel(timedKernel("gemm", 1e12, 1e3, 1.5 * wall_scale));
        trace.addKernel(timedKernel("tiny", 1e3, 1e3, 1e-4 * wall_scale));
        HostRecord h{"collate", HostOpKind::Memcpy, 1e5, 1.0,
                     Phase::DataLoading, -1};
        h.wallNs = static_cast<float>(2e6 * wall_scale);
        trace.addHost(h);
        RooflineAnalyzer analyzer(CostModel(), 30e-6, "w", kPeaks);
        analyzer.addTrace(trace, {});
        return rooflineReportToJson(analyzer.report());
    };
    const std::string zeroed = report(0.0);
    const std::string timed = report(1.0);
    EXPECT_NE(zeroed, timed);
    // Every wall-derived leaf sits in a `measured` object; without
    // them the two documents are the same bytes.
    EXPECT_EQ(withoutMeasured(zeroed), withoutMeasured(timed));
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(withoutMeasured(timed), doc, &error)) << error;
}

TEST(RooflineTables, RenderBothViews)
{
    Trace trace;
    trace.addKernel({"sgemm", 1e12, 1e3, Phase::Forward, -1});
    RooflineReport r = analyzeRoofline(trace, CostModel(), 30e-6, {},
                                       "GCN/PyG");
    const std::string table = renderRooflineTable({r});
    EXPECT_NE(table.find("GCN/PyG"), std::string::npos);
    EXPECT_NE(table.find("Util%"), std::string::npos);
    EXPECT_NE(table.find("Wall(ms)"), std::string::npos);
    const std::string kernels = renderRooflineKernels(r);
    EXPECT_NE(kernels.find("sgemm"), std::string::npos);
    EXPECT_NE(kernels.find("compute"), std::string::npos);
}

TEST(RooflineExperiment, GatedGcnEdgePathologyGap)
{
    // The paper's headline observation, machine-checked: GatedGCN
    // under DGL is slower and less utilized than under PyG, with the
    // loss concentrated in edge collation (indexed gathers + per-op
    // dispatch) rather than in roofline work.
    GraphDataset ds = makeEnzymes(/*seed=*/42, /*num_graphs=*/36);
    auto suite = runGraphRoofline(ds, {ModelKind::GatedGCN},
                                  /*epochs=*/1, /*batch_size=*/0,
                                  /*seed=*/1);
    ASSERT_EQ(suite.size(), 2u);
    const RooflineReport &pyg = suite[0];
    const RooflineReport &dgl = suite[1];
    EXPECT_EQ(pyg.label, "GatedGCN/PyG");
    EXPECT_EQ(dgl.label, "GatedGCN/DGL");

    EXPECT_GT(dgl.elapsed, pyg.elapsed * 1.2);
    EXPECT_LT(dgl.utilization(), pyg.utilization());

    // DGL's hetero-graph collation shows up as indexed_gather +
    // dispatch host ops; PyG's COO concat path has neither.
    auto hostShare = [](const RooflineReport &r, const char *name) {
        for (const auto &h : r.byHostOp) {
            if (h.name == name)
                return r.elapsed > 0.0
                           ? h.elapsedSeconds / r.elapsed : 0.0;
        }
        return 0.0;
    };
    EXPECT_GT(hostShare(dgl, "indexed_gather"), 0.0);
    EXPECT_GT(hostShare(dgl, "dispatch"), 0.0);
    EXPECT_DOUBLE_EQ(hostShare(pyg, "indexed_gather"), 0.0);

    // Every kernel group carries a bound class, and per-layer elapsed
    // shares still partition each run.
    for (const auto &r : suite) {
        std::size_t classed = 0;
        for (int c = 0; c < kNumBoundClasses; ++c)
            classed += r.total.boundLaunches[c];
        EXPECT_EQ(classed, r.total.launches);
        double layer_sum = 0.0;
        for (const auto &g : r.byLayer)
            layer_sum += g.elapsedSeconds;
        EXPECT_NEAR(layer_sum, r.elapsed, r.elapsed * 1e-9);

        // ...and a measured window and class on this host.
        EXPECT_GT(r.peaks.gemmFlopsPerSec, 0.0);
        EXPECT_GT(r.peaks.triadBytesPerSec, 0.0);
        for (const auto &g : r.byKernel) {
            EXPECT_GT(g.wallSeconds, 0.0) << g.name;
            EXPECT_TRUE(
                measuredBound(g.flops, g.bytes, g.wallSeconds, r.peaks))
                << g.name;
        }
    }
}

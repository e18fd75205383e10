/**
 * @file
 * The benchmark measures the program users run: on a small config of
 * each task, TrainingRun reproduces core::trainGraphTask /
 * trainNodeTask — the same modeled elapsed time and kernel count in
 * every epoch, the same final accuracy and the same logical peak —
 * and a traced run (timing decorator, spans, stats sampling)
 * reproduces the untraced fingerprint bit for bit.
 */

#include <gtest/gtest.h>

#include "core/trainer.hh"
#include "data/citation.hh"
#include "data/tu_dataset.hh"
#include "device/device.hh"
#include "loop.hh"
#include "obs/stats.hh"
#include "timing_backend.hh"

using namespace gnnperf;
using namespace perfbench;

namespace {

constexpr uint64_t kSeed = 4;

struct Epoch
{
    double modeled;
    std::size_t kernels;
};

struct Reference
{
    std::vector<Epoch> epochs;
    double accuracy = 0.0;
    std::size_t peak = 0;
};

EpochTraceObserver
recordEpochs(const Backend &backend, std::vector<Epoch> &out)
{
    return [&backend, &out](const Trace &trace,
                            const std::vector<std::string> &names) {
        TimelineResult t =
            Timeline::replay(trace, CostModel::defaultModel(),
                             backend.dispatchOverhead(), names);
        out.push_back({t.elapsed, t.kernelLaunches});
    };
}

struct Bench
{
    std::vector<Epoch> epochs;
    double accuracy = 0.0;
    std::size_t peak = 0;
    Fingerprint fp;
};

Bench
runBench(const WorkloadSpec &w, const Inputs &in, const Backend &backend,
         int epochs, Tracer *tracer)
{
    TrainingRun run(w, in, backend, kSeed, tracer);
    Bench b;
    for (int e = 0; e < epochs; ++e) {
        const EpochStats s = run.runEpoch();
        b.epochs.push_back({s.modeledS, s.kernels});
    }
    b.fp = run.fingerprint();
    b.accuracy = run.finalTestAccuracy();
    b.peak = DeviceManager::instance().peak(DeviceKind::Cuda);
    return b;
}

void
expectSame(const Reference &ref, const Bench &b)
{
    ASSERT_EQ(ref.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < ref.epochs.size(); ++e) {
        EXPECT_EQ(ref.epochs[e].modeled, b.epochs[e].modeled) << "epoch " << e;
        EXPECT_EQ(ref.epochs[e].kernels, b.epochs[e].kernels) << "epoch " << e;
    }
    EXPECT_EQ(ref.accuracy, b.accuracy);
    EXPECT_EQ(ref.peak, b.peak);
}

/** Untraced vs traced benchmark runs give the same fingerprint. */
void
expectTracedIdentical(const WorkloadSpec &w, const Inputs &in,
                      const Backend &backend, int epochs,
                      const Fingerprint &untraced)
{
    Tracer tracer;
    TimingBackend timed(backend, tracer);
    stats::setSamplingEnabled(true);
    const Bench traced = runBench(w, in, timed, epochs, &tracer);
    stats::setSamplingEnabled(false);
    EXPECT_EQ(untraced, traced.fp)
        << untraced.str() << " vs " << traced.fp.str();
    EXPECT_FALSE(tracer.spans().empty());
}

} // namespace

TEST(LoopEquivalence, GraphTask)
{
    const int epochs = 3;
    struct Case
    {
        WorkloadSpec spec;
        GraphDataset ds;
    };
    std::vector<Case> cases;
    cases.push_back({{"enzymes_small", "", DatasetKind::Enzymes,
                      ModelKind::GatedGCN, 60, 0, 16, 1.0, 1},
                     makeEnzymes(kSeed, 60)});
    cases.push_back({{"dd_small", "", DatasetKind::DD, ModelKind::GAT, 30,
                      60, 8, 1.0, 1},
                     makeDD(kSeed, 30, 60)});
    for (Case &c : cases) {
        Inputs in;
        in.graphs = c.ds;
        in.fold = stratifiedKFold(in.graphs.labels(), 10, kSeed).front();
        for (FrameworkKind fw : allFrameworks()) {
            SCOPED_TRACE(std::string(c.spec.name) + "/" + frameworkName(fw));
            const Backend &backend = getBackend(fw);
            Reference ref;
            TrainOptions opts;
            opts.maxEpochs = epochs;
            opts.batchSize = c.spec.batchSize;
            opts.seed = kSeed;
            opts.traceObserver = recordEpochs(backend, ref.epochs);
            GraphTrainResult r = trainGraphTask(c.spec.model, backend,
                                                in.graphs, in.fold, opts);
            ref.accuracy = r.testAccuracy;
            ref.peak = r.profile.peakMemoryBytes;

            const Bench b = runBench(c.spec, in, backend, epochs, nullptr);
            expectSame(ref, b);
            expectTracedIdentical(c.spec, in, backend, epochs, b.fp);
        }
    }
}

TEST(LoopEquivalence, NodeTask)
{
    const int epochs = 4;
    CitationConfig cfg;
    cfg.numNodes = 300;
    cfg.numUndirectedEdges = 600;
    cfg.numFeatures = 60;
    cfg.numClasses = 4;
    cfg.trainPerClass = 10;
    cfg.valCount = 60;
    cfg.testCount = 100;
    cfg.seed = kSeed;
    Inputs in;
    in.node = makeCitation(cfg);
    const WorkloadSpec spec{"cora_small", "", DatasetKind::Cora,
                            ModelKind::GCN, 0, 0, 0, 1.0, 1};
    for (FrameworkKind fw : allFrameworks()) {
        SCOPED_TRACE(frameworkName(fw));
        const Backend &backend = getBackend(fw);
        Reference ref;
        TrainOptions opts;
        opts.maxEpochs = epochs;
        opts.seed = kSeed;
        opts.traceObserver = recordEpochs(backend, ref.epochs);
        NodeTrainResult r = trainNodeTask(spec.model, backend, in.node, opts);
        ASSERT_EQ(r.epochsRun, epochs);  // no early stop in this window
        ref.accuracy = r.testAccuracy;
        ref.peak = r.profile.peakMemoryBytes;

        const Bench b = runBench(spec, in, backend, epochs, nullptr);
        expectSame(ref, b);
        expectTracedIdentical(spec, in, backend, epochs, b.fp);
    }
}

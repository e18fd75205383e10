#include "core/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "autograd/functions.hh"
#include "common/logging.hh"
#include "device/multi_gpu.hh"
#include "device/profiler.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "parallel/thread_pool.hh"
#include "tensor/matmul.hh"

namespace gnnperf {

std::vector<NodeExperimentRow>
runNodeClassification(const NodeDataset &dataset,
                      const std::vector<ModelKind> &models, int seeds,
                      int max_epochs, bool verbose)
{
    std::vector<NodeExperimentRow> rows;
    for (ModelKind kind : models) {
        for (FrameworkKind fw : allFrameworks()) {
            NodeExperimentRow row;
            row.model = kind;
            row.framework = fw;
            std::vector<double> accs;
            double epoch_sum = 0.0, total_sum = 0.0;
            for (int s = 0; s < seeds; ++s) {
                TrainOptions opts;
                opts.maxEpochs = max_epochs;
                opts.seed = 1000 + static_cast<uint64_t>(s);
                opts.verbose = verbose;
                NodeTrainResult r = trainNodeTask(
                    kind, getBackend(fw), dataset, opts);
                accs.push_back(r.testAccuracy);
                epoch_sum += r.epochTime;
                total_sum += r.totalTime;
                row.epochsRun = r.epochsRun;
            }
            row.accuracy = computeStats(accs);
            row.epochTime = epoch_sum / std::max(seeds, 1);
            row.totalTime = total_sum / std::max(seeds, 1);
            rows.push_back(row);
            gnnperf_inform(dataset.name, " ", modelName(kind), "/",
                           frameworkName(fw), ": epoch ",
                           row.epochTime, "s acc ",
                           row.accuracy.mean * 100.0);
        }
    }
    return rows;
}

std::vector<GraphExperimentRow>
runGraphClassification(const GraphDataset &dataset,
                       const std::vector<ModelKind> &models, int folds,
                       int max_epochs, uint64_t seed, bool verbose)
{
    // Paper §IV-B.1: always a 10-fold geometry with fixed indices,
    // reused across all experiments for fair comparisons. Smoke-scale
    // runs simply evaluate fewer of the ten folds.
    std::vector<FoldSplit> splits =
        stratifiedKFold(dataset.labels(), 10, seed);
    folds = std::min<int>(folds, 10);

    std::vector<GraphExperimentRow> rows;
    for (ModelKind kind : models) {
        for (FrameworkKind fw : allFrameworks()) {
            GraphExperimentRow row;
            row.model = kind;
            row.framework = fw;
            std::vector<double> accs;
            double epoch_sum = 0.0, total_sum = 0.0;
            for (int f = 0; f < folds; ++f) {
                TrainOptions opts;
                opts.maxEpochs = max_epochs;
                opts.seed = seed + static_cast<uint64_t>(f);
                opts.verbose = verbose;
                GraphTrainResult r = trainGraphTask(
                    kind, getBackend(fw), dataset,
                    splits[static_cast<std::size_t>(f)], opts);
                accs.push_back(r.testAccuracy);
                epoch_sum += r.epochTime;
                total_sum += r.totalTime;
                row.epochsRun = r.epochsRun;
            }
            row.accuracy = computeStats(accs);
            row.epochTime = epoch_sum / std::max(folds, 1);
            row.totalTime = total_sum / std::max(folds, 1);
            rows.push_back(row);
            gnnperf_inform(dataset.name, " ", modelName(kind), "/",
                           frameworkName(fw), ": epoch ",
                           row.epochTime, "s acc ",
                           row.accuracy.mean * 100.0);
        }
    }
    return rows;
}

std::vector<ProfileCell>
runProfileGrid(const GraphDataset &dataset,
               const std::vector<ModelKind> &models,
               const std::vector<int64_t> &batch_sizes, int epochs,
               uint64_t seed)
{
    std::vector<FoldSplit> splits =
        stratifiedKFold(dataset.labels(), 10, seed);
    const FoldSplit &fold = splits.front();

    std::vector<ProfileCell> cells;
    for (ModelKind kind : models) {
        for (FrameworkKind fw : allFrameworks()) {
            for (int64_t bs : batch_sizes) {
                ProfileCell cell;
                cell.model = kind;
                cell.framework = fw;
                cell.batchSize = bs;
                cell.profile = profileGraphTask(
                    kind, getBackend(fw), dataset, fold, epochs, bs,
                    seed);
                cells.push_back(cell);
            }
        }
    }
    return cells;
}

std::vector<ProfileCell>
runLayerwiseProfile(const GraphDataset &dataset,
                    const std::vector<ModelKind> &models,
                    int64_t batch_size, int epochs, uint64_t seed)
{
    std::vector<FoldSplit> splits =
        stratifiedKFold(dataset.labels(), 10, seed);
    const FoldSplit &fold = splits.front();

    std::vector<ProfileCell> cells;
    for (ModelKind kind : models) {
        for (FrameworkKind fw : allFrameworks()) {
            ProfileCell cell;
            cell.model = kind;
            cell.framework = fw;
            cell.batchSize = batch_size;
            cell.profile = profileGraphTask(kind, getBackend(fw),
                                            dataset, fold, epochs,
                                            batch_size, seed);
            cells.push_back(cell);
        }
    }
    return cells;
}

namespace {

/** Best-of-`reps` wall seconds of fn(). */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (i == 0 || s < best)
            best = s;
    }
    return best;
}

HostPeaks
measureHostPeaks()
{
    HostPeaks peaks;
    // GatedGCN's hidden layer on a full ENZYMES batch of 128 graphs
    // (bench_kernels_micro's `gatedgcn` shape).
    const int64_t n = 4334, k = 96, m = 96;
    Tensor a({n, k}, DeviceKind::Host);
    Tensor b({k, m}, DeviceKind::Host);
    std::fill(a.data(), a.data() + a.numel(), 0.5f);
    std::fill(b.data(), b.data() + b.numel(), 0.25f);
    const double gemm_s = bestSeconds(5, [&] {
        ops::gemm::run(ops::gemm::Op::NN, a, b, ops::gemm::selected());
    });
    peaks.gemmFlopsPerSec = 2.0 * static_cast<double>(n * k * m) / gemm_s;

    // 16 MB per array: past every core's private cache.
    const int64_t len = int64_t{1} << 22;
    std::vector<float> x(static_cast<std::size_t>(len), 1.0f);
    std::vector<float> y(static_cast<std::size_t>(len), 2.0f);
    std::vector<float> z(static_cast<std::size_t>(len), 0.0f);
    const float *px = x.data();
    const float *py = y.data();
    float *pz = z.data();
    const double triad_s = bestSeconds(5, [&] {
        par::parallelFor("par.triad", 0, len, par::grainFor(len, 1),
                         [&](int64_t i0, int64_t i1, int) {
                             for (int64_t i = i0; i < i1; ++i)
                                 pz[i] = px[i] + 3.0f * py[i];
                         });
    });
    peaks.triadBytesPerSec =
        3.0 * static_cast<double>(len) * sizeof(float) / triad_s;
    return peaks;
}

} // namespace

HostPeaks
hostPeaks()
{
    static const HostPeaks peaks = measureHostPeaks();
    return peaks;
}

std::vector<RooflineReport>
runGraphRoofline(const GraphDataset &dataset,
                 const std::vector<ModelKind> &models, int epochs,
                 int64_t batch_size, uint64_t seed)
{
    // Before training resets the allocator peaks.
    const HostPeaks peaks = hostPeaks();
    std::vector<FoldSplit> splits =
        stratifiedKFold(dataset.labels(), 10, seed);
    const FoldSplit &fold = splits.front();

    std::vector<RooflineReport> suite;
    for (ModelKind kind : models) {
        for (FrameworkKind fw : allFrameworks()) {
            const Backend &backend = getBackend(fw);
            RooflineAnalyzer analyzer(
                CostModel::defaultModel(), backend.dispatchOverhead(),
                std::string(modelName(kind)) + "/" +
                    frameworkName(fw),
                peaks);
            TrainOptions opts;
            opts.maxEpochs = epochs;
            opts.batchSize = batch_size;
            opts.seed = seed;
            opts.traceObserver =
                [&analyzer](const Trace &trace,
                            const std::vector<std::string> &names) {
                    analyzer.addTrace(trace, names);
                };
            trainGraphTask(kind, backend, dataset, fold, opts);
            suite.push_back(analyzer.report());
        }
    }
    return suite;
}

std::vector<RooflineReport>
runNodeRoofline(const NodeDataset &dataset,
                const std::vector<ModelKind> &models, int epochs,
                uint64_t seed)
{
    const HostPeaks peaks = hostPeaks();
    std::vector<RooflineReport> suite;
    for (ModelKind kind : models) {
        for (FrameworkKind fw : allFrameworks()) {
            const Backend &backend = getBackend(fw);
            RooflineAnalyzer analyzer(
                CostModel::defaultModel(), backend.dispatchOverhead(),
                std::string(modelName(kind)) + "/" +
                    frameworkName(fw),
                peaks);
            TrainOptions opts;
            opts.maxEpochs = epochs;
            opts.seed = seed;
            opts.traceObserver =
                [&analyzer](const Trace &trace,
                            const std::vector<std::string> &names) {
                    analyzer.addTrace(trace, names);
                };
            trainNodeTask(kind, backend, dataset, opts);
            suite.push_back(analyzer.report());
        }
    }
    return suite;
}

namespace {

/**
 * Measure the DataParallel model inputs for one (model, framework,
 * batch size) configuration by really executing a shard-sized
 * iteration and a full-batch collation.
 */
DataParallelParams
measureDataParallel(ModelKind kind, const Backend &backend,
                    const GraphDataset &dataset,
                    const std::vector<int64_t> &train_idx,
                    int64_t batch_size, int gpus, uint64_t seed)
{
    Profiler &prof = Profiler::instance();
    prof.reset();
    prof.setEnabled(true);

    Hyperparameters hp = graphTaskHyperparameters(
        kind, dataset.numFeatures, dataset.numClasses, seed);
    auto model = makeModel(kind, backend, hp.model);
    nn::Adam optimizer(model->parameters(), hp.train.lr);

    DataParallelParams p;
    p.numGpus = gpus;
    p.paramBytes = model->parameterBytes();

    // (1) Full-batch collation cost (host side, serial).
    {
        std::vector<const Graph *> members;
        for (int64_t i = 0;
             i < batch_size &&
             i < static_cast<int64_t>(train_idx.size()); ++i) {
            members.push_back(&dataset.graphs[static_cast<std::size_t>(
                train_idx[static_cast<std::size_t>(i)])]);
        }
        PhaseScope phase(Phase::DataLoading);
        BatchedGraph full = backend.collate(members);
        TimelineResult t = Timeline::replay(
            prof.trace(), CostModel::defaultModel(),
            backend.dispatchOverhead(), prof.layerNames());
        p.collateTime = t.phaseElapsed[Phase::DataLoading];
        prof.clearTrace();
    }

    // (2) One shard-sized training iteration, really executed.
    const int64_t shard_graphs =
        std::max<int64_t>(batch_size / gpus, 1);
    std::vector<const Graph *> members;
    for (int64_t i = 0;
         i < shard_graphs &&
         i < static_cast<int64_t>(train_idx.size()); ++i) {
        members.push_back(&dataset.graphs[static_cast<std::size_t>(
            train_idx[static_cast<std::size_t>(i)])]);
    }
    BatchedGraph shard = backend.collate(members);
    prof.clearTrace();  // collation of the shard is not compute time
    p.shardInputBytes =
        shard.featureBytes() +
        static_cast<double>(shard.numEdges()) * 2.0 * sizeof(int64_t);
    p.shardOutputBytes = static_cast<double>(shard.numGraphs) *
                         static_cast<double>(dataset.numClasses) *
                         sizeof(float);

    {
        Var logits;
        {
            PhaseScope phase(Phase::Forward);
            logits = model->forward(shard);
        }
        Var loss;
        {
            PhaseScope phase(Phase::Other);
            loss = nn::crossEntropy(logits, shard.graphLabels);
        }
        {
            PhaseScope phase(Phase::Backward);
            model->zeroGrad();
            loss.backward();
        }
        {
            PhaseScope phase(Phase::Update);
            optimizer.step();
        }
    }
    TimelineResult t = Timeline::replay(prof.trace(),
                                        CostModel::defaultModel(),
                                        backend.dispatchOverhead(),
                                        prof.layerNames());
    prof.clearTrace();
    p.shardComputeElapsed = t.phaseElapsed[Phase::Forward] +
                            t.phaseElapsed[Phase::Backward] +
                            t.phaseElapsed[Phase::Other];
    const std::size_t compute_kernels =
        t.phaseKernels[static_cast<int>(Phase::Forward)] +
        t.phaseKernels[static_cast<int>(Phase::Backward)] +
        t.phaseKernels[static_cast<int>(Phase::Other)];
    p.shardDispatchTime = static_cast<double>(compute_kernels) *
                          backend.dispatchOverhead();
    p.updateTime = t.phaseElapsed[Phase::Update];
    return p;
}

} // namespace

std::vector<MultiGpuCell>
runMultiGpuScaling(const GraphDataset &dataset,
                   const std::vector<ModelKind> &models,
                   const std::vector<int64_t> &batch_sizes,
                   const std::vector<int> &gpu_counts, uint64_t seed)
{
    FoldSplit split = stratifiedSplit(dataset.labels(), 0.8, 0.1,
                                      seed);
    std::vector<MultiGpuCell> cells;
    for (ModelKind kind : models) {
        for (FrameworkKind fw : allFrameworks()) {
            for (int64_t bs : batch_sizes) {
                for (int gpus : gpu_counts) {
                    DataParallelParams p = measureDataParallel(
                        kind, getBackend(fw), dataset, split.train, bs,
                        gpus, seed);
                    const double iterations = std::ceil(
                        static_cast<double>(split.train.size()) /
                        static_cast<double>(bs));
                    MultiGpuCell cell;
                    cell.model = kind;
                    cell.framework = fw;
                    cell.batchSize = bs;
                    cell.gpus = gpus;
                    cell.epochTime =
                        iterations *
                        DataParallelModel::iterationTime(
                            p, CostModel::defaultModel());
                    cells.push_back(cell);
                    gnnperf_inform("MNIST ", modelName(kind), "/",
                                   frameworkName(fw), " bs=", bs,
                                   " gpus=", gpus, ": ",
                                   cell.epochTime, " s/epoch");
                }
            }
        }
    }
    return cells;
}

} // namespace gnnperf

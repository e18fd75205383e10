/**
 * @file
 * Microbenchmarks (google-benchmark) for the framework-differentiated
 * kernels — the ablations behind the paper's §IV-C analysis:
 *
 *  - PyG gather+scatter aggregation vs DGL fused GSpMM
 *  - PyG Batch.from_data_list collation vs DGL heterograph collation
 *  - PyG scatter-based pooling vs DGL segment reduction
 *  - PyG composed edge softmax vs DGL fused edge softmax
 *  - the dense GEMM's three transposes at the workload shapes, and its
 *    dense vs zero-skip kernels across sparse-input densities
 *
 * These measure REAL CPU time of our implementations (not the
 * simulated-GPU times the table benches report); they justify the
 * relative op counts/bytes that drive the timing model.
 *
 * After the google-benchmark suite, a thread-scaling pass times the
 * hot kernels at 1/2/4/hw pool widths (src/parallel/), asserts each
 * width's output is byte-identical to the single-thread run, and emits
 * the results as `threads.<kernel>.t<N>.{ms,speedup_x,match_t1}`
 * series into the BENCH baseline (GNNPERF_CSV_DIR →
 * BENCH_kernels_micro.json) so `gnnperf_diff` can gate the
 * deterministic match_t1 bits. Wall-clock ms/speedup values are
 * machine-dependent; gate them only with generous thresholds.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "autograd/functions.hh"
#include "backends/backend.hh"
#include "bench_common.hh"
#include "common/random.hh"
#include "data/tu_dataset.hh"
#include "device/device.hh"
#include "device/profiler.hh"
#include "graph/edge_softmax.hh"
#include "graph/scatter.hh"
#include "graph/segment.hh"
#include "graph/spmm.hh"
#include "parallel/thread_pool.hh"
#include "tensor/init.hh"
#include "tensor/matmul.hh"
#include "tensor/ops.hh"

namespace {

using namespace gnnperf;

/** A reusable collated batch fixture. */
struct BatchFixture
{
    GraphDataset dataset;
    BatchedGraph batch;
    Tensor features;

    BatchFixture(int64_t graphs, int64_t feat, FrameworkKind fw)
        : dataset(makeEnzymes(3, graphs))
    {
        std::vector<const Graph *> members;
        for (const Graph &g : dataset.graphs)
            members.push_back(&g);
        batch = getBackend(fw).collate(members);
        Rng rng(5);
        features = init::normal({batch.numNodes, feat}, 0.0f, 1.0f,
                                rng);
        batch.ensureInIndex();
        batch.ensureOutIndex();
    }
};

void
BM_AggregatePygScatter(benchmark::State &state)
{
    BatchFixture fix(64, state.range(0), FrameworkKind::PyG);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        Var out = backend.aggregate(fix.batch, Var(fix.features),
                                    Reduce::Sum);
        benchmark::DoNotOptimize(out.value().data());
    }
    state.SetItemsProcessed(state.iterations() * fix.batch.numEdges());
}
BENCHMARK(BM_AggregatePygScatter)->Arg(32)->Arg(128);

void
BM_AggregateDglGspmm(benchmark::State &state)
{
    BatchFixture fix(64, state.range(0), FrameworkKind::DGL);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        Var out = backend.aggregate(fix.batch, Var(fix.features),
                                    Reduce::Sum);
        benchmark::DoNotOptimize(out.value().data());
    }
    state.SetItemsProcessed(state.iterations() * fix.batch.numEdges());
}
BENCHMARK(BM_AggregateDglGspmm)->Arg(32)->Arg(128);

void
BM_CollatePyg(benchmark::State &state)
{
    GraphDataset ds = makeEnzymes(3, state.range(0));
    std::vector<const Graph *> members;
    for (const Graph &g : ds.graphs)
        members.push_back(&g);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        BatchedGraph batch = backend.collate(members);
        benchmark::DoNotOptimize(batch.numNodes);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollatePyg)->Arg(64)->Arg(128);

void
BM_CollateDgl(benchmark::State &state)
{
    GraphDataset ds = makeEnzymes(3, state.range(0));
    std::vector<const Graph *> members;
    for (const Graph &g : ds.graphs)
        members.push_back(&g);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        BatchedGraph batch = backend.collate(members);
        benchmark::DoNotOptimize(batch.numNodes);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollateDgl)->Arg(64)->Arg(128);

void
BM_ReadoutPygScatterPool(benchmark::State &state)
{
    BatchFixture fix(128, 64, FrameworkKind::PyG);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        Var out = backend.readoutMean(fix.batch, Var(fix.features));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_ReadoutPygScatterPool);

void
BM_ReadoutDglSegment(benchmark::State &state)
{
    BatchFixture fix(128, 64, FrameworkKind::DGL);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        Var out = backend.readoutMean(fix.batch, Var(fix.features));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_ReadoutDglSegment);

void
BM_EdgeSoftmaxPygComposed(benchmark::State &state)
{
    BatchFixture fix(64, 8, FrameworkKind::PyG);
    Rng rng(9);
    Tensor logits = init::normal({fix.batch.numEdges(), 8}, 0.0f, 1.0f,
                                 rng);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        Var out = backend.edgeSoftmax(fix.batch, Var(logits));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_EdgeSoftmaxPygComposed);

void
BM_EdgeSoftmaxDglFused(benchmark::State &state)
{
    BatchFixture fix(64, 8, FrameworkKind::DGL);
    Rng rng(9);
    Tensor logits = init::normal({fix.batch.numEdges(), 8}, 0.0f, 1.0f,
                                 rng);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        Var out = backend.edgeSoftmax(fix.batch, Var(logits));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_EdgeSoftmaxDglFused);

/**
 * Allocator ablation: the same aggregation kernel loop under the
 * direct and the caching allocator. The loop's intermediates churn
 * through the allocator every iteration, so the caching pool turns
 * almost all backing (device) allocations into cache hits while the
 * logical bytes stay identical.
 */
void
BM_AggregateAllocator(benchmark::State &state, AllocatorKind which)
{
    DeviceManager &dm = DeviceManager::instance();
    const AllocatorKind saved = dm.allocatorKind(DeviceKind::Cuda);
    dm.setAllocator(which);
    dm.emptyCaches();
    {
        BatchFixture fix(64, 64, FrameworkKind::PyG);
        Backend &backend = getBackend(FrameworkKind::PyG);
        const MemoryStats &s = dm.stats(DeviceKind::Cuda);
        const std::size_t allocs0 = s.allocCount;
        const std::size_t hits0 = s.cacheHits;
        const std::size_t acquires0 = s.acquireCount;
        for (auto _ : state) {
            Var out = backend.aggregate(fix.batch, Var(fix.features),
                                        Reduce::Sum);
            benchmark::DoNotOptimize(out.value().data());
        }
        const auto iters = static_cast<double>(state.iterations());
        state.counters["device_allocs_per_iter"] =
            static_cast<double>(s.allocCount - allocs0) / iters;
        state.counters["cache_hits_per_iter"] =
            static_cast<double>(s.cacheHits - hits0) / iters;
        state.counters["acquires_per_iter"] =
            static_cast<double>(s.acquireCount - acquires0) / iters;
    }
    dm.emptyCaches();
    dm.setAllocator(saved);
}
BENCHMARK_CAPTURE(BM_AggregateAllocator, direct,
                  AllocatorKind::Direct);
BENCHMARK_CAPTURE(BM_AggregateAllocator, caching,
                  AllocatorKind::Caching);

/** A GEMM at a workload's forward shape X[n,k] · W[k,m]. */
struct SgemmShape
{
    const char *name;
    int64_t n, k, m;
    double density;  ///< share of nonzero X entries
};

const SgemmShape kCoraLayer1 = {"cora_l1", 2708, 1433, 80, 0.058};

const SgemmShape kSgemmShapes[] = {
    {"gatedgcn", 4334, 96, 96, 1.0},
    {"gat", 2734, 256, 256, 1.0},
    {"gat_readout", 16, 256, 128, 1.0},
    kCoraLayer1,
    {"cora_l2", 2708, 80, 7, 0.5},
};

/**
 * One transpose of `shape` — NN is the forward X·W, TN the weight
 * gradient Xᵀ·dY, NT the input gradient dY·Wᵀ with dY as sparse as X —
 * on a forced SIMD build and path, at pool width 1 so the time is one
 * core's.
 */
void
BM_Sgemm(benchmark::State &state, ops::gemm::Op op, SgemmShape shape,
         ops::gemm::Path path, ops::gemm::Isa isa)
{
    using ops::gemm::Op;
    par::ThreadScope single(1);
    Rng rng(4);
    auto sparse = [&](int64_t rows, int64_t cols) {
        Tensor t = Tensor::zeros({rows, cols});
        for (int64_t i = 0; i < t.numel(); ++i)
            if (rng.bernoulli(shape.density))
                t.data()[i] = static_cast<float>(rng.normal());
        return t;
    };
    const Tensor a = op == Op::NT ? sparse(shape.n, shape.m)
                                  : sparse(shape.n, shape.k);
    const Tensor b =
        op == Op::NN ? init::normal({shape.k, shape.m}, 0.0f, 1.0f, rng)
        : op == Op::TN
            ? init::normal({shape.n, shape.m}, 0.0f, 1.0f, rng)
            : init::normal({shape.k, shape.m}, 0.0f, 1.0f, rng);
    for (auto _ : state) {
        Tensor c = ops::gemm::run(op, a, b, isa, path);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 2 * shape.n * shape.k *
                            shape.m);
    state.SetLabel(ops::gemm::isaName(isa));
}

/**
 * BM_Sgemm/<op>/<shape>/auto for every workload shape on the selected
 * build, and BM_Sgemm/<op>/<shape>/auto/<isa> on each other SIMD build
 * the CPU runs (a build that only an older CPU would select is still
 * timed here); then the dense and zero-skip kernels on Cora's layer-1
 * NN and TN across densities — the sweep behind the GEMM's dense/skip
 * density threshold.
 */
void
registerSgemm()
{
    using ops::gemm::Isa;
    using ops::gemm::Op;
    using ops::gemm::Path;
    const std::pair<Op, const char *> opsByName[] = {
        {Op::NN, "nn"}, {Op::TN, "tn"}, {Op::NT, "nt"}};
    const Isa selected = ops::gemm::selected();
    for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
        if (!ops::gemm::supported(isa))
            continue;
        const std::string suffix =
            isa == selected ? "" : std::string("/") + ops::gemm::isaName(isa);
        for (const SgemmShape &shape : kSgemmShapes)
            for (const auto &[op, opName] : opsByName)
                benchmark::RegisterBenchmark(
                    (std::string("BM_Sgemm/") + opName + "/" + shape.name +
                     "/auto" + suffix)
                        .c_str(),
                    BM_Sgemm, op, shape, Path::Auto, isa)
                    ->Unit(benchmark::kMillisecond);
    }
    for (double density : {0.013, 0.058, 0.1, 0.2, 0.3, 0.5})
        for (Op op : {Op::NN, Op::TN})
            for (const auto &[path, pathName] :
                 {std::pair{Path::Dense, "dense"},
                  std::pair{Path::Skip, "skip"}}) {
                SgemmShape shape = kCoraLayer1;
                shape.density = density;
                char name[96];
                std::snprintf(name, sizeof name,
                              "BM_Sgemm/%s/cora_l1_d%.3f/%s",
                              op == Op::NN ? "nn" : "tn", density,
                              pathName);
                benchmark::RegisterBenchmark(name, BM_Sgemm, op, shape,
                                             path, selected)
                    ->Unit(benchmark::kMillisecond);
            }
}

/**
 * Thread-scaling series: per kernel, wall-clock best-of-5 at each pool
 * width plus a byte-identity bit against the single-thread output.
 */
void
runThreadScaling(bench::Baseline &base)
{
    std::printf("\nthread scaling (best-of-5 wall ms per width)\n");
    BatchFixture fix(64, 64, FrameworkKind::DGL);
    const CsrIndex &in = *fix.batch.inIndex;
    Rng rng(11);
    const Tensor ga = init::normal({256, 256}, 0.0f, 1.0f, rng);
    const Tensor gb = init::normal({256, 256}, 0.0f, 1.0f, rng);
    const Tensor logits =
        init::normal({fix.batch.numEdges(), 8}, 0.0f, 1.0f, rng);

    struct ScaleKernel
    {
        const char *name;
        std::function<Tensor()> run;
    };
    const std::vector<ScaleKernel> kernels = {
        {"spmm", [&] { return graphops::spmmCopyUSum(in, fix.features); }},
        {"gemm", [&] { return ops::matmul(ga, gb); }},
        {"edge_softmax",
         [&] { return graphops::edgeSoftmaxFused(in, logits); }},
        {"segment_sum",
         [&] {
             return graphops::segmentSum(fix.features,
                                         fix.batch.graphPtr);
         }},
        {"scatter_add",
         [&] {
             return ops::scatterAddRows(fix.features, fix.batch.nodeGraph,
                                        fix.batch.numGraphs);
         }},
        {"relu", [&] { return ops::relu(fix.features); }},
    };

    std::vector<int> widths = {1, 2, 4,
                               par::ThreadPool::defaultThreads()};
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()),
                 widths.end());

    auto bestMs = [](const std::function<Tensor()> &run) {
        double best = 1e300;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            Tensor out = run();
            const auto t1 = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(out.data());
            best = std::min(
                best, std::chrono::duration<double, std::milli>(t1 - t0)
                          .count());
        }
        return best;
    };

    for (const auto &k : kernels) {
        Tensor ref;
        double t1_ms = 0.0;
        {
            par::ThreadScope scope(1);
            ref = k.run(); // warm-up + reference output
            t1_ms = bestMs(k.run);
        }
        for (int w : widths) {
            par::ThreadScope scope(w);
            Tensor out = k.run(); // warm-up + identity check
            const bool match =
                out.numel() == ref.numel() &&
                std::memcmp(out.data(), ref.data(),
                            static_cast<std::size_t>(out.numel()) *
                                sizeof(float)) == 0;
            const double ms = bestMs(k.run);
            const std::string key =
                std::string("threads.") + k.name + ".t" +
                std::to_string(w);
            base.add(key + ".ms", ms);
            base.add(key + ".speedup_x", ms > 0.0 ? t1_ms / ms : 0.0);
            base.add(key + ".match_t1", match ? 1.0 : 0.0);
            std::printf("  %-14s t%-2d %8.3f ms  %5.2fx  %s\n", k.name,
                        w, ms, ms > 0.0 ? t1_ms / ms : 0.0,
                        match ? "bitwise==t1" : "MISMATCH");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::StatsScope stats("kernels_micro");
    bench::Baseline baseline("kernels_micro");
    registerSgemm();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    runThreadScaling(baseline);
    return 0;
}

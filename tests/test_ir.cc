/**
 * @file
 * Recorded op-graph IR tests (src/ir): eager-vs-graph bit-identity on
 * primitive chains, backward gradients, and the full model × backend
 * grid at serial and parallel thread widths; fusion counters and
 * graph-mode reserved peak; pending-shape queries; write-set coverage of fused
 * launches under GNNPERF_CHECKS=1.
 */

#include <gtest/gtest.h>

#include <vector>

#include "autograd/functions.hh"
#include "backends/backend.hh"
#include "common/checks.hh"
#include "core/config.hh"
#include "data/tu_dataset.hh"
#include "device/allocator.hh"
#include "ir/ir.hh"
#include "models/model_factory.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "parallel/thread_pool.hh"
#include "tensor/ops.hh"

using namespace gnnperf;

namespace {

/** RAII mode switch: tests always restore eager. */
class ModeScope
{
  public:
    explicit ModeScope(ir::IrMode m) { ir::setMode(m); }
    ~ModeScope() { ir::setMode(ir::IrMode::Eager); }
};

Tensor
seqTensor(int64_t rows, int64_t cols, float scale = 0.01f)
{
    Tensor t({rows, cols}, DeviceKind::Cuda);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.set(i, scale * static_cast<float>(i % 97) - 0.3f);
    return t;
}

GraphDataset &
tinyDataset()
{
    static GraphDataset ds = makeEnzymes(21, 12);
    return ds;
}

BatchedGraph
tinyBatch(FrameworkKind fw)
{
    std::vector<const Graph *> graphs;
    for (const Graph &g : tinyDataset().graphs)
        graphs.push_back(&g);
    return getBackend(fw).collate(graphs);
}

ModelConfig
gridConfig(uint64_t seed = 7)
{
    ModelConfig cfg;
    cfg.inFeatures = 18;
    cfg.hidden = 16;
    cfg.numClasses = 6;
    cfg.numLayers = 2;
    cfg.heads = 4;
    cfg.kernels = 2;
    cfg.graphTask = true;
    cfg.batchNorm = true;
    cfg.residual = true;
    cfg.seed = seed;
    return cfg;
}

/**
 * A gather → elementwise → scatter-add chain over Vars, the shape the
 * fusion pass is built to collapse. Returns the scalar-summed result
 * so both forward and backward are exercised.
 */
Var
gatherEwScatterChain(Var &x, const std::vector<int64_t> &src,
                     const std::vector<int64_t> &dst, int64_t num_rows)
{
    Var hsrc = fn::gatherRows(x, src);
    Var hdst = fn::gatherRows(x, dst);
    Var gate = fn::sigmoid(fn::add(hsrc, hdst));
    Var msg = fn::mul(gate, fn::scale(hsrc, 0.5f));
    Var agg = fn::scatterAddRows(msg, dst, num_rows);
    return fn::relu(agg);
}

/** One forward of the chain in the given mode; returns the values. */
std::vector<float>
runChain(ir::IrMode m, int threads, Tensor *grad_out = nullptr)
{
    ModeScope mode(m);
    par::ThreadScope width(threads);
    const int64_t n = 13, f = 5;
    std::vector<int64_t> src, dst;
    for (int64_t e = 0; e < 4 * n; ++e) {
        src.push_back((e * 7 + 3) % n);
        dst.push_back((e * 5 + 1) % n);
    }
    Var x(seqTensor(n, f), /*requires_grad=*/true);
    Tensor out;
    {
        ir::IterationScope iteration;
        Var y = gatherEwScatterChain(x, src, dst, n);
        Var loss = fn::sumAll(y);
        x.zeroGrad();
        loss.backward();
        out = y.value();
    }
    if (grad_out)
        *grad_out = x.grad();
    return out.toVector();
}

} // namespace

TEST(IrMode, ParsesAndDefaults)
{
    EXPECT_EQ(ir::modeFromString("eager"), ir::IrMode::Eager);
    EXPECT_EQ(ir::modeFromString("graph"), ir::IrMode::Graph);
}

TEST(IrRecord, ChainBitIdenticalToEagerSerial)
{
    std::vector<float> eager = runChain(ir::IrMode::Eager, 1);
    std::vector<float> graph = runChain(ir::IrMode::Graph, 1);
    ASSERT_EQ(eager.size(), graph.size());
    for (std::size_t i = 0; i < eager.size(); ++i)
        ASSERT_EQ(eager[i], graph[i]) << "element " << i;
}

TEST(IrRecord, ChainBitIdenticalToEagerParallel)
{
    std::vector<float> eager = runChain(ir::IrMode::Eager, 4);
    std::vector<float> graph = runChain(ir::IrMode::Graph, 4);
    ASSERT_EQ(eager.size(), graph.size());
    for (std::size_t i = 0; i < eager.size(); ++i)
        ASSERT_EQ(eager[i], graph[i]) << "element " << i;
}

TEST(IrRecord, BackwardGradientsBitIdentical)
{
    Tensor ge, gg;
    runChain(ir::IrMode::Eager, 4, &ge);
    runChain(ir::IrMode::Graph, 4, &gg);
    ASSERT_EQ(ge.numel(), gg.numel());
    for (int64_t i = 0; i < ge.numel(); ++i)
        ASSERT_EQ(ge.at(i), gg.at(i)) << "grad element " << i;
}

TEST(IrRecord, FusionCollapsesLaunches)
{
    const ir::IrCounters before = ir::counters();
    runChain(ir::IrMode::Graph, 1);
    const ir::IrCounters after = ir::counters();
    // The chain records 8 ops (2 gathers, add, sigmoid, scale, mul,
    // scatter, relu); the whole edge-domain run plus the trailing
    // node-domain relu must collapse into far fewer launches.
    EXPECT_GE(after.recordedOps - before.recordedOps, 8u);
    EXPECT_GT(after.fusedLaunches, before.fusedLaunches);
    EXPECT_GE(after.launchesSaved - before.launchesSaved, 5u);
}

TEST(IrRecord, PendingShapeQueriesDoNotFlush)
{
    ModeScope mode(ir::IrMode::Graph);
    Var x(seqTensor(6, 3), true);
    ir::IterationScope iteration;
    Var y = fn::relu(fn::scale(x, 2.0f));
    EXPECT_GT(ir::pendingCount(), 0u);
    EXPECT_EQ(y.dim(0), 6);
    EXPECT_EQ(y.dim(1), 3);
    EXPECT_EQ(y.rank(), 2);
    EXPECT_EQ(y.numel(), 18);
    EXPECT_GT(ir::pendingCount(), 0u) << "shape query forced a flush";
    (void)y.value();
    EXPECT_EQ(ir::pendingCount(), 0u);
}

TEST(IrRecord, EagerModeRecordsNothing)
{
    ModeScope mode(ir::IrMode::Eager);
    Var x(seqTensor(4, 2), true);
    ir::IterationScope iteration;
    Var y = fn::relu(x);
    EXPECT_EQ(ir::pendingCount(), 0u);
    EXPECT_FALSE(ir::recording());
    (void)y;
}

TEST(IrRecord, ScopeExitFlushesPendingNodes)
{
    ModeScope mode(ir::IrMode::Graph);
    Var x(seqTensor(5, 4), false);
    Var y;
    {
        ir::IterationScope iteration;
        y = fn::tanhV(x);
        EXPECT_GT(ir::pendingCount(), 0u);
    }
    EXPECT_EQ(ir::pendingCount(), 0u);
    Tensor ref = ops::tanhT(x.value());
    for (int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_EQ(y.value().at(i), ref.at(i));
}

TEST(IrChecks, WriteSetCoversFusedLaunches)
{
    const bool prev = checksEnabled();
    setChecksEnabled(true);
    // A torn or double-written row inside a fused launch panics via
    // the write-set checker; surviving the run is the assertion.
    std::vector<float> eager = runChain(ir::IrMode::Eager, 4);
    std::vector<float> graph = runChain(ir::IrMode::Graph, 4);
    setChecksEnabled(prev);
    for (std::size_t i = 0; i < eager.size(); ++i)
        ASSERT_EQ(eager[i], graph[i]);
}

TEST(IrGraph, ReservedPeakNotWorseThanEager)
{
    auto run = [](ir::IrMode m) {
        ModeScope mode(m);
        DeviceManager &dm = DeviceManager::instance();
        dm.emptyCaches();
        dm.resetPeak(DeviceKind::Cuda);
        for (int i = 0; i < 3; ++i)
            runChain(m, 1);
        return dm.reservedPeak(DeviceKind::Cuda);
    };
    const std::size_t eager_peak = run(ir::IrMode::Eager);
    const std::size_t graph_peak = run(ir::IrMode::Graph);
    EXPECT_LE(graph_peak, eager_peak);
}

using IrGridParam = std::tuple<ModelKind, FrameworkKind>;

class IrGridTest : public ::testing::TestWithParam<IrGridParam>
{
  protected:
    /**
     * Forward logits + per-step training losses + post-training
     * logits for one mode, fully deterministic (fixed seeds).
     */
    struct RunResult
    {
        std::vector<float> logits;
        std::vector<float> losses;
        std::vector<float> trained;
    };

    RunResult
    run(ir::IrMode m, int threads)
    {
        auto [kind, fw] = GetParam();
        ModeScope mode(m);
        par::ThreadScope width(threads);
        BatchedGraph batch = tinyBatch(fw);
        auto model = makeModel(kind, getBackend(fw), gridConfig());
        nn::Adam optimizer(model->parameters(), 5e-3f);
        RunResult r;
        for (int step = 0; step < 3; ++step) {
            ir::IterationScope iteration;
            Var logits = model->forward(batch);
            Var loss = nn::crossEntropy(logits, batch.graphLabels);
            if (step == 0)
                r.logits = logits.value().toVector();
            r.losses.push_back(loss.item());
            model->zeroGrad();
            loss.backward();
            optimizer.step();
        }
        model->train(false);
        r.trained = model->forward(batch).value().toVector();
        return r;
    }

    void
    expectBitIdentical(int threads)
    {
        RunResult eager = run(ir::IrMode::Eager, threads);
        RunResult graph = run(ir::IrMode::Graph, threads);
        ASSERT_EQ(eager.logits.size(), graph.logits.size());
        for (std::size_t i = 0; i < eager.logits.size(); ++i)
            ASSERT_EQ(eager.logits[i], graph.logits[i])
                << "forward logit " << i;
        ASSERT_EQ(eager.losses.size(), graph.losses.size());
        for (std::size_t s = 0; s < eager.losses.size(); ++s)
            ASSERT_EQ(eager.losses[s], graph.losses[s])
                << "loss at step " << s;
        ASSERT_EQ(eager.trained.size(), graph.trained.size());
        for (std::size_t i = 0; i < eager.trained.size(); ++i)
            ASSERT_EQ(eager.trained[i], graph.trained[i])
                << "post-training logit " << i;
    }
};

TEST_P(IrGridTest, TrainingBitIdenticalSerial)
{
    expectBitIdentical(1);
}

TEST_P(IrGridTest, TrainingBitIdenticalParallel)
{
    expectBitIdentical(4);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsBothFrameworks, IrGridTest,
    ::testing::Combine(::testing::ValuesIn(allModels()),
                       ::testing::Values(FrameworkKind::PyG,
                                         FrameworkKind::DGL)),
    [](const auto &info) {
        return std::string(modelName(std::get<0>(info.param))) + "_" +
               frameworkName(std::get<1>(info.param));
    });

#include "loop.hh"

#include <array>
#include <cmath>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "common/logging.hh"
#include "core/config.hh"
#include "core/evaluator.hh"
#include "device/device.hh"
#include "device/profiler.hh"
#include "device/timeline.hh"
#include "ir/ir.hh"
#include "models/model_factory.hh"
#include "nn/loss.hh"
#include "obs/stats.hh"

namespace perfbench {

using namespace gnnperf;

namespace {

/** Which module a recorded kernel belongs to (kernel_registry groups). */
enum class KernelModule { Gemm, TensorOther, Graph, Other };

KernelModule
kernelModule(const char *name)
{
    static const std::unordered_map<std::string_view, KernelModule> map =
        [] {
            std::unordered_map<std::string_view, KernelModule> m;
            for (const char *n : {"sgemm", "sgemm_nt", "sgemm_tn"})
                m.emplace(n, KernelModule::Gemm);
            for (const char *n :
                 {"add", "add_", "add_bias", "add_scalar", "axpy_", "div",
                  "div_cols", "dropout", "elu", "exp", "leaky_relu", "log",
                  "maximum", "mul", "mul_cols", "reciprocal", "relu",
                  "scale", "sigmoid", "sqrt", "square", "sub", "tanh",
                  "argmax", "col_sum", "col_var", "concat", "gather_rows",
                  "log_softmax", "row_norm", "row_sum", "scatter_add",
                  "slice_cols", "slice_rows", "softmax", "sum_all",
                  "transpose"})
                m.emplace(n, KernelModule::TensorOther);
            for (const char *n :
                 {"gsddmm_dot_uv", "gspmm_copy_u_max",
                  "gspmm_copy_u_max_bwd", "gspmm_copy_u_mean",
                  "gspmm_copy_u_sum", "gspmm_u_mul_e_sum", "index_count",
                  "scatter_max", "scatter_max_bwd", "segment_mean",
                  "segment_mean_bwd", "segment_sum", "segment_sum_bwd",
                  "edge_softmax", "edge_softmax_bwd", "edge_pseudo"})
                m.emplace(n, KernelModule::Graph);
            return m;
        }();
    auto it = map.find(name);
    return it == map.end() ? KernelModule::Other : it->second;
}

} // namespace

/** The stats counters a training step is snapshotted against. */
struct CounterSet
{
    explicit CounterSet(FrameworkKind fw)
        : collateBytes(stats::counter(
              fw == FrameworkKind::PyG ? "backend.pyg.collate_bytes"
                                       : "backend.dgl.collate_bytes")),
          edgesTouched(stats::counter(
              fw == FrameworkKind::PyG ? "backend.pyg.edges_touched"
                                       : "backend.dgl.edges_touched")),
          spmmNnz(stats::counter("kernel.spmm.nnz")),
          sddmmNnz(stats::counter("kernel.sddmm.nnz")),
          parLaunches(stats::counter("parallel.launches")),
          parTasks(stats::counter("parallel.tasks")),
          parSteals(stats::counter("parallel.steals")),
          parBarrierWaits(stats::counter("parallel.barrier_waits"))
    {
    }

    stats::Counter &collateBytes, &edgesTouched, &spmmNnz, &sddmmNnz;
    stats::Counter &parLaunches, &parTasks, &parSteals, &parBarrierWaits;
};

namespace {

constexpr int kSnapshotFields = 11;

/** Counter values plus the device memory statistics, in StepCounts order. */
std::array<double, kSnapshotFields>
snapshot(const CounterSet &c)
{
    const MemoryStats &m = DeviceManager::instance().stats(DeviceKind::Cuda);
    return {static_cast<double>(c.collateBytes.value()),
            static_cast<double>(c.edgesTouched.value()),
            static_cast<double>(c.spmmNnz.value()),
            static_cast<double>(c.sddmmNnz.value()),
            static_cast<double>(c.parLaunches.value()),
            static_cast<double>(c.parTasks.value()),
            static_cast<double>(c.parSteals.value()),
            static_cast<double>(c.parBarrierWaits.value()),
            static_cast<double>(m.allocCount),
            static_cast<double>(m.acquireCount),
            static_cast<double>(m.cacheHits)};
}

/** Adds the counter deltas across one training step (traced runs). */
class StepCounterScope
{
  public:
    StepCounterScope(const CounterSet *set, StepCounts &out)
        : set_(set), out_(out)
    {
        if (set_)
            before_ = snapshot(*set_);
    }

    ~StepCounterScope()
    {
        if (!set_)
            return;
        const auto after = snapshot(*set_);
        double *fields[kSnapshotFields] = {
            &out_.collateBytes, &out_.edgesTouched, &out_.spmmNnz,
            &out_.sddmmNnz,     &out_.parLaunches,  &out_.parTasks,
            &out_.parSteals,    &out_.parBarrierWaits,
            &out_.deviceAllocs, &out_.acquires,     &out_.cacheHits};
        for (int i = 0; i < kSnapshotFields; ++i)
            *fields[i] += after[i] - before_[i];
    }

    StepCounterScope(const StepCounterScope &) = delete;
    StepCounterScope &operator=(const StepCounterScope &) = delete;

  private:
    const CounterSet *set_;
    StepCounts &out_;
    std::array<double, kSnapshotFields> before_{};
};

double
seconds(int64_t begin_ns, int64_t end_ns)
{
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

} // namespace

TrainingRun::TrainingRun(const WorkloadSpec &w, const Inputs &inputs,
                         const Backend &backend, uint64_t seed,
                         Tracer *tracer)
    : spec_(w), inputs_(inputs), backend_(backend), tracer_(tracer),
      counters_(tracer ? std::make_unique<CounterSet>(backend.kind())
                       : nullptr)
{
    Profiler &prof = Profiler::instance();
    prof.reset();
    prof.setEnabled(true);
    DeviceManager::instance().emptyCaches();
    DeviceManager::instance().resetPeak(DeviceKind::Cuda);

    if (w.nodeTask()) {
        const NodeDataset &ds = inputs.node;
        Hyperparameters hp = nodeTaskHyperparameters(
            w.model, ds.numFeatures, ds.numClasses, seed);
        model_ = makeModel(w.model, backend, hp.model);
        optimizer_ =
            std::make_unique<nn::Adam>(model_->parameters(), hp.train.lr);
        std::vector<const Graph *> members{&ds.graph};
        {
            PhaseScope phase(Phase::DataLoading);
            nodeBatch_ = backend.collate(members);
        }
        prof.clearTrace();  // one-time setup excluded, as the trainer
        return;
    }

    const GraphDataset &ds = inputs.graphs;
    Hyperparameters hp = graphTaskHyperparameters(
        w.model, ds.numFeatures, ds.numClasses, seed);
    model_ = makeModel(w.model, backend, hp.model);
    optimizer_ =
        std::make_unique<nn::Adam>(model_->parameters(), hp.train.lr);
    scheduler_ = std::make_unique<nn::ReduceLROnPlateau>(
        *optimizer_, hp.train.lrFactor, hp.train.lrPatience,
        hp.train.minLr);
    const FoldSplit &fold = inputs.fold;
    trainLoader_ = std::make_unique<DataLoader>(
        ds, fold.train, w.batchSize, backend, /*shuffle=*/true, seed);
    valLoader_ = std::make_unique<DataLoader>(
        ds, fold.val, w.batchSize, backend, /*shuffle=*/false, seed + 1);
    testLoader_ = std::make_unique<DataLoader>(
        ds, fold.test, w.batchSize, backend, /*shuffle=*/false, seed + 2);
}

TrainingRun::~TrainingRun() = default;

int64_t
TrainingRun::trainSamples() const
{
    return spec_.nodeTask()
               ? nodeBatch_.numNodes
               : static_cast<int64_t>(inputs_.fold.train.size());
}

int64_t
TrainingRun::valSamples() const
{
    return spec_.nodeTask()
               ? nodeBatch_.numNodes
               : static_cast<int64_t>(inputs_.fold.val.size());
}

void
TrainingRun::noteLoss(float loss)
{
    lastLoss_ = loss;
    if (!std::isfinite(loss))
        ++failedSteps_;
}

void
TrainingRun::graphSteps()
{
    DataLoader &loader = *trainLoader_;
    loader.startEpoch();
    BatchedGraph batch;
    const int64_t batches = loader.numBatches();
    for (int64_t b = 0; b < batches; ++b) {
        const int64_t t0 = nowNs();
        const int64_t c0 = cpuNs();
        if (tracer_)
            tracer_->setStep(stepId_);
        float loss_value = 0.0f;
        {
            StepCounterScope counters(counters_.get(), counts_);
            ScopedSpan step(tracer_, "core.step");
            bool ok = false;
            {
                ScopedSpan span(tracer_, "data.next");
                ok = loader.next(batch);
            }
            gnnperf_assert(ok, "perfbench: loader ran dry at batch ", b);
            ir::IterationScope iteration;
            Var logits;
            {
                PhaseScope phase(Phase::Forward);
                ScopedSpan span(tracer_, "models.forward");
                logits = model_->forward(batch);
            }
            Var loss;
            {
                PhaseScope phase(Phase::Other);
                ScopedSpan span(tracer_, "nn.loss");
                loss = nn::crossEntropy(logits, batch.graphLabels);
            }
            {
                PhaseScope phase(Phase::Backward);
                ScopedSpan span(tracer_, "autograd.backward");
                model_->zeroGrad();
                loss.backward();
            }
            {
                PhaseScope phase(Phase::Update);
                ScopedSpan span(tracer_, "nn.adam");
                optimizer_->step();
            }
            loss_value = loss.item();
            // The trainer releases the tape here, at scope exit, in
            // reverse declaration order; doing it explicitly lets the
            // release be timed.
            ScopedSpan span(tracer_, "autograd.release");
            loss = Var();
            logits = Var();
        }
        stepMs_.push_back(seconds(t0, nowNs()) * 1e3);
        stepCpuMs_.push_back(seconds(c0, cpuNs()) * 1e3);
        ++stepId_;
        noteLoss(loss_value);
    }
    if (tracer_)
        tracer_->setStep(-1);
    // The trainer's loop ends on the call that reports the epoch's end.
    const bool more = loader.next(batch);
    gnnperf_assert(!more, "perfbench: loader has more than numBatches()");
}

std::pair<double, double>
TrainingRun::evaluateLoader(DataLoader &loader)
{
    NoGradGuard no_grad;
    PhaseScope phase(Phase::Evaluation);
    model_->train(false);
    loader.startEpoch();
    BatchedGraph batch;
    double loss_sum = 0.0;
    double correct = 0.0;
    int64_t total = 0;
    for (;;) {
        bool ok = false;
        {
            ScopedSpan span(tracer_, "data.next");
            ok = loader.next(batch);
        }
        if (!ok)
            break;
        Var logits;
        {
            ScopedSpan span(tracer_, "models.forward");
            logits = model_->forward(batch);
        }
        Var loss;
        {
            ScopedSpan span(tracer_, "nn.loss");
            loss = nn::crossEntropy(logits, batch.graphLabels);
        }
        const auto batch_n = static_cast<int64_t>(batch.graphLabels.size());
        loss_sum += loss.item() * static_cast<double>(batch_n);
        correct += accuracy(logits.value(), batch.graphLabels) *
                   static_cast<double>(batch_n);
        total += batch_n;
    }
    model_->train(true);
    if (total == 0)
        return {0.0, 0.0};
    return {loss_sum / static_cast<double>(total),
            correct / static_cast<double>(total)};
}

TrainingRun::Validation
TrainingRun::validate(Tensor &eval_logits)
{
    Validation v;
    if (!spec_.nodeTask()) {
        std::tie(v.loss, v.accuracy) = evaluateLoader(*valLoader_);
        return v;
    }
    {
        NoGradGuard no_grad;
        PhaseScope phase(Phase::Evaluation);
        model_->train(false);
        {
            ScopedSpan fwd(tracer_, "models.forward");
            eval_logits = model_->forward(nodeBatch_).value();
        }
        model_->train(true);
    }
    v.accuracy =
        accuracy(eval_logits, nodeBatch_.nodeLabels, nodeBatch_.valIdx);
    v.testAccuracy =
        accuracy(eval_logits, nodeBatch_.nodeLabels, nodeBatch_.testIdx);
    return v;
}

std::vector<std::pair<double, double>>
TrainingRun::timeValidations(int n)
{
    std::vector<std::pair<double, double>> times;
    for (int i = 0; i <= n; ++i) {
        const int64_t t0 = nowNs();
        const int64_t c0 = cpuNs();
        {
            ScopedSpan span(tracer_, "core.eval");
            Tensor eval_logits;
            validate(eval_logits);
        }
        if (i > 0)  // pass 0 only warms the caches
            times.emplace_back(seconds(t0, nowNs()), seconds(c0, cpuNs()));
        Profiler::instance().clearTrace();
    }
    DeviceManager::instance().trimCaches();
    return times;
}

void
TrainingRun::nodeStep(Var &logits, Var &loss)
{
    const int64_t t0 = nowNs();
    const int64_t c0 = cpuNs();
    if (tracer_)
        tracer_->setStep(stepId_);
    {
        StepCounterScope counters(counters_.get(), counts_);
        ScopedSpan step(tracer_, "core.step");
        ir::IterationScope iteration;
        {
            PhaseScope phase(Phase::Forward);
            ScopedSpan span(tracer_, "models.forward");
            logits = model_->forward(nodeBatch_);
        }
        {
            PhaseScope phase(Phase::Other);
            ScopedSpan span(tracer_, "nn.loss");
            loss = nn::crossEntropy(logits, nodeBatch_.nodeLabels,
                                    nodeBatch_.trainIdx);
        }
        {
            PhaseScope phase(Phase::Backward);
            ScopedSpan span(tracer_, "autograd.backward");
            model_->zeroGrad();
            loss.backward();
        }
        {
            PhaseScope phase(Phase::Update);
            ScopedSpan span(tracer_, "nn.adam");
            optimizer_->step();
        }
    }
    stepMs_.push_back(seconds(t0, nowNs()) * 1e3);
    stepCpuMs_.push_back(seconds(c0, cpuNs()) * 1e3);
    ++stepId_;
    if (tracer_)
        tracer_->setStep(-1);
    noteLoss(loss.item());
}

EpochStats
TrainingRun::runEpoch()
{
    Profiler &prof = Profiler::instance();
    EpochStats es;
    const int64_t t0 = nowNs();
    const int64_t c0 = cpuNs();
    ScopedSpan epoch_span(tracer_, "core.epoch");

    // Node task: the trainer keeps the step's logits/loss (and so the
    // tape) alive until the end of the epoch, through validation.
    Var logits;
    Var loss;
    Tensor eval_logits;
    double val_loss = 0.0;
    std::size_t eval_begin = 0;
    std::size_t eval_end = 0;

    if (spec_.nodeTask())
        nodeStep(logits, loss);
    else
        graphSteps();

    {
        ScopedSpan span(tracer_, "core.eval");
        eval_begin = prof.trace().size();
        const int64_t e0 = nowNs();
        const int64_t ec0 = cpuNs();
        const Validation v = validate(eval_logits);
        if (spec_.nodeTask() && v.accuracy > bestVal_) {
            bestVal_ = v.accuracy;
            testAtBest_ = v.testAccuracy;
        }
        val_loss = v.loss;
        es.valAccuracy = v.accuracy;
        es.evalBatches = spec_.nodeTask() ? 1 : valLoader_->numBatches();
        es.evalS = seconds(e0, nowNs());
        es.evalCpuS = seconds(ec0, cpuNs());
        eval_end = prof.trace().size();
    }
    if (scheduler_) {
        ScopedSpan span(tracer_, "nn.lr_scheduler");
        scheduler_->step(val_loss);
    }
    if (tracer_)
        countTrace(eval_begin, eval_end);
    {
        ScopedSpan span(tracer_, "device.replay");
        TimelineResult t = Timeline::replay(
            prof.trace(), CostModel::defaultModel(),
            backend_.dispatchOverhead(), prof.layerNames());
        prof.clearTrace();
        es.modeledS = t.elapsed;
        es.kernels = t.kernelLaunches;
    }
    {
        ScopedSpan span(tracer_, "device.trim_caches");
        DeviceManager::instance().trimCaches();
    }
    if (spec_.nodeTask()) {
        // End of the trainer's epoch body: locals die in reverse order.
        ScopedSpan span(tracer_, "autograd.release");
        eval_logits = Tensor();
        loss = Var();
        logits = Var();
    }
    es.wallS = seconds(t0, nowNs());
    es.cpuS = seconds(c0, cpuNs());

    lastValAcc_ = es.valAccuracy;
    modeledSum_ += es.modeledS;
    kernelSum_ += es.kernels;
    return es;
}

void
TrainingRun::countTrace(std::size_t eval_begin, std::size_t eval_end)
{
    const std::vector<TraceEntry> &entries =
        Profiler::instance().trace().entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i >= eval_begin && i < eval_end)
            continue;
        if (!entries[i].isKernel)
            continue;
        const KernelRecord &k = entries[i].kernel;
        counts_.kernels += 1;
        if (k.phase == Phase::Forward)
            counts_.forwardFlops += k.flops;
        else if (k.phase == Phase::Backward)
            counts_.backwardFlops += k.flops;
        switch (kernelModule(k.name)) {
          case KernelModule::Gemm:
            counts_.gemmLaunches += 1;
            counts_.gemmFlops += k.flops;
            break;
          case KernelModule::TensorOther:
            counts_.tensorOtherLaunches += 1;
            break;
          case KernelModule::Graph:
            counts_.graphLaunches += 1;
            counts_.graphBytes += k.bytes;
            break;
          case KernelModule::Other:
            break;
        }
    }
}

double
TrainingRun::finalTestAccuracy()
{
    if (spec_.nodeTask())
        return testAtBest_;
    const auto [loss, acc] = evaluateLoader(*testLoader_);
    (void)loss;
    Profiler::instance().clearTrace();
    return acc;
}

Fingerprint
TrainingRun::fingerprint() const
{
    return Fingerprint::make(
        lastLoss_, lastValAcc_, modeledSum_, kernelSum_,
        DeviceManager::instance().peak(DeviceKind::Cuda));
}

} // namespace perfbench

/**
 * @file
 * The benchmark's training loop.
 *
 * TrainingRun drives one workload under one framework through the same
 * public calls, in the same order and with the same object lifetimes,
 * as core::trainGraphTask / trainNodeTask:
 *
 *   DataLoader::next → GnnModel::forward → nn::crossEntropy →
 *   zeroGrad + Var::backward → nn::Adam::step, then per epoch one
 *   validation pass under NoGradGuard, ReduceLROnPlateau::step (graph
 *   tasks), Timeline::replay and DeviceManager::trimCaches.
 *
 * The only differences are what the loop adds around those calls:
 * wall-clock reads for the end-to-end metrics, and, when a Tracer is
 * given, layer spans and counter snapshots. It runs a fixed number of
 * epochs and never stops early. loop_equivalence_test checks it
 * reproduces the trainers' modeled epochs, kernel counts and accuracy.
 */

#ifndef PERFBENCH_LOOP_HH
#define PERFBENCH_LOOP_HH

#include <memory>
#include <utility>
#include <vector>

#include "backends/backend.hh"
#include "data/dataloader.hh"
#include "fingerprint.hh"
#include "models/gnn_model.hh"
#include "nn/lr_scheduler.hh"
#include "nn/optimizer.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace perfbench {

struct CounterSet;

/** What one epoch measured (wall times in seconds). */
struct EpochStats
{
    double wallS = 0.0;       ///< steps + eval + scheduler + replay + trim
    double evalS = 0.0;       ///< validation pass
    double cpuS = 0.0;        ///< process CPU time of the whole epoch
    double evalCpuS = 0.0;    ///< process CPU time of the validation pass
    int64_t evalBatches = 0;
    double modeledS = 0.0;    ///< Timeline::replay elapsed
    std::size_t kernels = 0;  ///< Timeline::replay kernel launches
    double valAccuracy = 0.0;
};

/**
 * Work counted inside training steps (traced runs only): counter
 * deltas snapshotted around each step, and the epoch traces' records
 * outside the validation pass.
 */
struct StepCounts
{
    // obs::stats counters (sampling is on in traced runs)
    double collateBytes = 0, edgesTouched = 0, spmmNnz = 0, sddmmNnz = 0;
    double parLaunches = 0, parTasks = 0, parSteals = 0;
    double parBarrierWaits = 0;
    // DeviceManager memory statistics
    double deviceAllocs = 0, acquires = 0, cacheHits = 0;
    // Profiler trace records
    double kernels = 0, gemmLaunches = 0, gemmFlops = 0;
    double tensorOtherLaunches = 0, graphLaunches = 0, graphBytes = 0;
    double forwardFlops = 0, backwardFlops = 0;
};

class TrainingRun
{
  public:
    /**
     * Set-up: everything the trainers do before their first step
     * (profiler reset, cache empty, peak reset, model, optimizer,
     * scheduler, loaders; the node task's one-time collate). `inputs`,
     * `backend` and `tracer` (may be null) must outlive the run.
     */
    TrainingRun(const WorkloadSpec &w, const Inputs &inputs,
                const gnnperf::Backend &backend, uint64_t seed,
                Tracer *tracer);
    ~TrainingRun();

    TrainingRun(const TrainingRun &) = delete;
    TrainingRun &operator=(const TrainingRun &) = delete;

    /** One epoch: training steps, validation, replay, cache trim. */
    EpochStats runEpoch();

    /**
     * The accuracy the trainers report: graph tasks run the
     * end-of-training test pass; the node task returns the test
     * accuracy at the best validation epoch. Call once, after the
     * last epoch.
     */
    double finalTestAccuracy();

    /**
     * `n` more validation passes between epochs, on the model as
     * trained so far: the epoch's pass without its bookkeeping. An
     * untimed pass first refills the device caches the epoch trimmed,
     * as the training steps fill them before the epoch's own pass. The
     * profiler records are dropped and the caches trimmed again, so the
     * next epoch starts as it would without these passes. Returns the
     * wall and process CPU seconds of each timed pass.
     */
    std::vector<std::pair<double, double>> timeValidations(int n);

    /** Output fingerprint after the epochs run so far. */
    Fingerprint fingerprint() const;

    const std::vector<double> &stepMs() const { return stepMs_; }
    const std::vector<double> &stepCpuMs() const { return stepCpuMs_; }
    int64_t failedSteps() const { return failedSteps_; }
    const StepCounts &counts() const { return counts_; }

    /** Samples one epoch trains / validates (nodes for the node task). */
    int64_t trainSamples() const;
    int64_t valSamples() const;

  private:
    /** What one validation pass found (loss: graph tasks only). */
    struct Validation
    {
        double loss = 0.0;
        double accuracy = 0.0;
        double testAccuracy = 0.0;  ///< node task only
    };

    /** The validation pass; the node task's logits land in eval_logits. */
    Validation validate(gnnperf::Tensor &eval_logits);
    void graphSteps();
    void nodeStep(gnnperf::Var &logits, gnnperf::Var &loss);
    std::pair<double, double> evaluateLoader(gnnperf::DataLoader &loader);
    void countTrace(std::size_t eval_begin, std::size_t eval_end);
    void noteLoss(float loss);

    const WorkloadSpec &spec_;
    const Inputs &inputs_;
    const gnnperf::Backend &backend_;
    Tracer *tracer_;
    std::unique_ptr<CounterSet> counters_;  ///< traced runs only

    std::unique_ptr<gnnperf::GnnModel> model_;
    std::unique_ptr<gnnperf::nn::Adam> optimizer_;
    std::unique_ptr<gnnperf::nn::ReduceLROnPlateau> scheduler_;
    std::unique_ptr<gnnperf::DataLoader> trainLoader_, valLoader_,
        testLoader_;
    gnnperf::BatchedGraph nodeBatch_;  ///< node task: collated once

    std::vector<double> stepMs_;
    std::vector<double> stepCpuMs_;
    int64_t failedSteps_ = 0;
    int32_t stepId_ = 0;
    float lastLoss_ = 0.0f;
    double lastValAcc_ = 0.0;
    double modeledSum_ = 0.0;
    uint64_t kernelSum_ = 0;
    double bestVal_ = -1.0;
    double testAtBest_ = 0.0;
    StepCounts counts_;
};

} // namespace perfbench

#endif // PERFBENCH_LOOP_HH

/**
 * @file
 * Experiment drivers: one function per table/figure of the paper.
 * The bench binaries are thin wrappers around these (so they are also
 * exercised by the integration tests at small scale).
 */

#ifndef GNNPERF_CORE_EXPERIMENT_HH
#define GNNPERF_CORE_EXPERIMENT_HH

#include "core/evaluator.hh"
#include "core/trainer.hh"
#include "data/citation.hh"
#include "data/mnist_superpixel.hh"
#include "data/tu_dataset.hh"
#include "obs/roofline.hh"

namespace gnnperf {

/** One Table IV row (per model × framework). */
struct NodeExperimentRow
{
    ModelKind model;
    FrameworkKind framework;
    double epochTime = 0.0;   ///< avg simulated s/epoch over seeds
    double totalTime = 0.0;   ///< avg simulated total s over seeds
    SeriesStats accuracy;     ///< over seeds, in [0,1]
    int epochsRun = 0;
};

/** Table IV: node classification on one dataset. */
std::vector<NodeExperimentRow>
runNodeClassification(const NodeDataset &dataset,
                      const std::vector<ModelKind> &models, int seeds,
                      int max_epochs, bool verbose = false);

/** One Table V row. */
struct GraphExperimentRow
{
    ModelKind model;
    FrameworkKind framework;
    double epochTime = 0.0;
    double totalTime = 0.0;
    SeriesStats accuracy;  ///< over folds
    int epochsRun = 0;
};

/** Table V: graph classification with stratified k-fold CV. */
std::vector<GraphExperimentRow>
runGraphClassification(const GraphDataset &dataset,
                       const std::vector<ModelKind> &models, int folds,
                       int max_epochs, uint64_t seed,
                       bool verbose = false);

/** One cell of the Figs. 1/2/4/5 grids. */
struct ProfileCell
{
    ModelKind model;
    FrameworkKind framework;
    int64_t batchSize = 0;
    ProfileResult profile;
};

/**
 * Figs. 1/2 (breakdown), 4 (memory), 5 (utilization): profile every
 * model × framework × batch size on one dataset.
 */
std::vector<ProfileCell>
runProfileGrid(const GraphDataset &dataset,
               const std::vector<ModelKind> &models,
               const std::vector<int64_t> &batch_sizes, int epochs,
               uint64_t seed);

/** Fig. 3: layer-wise forward time per iteration (batch 128). */
std::vector<ProfileCell>
runLayerwiseProfile(const GraphDataset &dataset,
                    const std::vector<ModelKind> &models,
                    int64_t batch_size, int epochs, uint64_t seed);

/** One Fig. 6 point. */
struct MultiGpuCell
{
    ModelKind model;
    FrameworkKind framework;
    int64_t batchSize = 0;
    int gpus = 1;
    double epochTime = 0.0;
};

/** Fig. 6: DataParallel scaling on MNIST for GCN and GAT. */
std::vector<MultiGpuCell>
runMultiGpuScaling(const GraphDataset &dataset,
                   const std::vector<ModelKind> &models,
                   const std::vector<int64_t> &batch_sizes,
                   const std::vector<int> &gpu_counts, uint64_t seed);

/**
 * The host peaks measured windows are judged against, measured on the
 * first call and reused for the rest of the process (tens of ms): the
 * selected GEMM build's FLOP/s at GatedGCN's hidden-layer shape and a
 * STREAM-triad byte rate over plain host buffers, each at the pool
 * width of that call and the best of a few repetitions. Records no
 * trace entry.
 */
HostPeaks hostPeaks();

/**
 * Roofline attribution for model × framework on a graph dataset: each
 * configuration trains for `epochs` mini-batch epochs while every
 * epoch's trace is classified (obs/roofline.hh), modeled and measured.
 * One report per configuration, labelled "Model/Framework".
 */
std::vector<RooflineReport>
runGraphRoofline(const GraphDataset &dataset,
                 const std::vector<ModelKind> &models, int epochs,
                 int64_t batch_size, uint64_t seed);

/** Roofline attribution for the transductive node task. */
std::vector<RooflineReport>
runNodeRoofline(const NodeDataset &dataset,
                const std::vector<ModelKind> &models, int epochs,
                uint64_t seed);

} // namespace gnnperf

#endif // GNNPERF_CORE_EXPERIMENT_HH

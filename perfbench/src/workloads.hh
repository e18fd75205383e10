/**
 * @file
 * The benchmark's named training workloads and the dataset each one
 * generates. The dataset and its fold are fixed per workload, so every
 * seed trains the same graphs and an epoch is the same work; the
 * run's seed (TrainingRun) varies the batch order, the model
 * initialisation and dropout, as TrainOptions::seed does for the
 * library's own trainers.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "data/dataset.hh"
#include "data/splits.hh"
#include "models/gnn_model.hh"

namespace perfbench {

/** Which synthetic dataset a workload trains on. */
enum class DatasetKind { Enzymes, DD, Cora };

struct WorkloadSpec
{
    const char *name;
    const char *why;         ///< one line: what this workload stresses
    DatasetKind dataset;     ///< Cora = full-batch node task
    gnnperf::ModelKind model;
    int64_t numGraphs;       ///< graph tasks: dataset size
    int64_t maxNodesCap;     ///< DD only: tail cap (0 = none)
    int64_t batchSize;       ///< graph tasks: graphs per step
    /**
     * Epochs per framework per measured second. A run of `--seconds S`
     * trains max(minEpochs, round(S * epochsPerSecond)) epochs under
     * each framework: the work is a fixed function of S, so two
     * commits always do identical work and the step count (and so the
     * tail percentile) is fixed per workload.
     */
    double epochsPerSecond;
    int minEpochs;

    bool nodeTask() const { return dataset == DatasetKind::Cora; }
};

/** All workloads, in run order. */
const std::vector<WorkloadSpec> &workloads();

/** The workload with this name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Epochs per framework for a run of `seconds`. */
int epochsFor(const WorkloadSpec &w, double seconds);

/** Generated inputs of one workload. */
struct Inputs
{
    gnnperf::GraphDataset graphs;  ///< graph tasks
    gnnperf::FoldSplit fold;       ///< graph tasks: fold 0 of 10
    gnnperf::NodeDataset node;     ///< node task
};

Inputs makeInputs(const WorkloadSpec &w);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

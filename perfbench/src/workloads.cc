#include "workloads.hh"

#include <algorithm>
#include <cmath>

#include "data/citation.hh"
#include "data/tu_dataset.hh"

namespace perfbench {

using gnnperf::ModelKind;

namespace {

/** One fixed dataset per workload (see workloads.hh). */
constexpr uint64_t kDatasetSeed = 11;

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"enzymes_gatedgcn",
         "many small graphs collated every step (GatedGCN, batch 128): "
         "data layer's largest share, DGL's all-edges FC; dense GEMM and "
         "autograd dominate",
         DatasetKind::Enzymes, ModelKind::GatedGCN, 600, 0, 128, 0.33, 3},
        {"dd_gat",
         "large graphs (120, capped at 300 nodes; GAT 8x32, batch 16): "
         "kernel-bound, biggest GEMMs, the only edge-softmax/SDDMM "
         "traffic, largest memory",
         DatasetKind::DD, ModelKind::GAT, 120, 300, 16, 0.2, 2},
        {"cora_gcn",
         "full-batch 2-layer GCN on Cora: no per-step loading, "
         "sparse-input GEMM zero-skip, SpMM/scatter kernels, eval ~40% of "
         "an epoch",
         DatasetKind::Cora, ModelKind::GCN, 0, 0, 0, 13.5, 11},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

int
epochsFor(const WorkloadSpec &w, double seconds)
{
    const double e = std::round(seconds * w.epochsPerSecond);
    return std::max(w.minEpochs, static_cast<int>(e));
}

Inputs
makeInputs(const WorkloadSpec &w)
{
    Inputs in;
    switch (w.dataset) {
      case DatasetKind::Cora:
        in.node = gnnperf::makeCora(kDatasetSeed);
        return in;
      case DatasetKind::Enzymes:
        in.graphs = gnnperf::makeEnzymes(kDatasetSeed, w.numGraphs);
        break;
      case DatasetKind::DD:
        in.graphs =
            gnnperf::makeDD(kDatasetSeed, w.numGraphs, w.maxNodesCap);
        break;
    }
    // Fold 0 of the paper's stratified 10-fold geometry (8:1:1), as
    // runGraphClassification hands to trainGraphTask.
    in.fold = gnnperf::stratifiedKFold(in.graphs.labels(), 10, kDatasetSeed)
                  .front();
    return in;
}

} // namespace perfbench

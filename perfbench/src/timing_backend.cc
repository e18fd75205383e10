#include "timing_backend.hh"

namespace perfbench {

using gnnperf::BatchedGraph;
using gnnperf::Var;

BatchedGraph
TimingBackend::collate(const std::vector<const gnnperf::Graph *> &graphs) const
{
    ScopedSpan span(&tracer_, "backends.collate");
    return inner_.collate(graphs);
}

Var
TimingBackend::aggregate(BatchedGraph &g, const Var &x,
                         gnnperf::Reduce reduce) const
{
    ScopedSpan span(&tracer_, "backends.aggregate");
    return inner_.aggregate(g, x, reduce);
}

Var
TimingBackend::aggregateWeighted(BatchedGraph &g, const Var &x,
                                 const Var &w, int64_t heads) const
{
    ScopedSpan span(&tracer_, "backends.aggregate");
    return inner_.aggregateWeighted(g, x, w, heads);
}

Var
TimingBackend::aggregateEdges(BatchedGraph &g, const Var &e_attr) const
{
    ScopedSpan span(&tracer_, "backends.aggregate");
    return inner_.aggregateEdges(g, e_attr);
}

Var
TimingBackend::edgeSoftmax(BatchedGraph &g, const Var &logits) const
{
    ScopedSpan span(&tracer_, "backends.edge_softmax");
    return inner_.edgeSoftmax(g, logits);
}

Var
TimingBackend::gatherSrc(BatchedGraph &g, const Var &x) const
{
    ScopedSpan span(&tracer_, "backends.gather");
    return inner_.gatherSrc(g, x);
}

Var
TimingBackend::gatherDst(BatchedGraph &g, const Var &x) const
{
    ScopedSpan span(&tracer_, "backends.gather");
    return inner_.gatherDst(g, x);
}

Var
TimingBackend::readoutMean(BatchedGraph &g, const Var &x) const
{
    ScopedSpan span(&tracer_, "backends.readout");
    return inner_.readoutMean(g, x);
}

} // namespace perfbench

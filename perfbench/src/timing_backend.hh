/**
 * @file
 * Timing decorator over a gnnperf Backend (traced runs only).
 *
 * Every Backend virtual is forwarded unchanged to the wrapped backend;
 * the compute calls (collate, aggregate*, edgeSoftmax, gatherSrc/Dst,
 * readoutMean) are bracketed by a span named after the call's group:
 * backends.collate, backends.aggregate, backends.edge_softmax,
 * backends.gather, backends.readout. kind/name/dispatchOverhead/
 * requiresEdgeFeatures forward without a span, so a model built over
 * the decorator computes exactly what one built over the bare backend
 * computes (timing_backend_test checks logits, gradients and the
 * modeled trace bit for bit).
 */

#ifndef PERFBENCH_TIMING_BACKEND_HH
#define PERFBENCH_TIMING_BACKEND_HH

#include "backends/backend.hh"
#include "tracer.hh"

namespace perfbench {

class TimingBackend final : public gnnperf::Backend
{
  public:
    /** `inner` and `tracer` must outlive the decorator. */
    TimingBackend(const gnnperf::Backend &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    gnnperf::FrameworkKind kind() const override { return inner_.kind(); }
    const char *name() const override { return inner_.name(); }
    double dispatchOverhead() const override
    {
        return inner_.dispatchOverhead();
    }
    bool requiresEdgeFeatures() const override
    {
        return inner_.requiresEdgeFeatures();
    }

    gnnperf::BatchedGraph
    collate(const std::vector<const gnnperf::Graph *> &graphs)
        const override;
    gnnperf::Var aggregate(gnnperf::BatchedGraph &g, const gnnperf::Var &x,
                           gnnperf::Reduce reduce) const override;
    gnnperf::Var aggregateWeighted(gnnperf::BatchedGraph &g,
                                   const gnnperf::Var &x,
                                   const gnnperf::Var &w,
                                   int64_t heads) const override;
    gnnperf::Var aggregateEdges(gnnperf::BatchedGraph &g,
                                const gnnperf::Var &e_attr) const override;
    gnnperf::Var edgeSoftmax(gnnperf::BatchedGraph &g,
                             const gnnperf::Var &logits) const override;
    gnnperf::Var gatherSrc(gnnperf::BatchedGraph &g,
                           const gnnperf::Var &x) const override;
    gnnperf::Var gatherDst(gnnperf::BatchedGraph &g,
                           const gnnperf::Var &x) const override;
    gnnperf::Var readoutMean(gnnperf::BatchedGraph &g,
                             const gnnperf::Var &x) const override;

  private:
    const gnnperf::Backend &inner_;
    Tracer &tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_BACKEND_HH

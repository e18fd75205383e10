/**
 * @file
 * The timing decorator must be invisible to the computation: a model
 * built over TimingBackend gives bit-identical logits, parameter
 * gradients and modeled trace to one built over the bare backend, for
 * both frameworks and every model, while recording one span per
 * decorated call.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/config.hh"
#include "data/tu_dataset.hh"
#include "device/profiler.hh"
#include "models/model_factory.hh"
#include "nn/loss.hh"
#include "timing_backend.hh"

using namespace gnnperf;
using namespace perfbench;

namespace {

struct Outcome
{
    std::vector<float> logits;
    std::vector<std::vector<float>> grads;
    std::vector<TraceEntry> trace;
};

std::vector<float>
values(const Tensor &t)
{
    return std::vector<float>(t.data(), t.data() + t.numel());
}

/** One collate + forward + loss + backward, with the profiler on. */
Outcome
step(ModelKind kind, const Backend &backend, const GraphDataset &ds)
{
    Profiler &prof = Profiler::instance();
    prof.reset();
    prof.setEnabled(true);
    Hyperparameters hp = graphTaskHyperparameters(kind, ds.numFeatures,
                                                  ds.numClasses, 3);
    auto model = makeModel(kind, backend, hp.model);
    std::vector<const Graph *> members;
    for (std::size_t i = 0; i < 8; ++i)
        members.push_back(&ds.graphs[i]);
    BatchedGraph batch;
    {
        PhaseScope phase(Phase::DataLoading);
        batch = backend.collate(members);
    }
    Outcome out;
    Var logits;
    {
        PhaseScope phase(Phase::Forward);
        logits = model->forward(batch);
    }
    Var loss = nn::crossEntropy(logits, batch.graphLabels);
    {
        PhaseScope phase(Phase::Backward);
        model->zeroGrad();
        loss.backward();
    }
    out.logits = values(logits.value());
    for (const Var &p : model->parameters())
        out.grads.push_back(p.hasGrad() ? values(p.grad())
                                        : std::vector<float>{});
    out.trace = prof.trace().entries();
    prof.clearTrace();
    prof.setEnabled(false);
    return out;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameEntry(const TraceEntry &a, const TraceEntry &b)
{
    if (a.isKernel != b.isKernel)
        return false;
    if (a.isKernel) {
        return std::strcmp(a.kernel.name, b.kernel.name) == 0 &&
               a.kernel.flops == b.kernel.flops &&
               a.kernel.bytes == b.kernel.bytes &&
               a.kernel.phase == b.kernel.phase &&
               a.kernel.layer == b.kernel.layer;
    }
    return std::strcmp(a.host.name, b.host.name) == 0 &&
           a.host.kind == b.host.kind && a.host.bytes == b.host.bytes &&
           a.host.items == b.host.items && a.host.phase == b.host.phase &&
           a.host.layer == b.host.layer;
}

} // namespace

TEST(TimingBackend, BitIdenticalToBareBackend)
{
    const GraphDataset ds = makeEnzymes(5, 16);
    for (FrameworkKind fw : allFrameworks()) {
        const Backend &bare = getBackend(fw);
        for (ModelKind kind : allModels()) {
            SCOPED_TRACE(std::string(frameworkName(fw)) + "/" +
                         modelName(kind));
            Tracer tracer;
            TimingBackend timed(bare, tracer);
            EXPECT_EQ(timed.kind(), bare.kind());
            EXPECT_STREQ(timed.name(), bare.name());
            EXPECT_EQ(timed.dispatchOverhead(), bare.dispatchOverhead());
            EXPECT_EQ(timed.requiresEdgeFeatures(),
                      bare.requiresEdgeFeatures());

            const Outcome a = step(kind, bare, ds);
            const Outcome b = step(kind, timed, ds);
            EXPECT_TRUE(sameBits(a.logits, b.logits));
            ASSERT_EQ(a.grads.size(), b.grads.size());
            for (std::size_t i = 0; i < a.grads.size(); ++i)
                EXPECT_TRUE(sameBits(a.grads[i], b.grads[i])) << "param " << i;
            ASSERT_EQ(a.trace.size(), b.trace.size());
            for (std::size_t i = 0; i < a.trace.size(); ++i)
                EXPECT_TRUE(sameEntry(a.trace[i], b.trace[i])) << "entry " << i;

            // One collate span plus at least one message-passing call,
            // every span closed and named under backends.
            ASSERT_GE(tracer.spans().size(), 2u);
            EXPECT_STREQ(tracer.spans().front().name, "backends.collate");
            for (const Span &s : tracer.spans()) {
                EXPECT_EQ(std::strncmp(s.name, "backends.", 9), 0);
                EXPECT_GE(s.endNs, s.startNs);
            }
        }
    }
}

TEST(Tracer, SelfTimeSubtractsChildren)
{
    Tracer t;
    {
        ScopedSpan outer(&t, "outer");
        ScopedSpan inner(&t, "inner");
    }
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    const std::vector<int64_t> self = t.selfNs();
    const Span &o = t.spans()[0];
    const Span &i = t.spans()[1];
    EXPECT_EQ(self[0], (o.endNs - o.startNs) - (i.endNs - i.startNs));
    EXPECT_EQ(self[1], i.endNs - i.startNs);
}

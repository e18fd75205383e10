#include "ir/executor.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "parallel/thread_pool.hh"
#include "parallel/write_check.hh"

namespace gnnperf {
namespace ir {

namespace {

/** Flattened per-member execution state for the fused loop. */
struct MemberExec
{
    OpKind kind;
    ops::EwUnary ukind;
    ops::EwBinary bkind;
    float param;
    const int64_t *idx = nullptr;  ///< gather (own) / scatter (shared)
    const float *a = nullptr;
    const float *b = nullptr;
    float *out = nullptr;
    int64_t w = 0;                 ///< row width in elements
};

/** Elementwise grain twin of ops.cc's rowGrain. */
int64_t
fusedRowGrain(int64_t total_width)
{
    constexpr int64_t kElemGrain = 16384;
    return std::max<int64_t>(
        1, kElemGrain / std::max<int64_t>(total_width, 1));
}

/** Compute every member's row `e` (scatters accumulate into row idx[e]). */
inline void
computeRow(const std::vector<MemberExec> &members, int64_t e)
{
    for (const MemberExec &m : members) {
        float *out_row = m.out + e * m.w;
        const float *a_row = m.a + e * m.w;
        switch (m.kind) {
          case OpKind::Gather:
            std::memcpy(m.out + e * m.w, m.a + m.idx[e] * m.w,
                        static_cast<std::size_t>(m.w) * sizeof(float));
            break;
          case OpKind::Unary:
            for (int64_t j = 0; j < m.w; ++j)
                out_row[j] = ops::ewUnaryApply(m.ukind, a_row[j],
                                               m.param);
            break;
          case OpKind::Binary: {
            const float *b_row = m.b + e * m.w;
            for (int64_t j = 0; j < m.w; ++j)
                out_row[j] = ops::ewBinaryApply(m.bkind, a_row[j],
                                                b_row[j]);
            break;
          }
          case OpKind::ScatterAdd: {
            float *dst = m.out + m.idx[e] * m.w;
            for (int64_t j = 0; j < m.w; ++j)
                dst[j] += a_row[j];
            break;
          }
        }
    }
}

const char *
groupKernelName(const FusionGroup &grp)
{
    if (grp.hasGather && grp.hasScatter)
        return "fused_gather_ew_scatter";
    if (grp.hasGather)
        return "fused_gather_ew";
    if (grp.hasScatter)
        return "fused_ew_scatter";
    return "fused_ew";
}

/** "fuse:gather_rows+add+sigmoid" span label (first few members). */
std::string
groupSpanName(const OpGraph &g, const FusionGroup &grp)
{
    std::string name = "fuse:";
    const std::size_t shown = std::min<std::size_t>(
        grp.nodeIds.size(), 6);
    for (std::size_t i = 0; i < shown; ++i) {
        if (i > 0)
            name += '+';
        name += g.nodes[static_cast<std::size_t>(grp.nodeIds[i])].name;
    }
    if (shown < grp.nodeIds.size())
        name += "+..";
    return name;
}

const Tensor &
valueTensor(const OpGraph &g, int32_t id)
{
    const Tensor &t = g.values[static_cast<std::size_t>(id)].tensor;
    gnnperf_assert(t.defined(), "ir: unmaterialized input value ", id);
    return t;
}

void
executeSingle(OpGraph &g, const OpNode &n)
{
    Tensor &out = g.values[static_cast<std::size_t>(n.out)].tensor;
    const Tensor &a = valueTensor(g, n.a);
    switch (n.kind) {
      case OpKind::Gather:
        ops::gatherRowsInto(out, a, *n.idx);
        break;
      case OpKind::ScatterAdd:
        ops::scatterAddRowsInto(out, a, *n.idx);
        break;
      case OpKind::Unary:
        ops::ewUnaryInto(out, a, n.ukind, n.param);
        break;
      case OpKind::Binary:
        ops::ewBinaryInto(out, a, valueTensor(g, n.b), n.bkind);
        break;
    }
}

void
executeFused(OpGraph &g, const FusionGroup &grp)
{
    const int64_t rows = grp.rows;
    std::vector<MemberExec> members;
    members.reserve(grp.nodeIds.size());
    // Fused cost descriptors: FLOPs sum the members'; bytes count every
    // output write (scatter outputs twice: read-modify-write) plus
    // reads of group-external inputs only — in-group intermediates stay
    // in cache-hot just-written rows (docs/IR.md has the formula).
    double flops = 0.0, bytes = 0.0;
    const int32_t first = grp.nodeIds.front();
    const int32_t last = grp.nodeIds.back();
    int64_t total_width = 0;

    static stats::Counter &scatter_calls =
        stats::counter("kernel.scatter.calls");
    static stats::Distribution &scatter_rows =
        stats::distribution("kernel.scatter.rows");

    for (int32_t id : grp.nodeIds) {
        const OpNode &n = g.nodes[static_cast<std::size_t>(id)];
        Value &out = g.values[static_cast<std::size_t>(n.out)];
        MemberExec m;
        m.kind = n.kind;
        m.ukind = n.ukind;
        m.bkind = n.bkind;
        m.param = n.param;
        if (n.idx)
            m.idx = n.idx->data();
        m.a = valueTensor(g, n.a).data();
        if (n.kind == OpKind::Binary)
            m.b = valueTensor(g, n.b).data();
        m.out = out.tensor.data();
        m.w = out.width();
        flops += n.flops;

        const double out_bytes =
            static_cast<double>(out.numel()) * sizeof(float);
        if (n.kind == OpKind::ScatterAdd) {
            bytes += 2.0 * out_bytes;
            scatter_calls.inc();
            scatter_rows.sample(static_cast<double>(out.rows()));
        } else {
            bytes += out_bytes;
        }
        const double row_bytes =
            static_cast<double>(rows * m.w) * sizeof(float);
        if (!g.producedBy(n.a, first, last))
            bytes += row_bytes;
        if (n.kind == OpKind::Binary &&
            !g.producedBy(n.b, first, last))
            bytes += row_bytes;
        total_width += m.w;
        members.push_back(m);
    }

    const std::string span_name = groupSpanName(g, grp);
    HostSpan span(span_name.c_str());

    if (grp.hasScatter) {
        // Ownership partition over the scatter *output* rows: the chunk
        // owning idx[e] computes every member's row e and accumulates
        // the scatters, scanning edges in ascending order — per-row
        // addition order matches the serial scan, so the launch is
        // bit-identical at every width.
        const int64_t out_rows = grp.scatterRows;
        const int64_t *sidx = grp.scatterIdx->data();
        par::WriteSet ws(groupKernelName(grp), rows);
        par::parallelFor(
            "par.fused_scatter", 0, out_rows,
            par::grainFor(out_rows, 1),
            [&](int64_t rb, int64_t re, int slot) {
                for (const MemberExec &m : members) {
                    if (m.kind == OpKind::ScatterAdd)
                        std::memset(
                            m.out + rb * m.w, 0,
                            static_cast<std::size_t>((re - rb) * m.w) *
                                sizeof(float));
                }
                for (int64_t e = 0; e < rows; ++e) {
                    const int64_t r = sidx[e];
                    if (r < rb || r >= re)
                        continue;
                    computeRow(members, e);
                    ws.note(slot, e, e + 1);
                }
            });
    } else {
        par::WriteSet ws(groupKernelName(grp), rows);
        par::parallelFor(
            "par.fused_rows", 0, rows, fusedRowGrain(total_width),
            [&](int64_t b, int64_t e, int slot) {
                for (int64_t i = b; i < e; ++i)
                    computeRow(members, i);
                ws.note(slot, b, e);
            });
    }

    recordKernel(groupKernelName(grp), flops, bytes);
}

} // namespace

void
execute(OpGraph &g, const std::vector<FusionGroup> &groups)
{
    Profiler &prof = Profiler::instance();
    const Phase prev_phase = prof.phase();
    const int16_t prev_layer = prof.layer();
    for (const FusionGroup &grp : groups) {
        const OpNode &head =
            g.nodes[static_cast<std::size_t>(grp.nodeIds.front())];
        prof.setPhase(head.phase);
        prof.setLayer(head.layer);
        for (int32_t id : grp.nodeIds) {
            Value &out = g.values[static_cast<std::size_t>(
                g.nodes[static_cast<std::size_t>(id)].out)];
            out.tensor = Tensor(out.shape, out.device);
        }
        if (grp.nodeIds.size() == 1)
            executeSingle(g, head);
        else
            executeFused(g, grp);
    }
    prof.setPhase(prev_phase);
    prof.setLayer(prev_layer);
}

} // namespace ir
} // namespace gnnperf

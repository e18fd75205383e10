/**
 * @file
 * The recorded op graph's internal representation, shared by the
 * recorder (ir.cc), the fusion pass and the executor. Consumers
 * outside src/ir use only ir.hh.
 *
 * Values and nodes live in parallel arrays indexed by int32 ids;
 * record order is program order, hence topological.
 */

#ifndef GNNPERF_IR_OP_GRAPH_HH
#define GNNPERF_IR_OP_GRAPH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "device/profiler.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace gnnperf {
namespace ir {

/** Recorded launch kinds (the fusable subset of the kernel zoo). */
enum class OpKind
{
    Gather,
    ScatterAdd,
    Unary,
    Binary,
};

/**
 * One tensor in the recorded segment: an external input captured at
 * record time (shared storage, no copy) or a node output materialized
 * by the executor during the flush.
 */
struct Value
{
    std::vector<int64_t> shape;
    DeviceKind device = DeviceKind::Cuda;
    Tensor tensor;                      ///< set for externals at record,
                                        ///< for outputs by the executor
    int32_t producer = -1;              ///< producing node, -1 = external
    std::function<void(Tensor)> sink;   ///< consumer callback (outputs)

    int64_t rows() const { return shape.empty() ? 0 : shape[0]; }

    int64_t numel() const
    {
        int64_t n = 1;
        for (int64_t d : shape)
            n *= d;
        return n;
    }

    /** Row width in elements (rank-1 values are width-1 columns). */
    int64_t width() const
    {
        return shape.size() >= 2 ? numel() / rows() : 1;
    }
};

/** One recorded kernel launch. */
struct OpNode
{
    OpKind kind = OpKind::Unary;
    ops::EwUnary ukind = ops::EwUnary::Relu;
    ops::EwBinary bkind = ops::EwBinary::Add;
    float param = 0.0f;                 ///< unary scalar parameter
    std::shared_ptr<const std::vector<int64_t>> idx; ///< gather/scatter
    int32_t a = -1;                     ///< first input value
    int32_t b = -1;                     ///< second input (Binary only)
    int32_t out = -1;                   ///< output value

    /** What eager would have recorded, for fused-launch descriptors. */
    const char *name = "?";
    double flops = 0.0;
    double bytes = 0.0;

    /** Profiler stamps captured at record time, restored at replay. */
    Phase phase = Phase::Other;
    int16_t layer = -1;
};

/** The pending segment. */
struct OpGraph
{
    std::vector<Value> values;
    std::vector<OpNode> nodes;

    /** Interned index vectors, keyed by source address (per segment). */
    std::vector<std::pair<const void *,
                          std::shared_ptr<const std::vector<int64_t>>>>
        idxCache;

    bool producedBy(int32_t value_id, int32_t first_node,
                    int32_t last_node) const
    {
        const int32_t p = values[static_cast<std::size_t>(value_id)]
                              .producer;
        return p >= first_node && p <= last_node;
    }

    void clear()
    {
        values.clear();
        nodes.clear();
        idxCache.clear();
    }
};

/**
 * One execution unit after fusion: a contiguous-in-record-order run of
 * node ids. Size 1 replays the eager kernel; size >= 2 becomes a
 * single fused launch.
 */
struct FusionGroup
{
    std::vector<int32_t> nodeIds;
    int64_t rows = 0;          ///< shared leading dimension of members
    bool hasScatter = false;   ///< trailing ScatterAdd members present
    bool hasGather = false;
    int64_t scatterRows = 0;   ///< output rows of the shared scatter
    std::shared_ptr<const std::vector<int64_t>> scatterIdx;
};

} // namespace ir
} // namespace gnnperf

#endif // GNNPERF_IR_OP_GRAPH_HH

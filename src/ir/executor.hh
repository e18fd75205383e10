/**
 * @file
 * Replay engine for the recorded op graph.
 *
 * Runs the fused groups in order through the existing ThreadPool.
 * Singleton groups replay the exact eager `Into` kernels (same launch
 * names, grains and KernelRecords); multi-node groups become one
 * registered fused launch each ("fused_gather_ew",
 * "fused_gather_ew_scatter", "fused_ew", "fused_ew_scatter") whose
 * per-edge member chain inlines the same elementwise math the eager
 * kernels use — bit-identical output at every thread width.
 */

#ifndef GNNPERF_IR_EXECUTOR_HH
#define GNNPERF_IR_EXECUTOR_HH

#include <vector>

#include "ir/op_graph.hh"

namespace gnnperf {
namespace ir {

/**
 * Execute every group in order, allocating each node output's tensor
 * just before its group runs, outside the parallel region. Profiler
 * phase/layer are restamped per group from record-time values so the
 * trace attributes deferred launches to the layer that recorded them.
 */
void execute(OpGraph &g, const std::vector<FusionGroup> &groups);

} // namespace ir
} // namespace gnnperf

#endif // GNNPERF_IR_EXECUTOR_HH

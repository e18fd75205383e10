/**
 * @file
 * Roofline attribution: *why* a run spends its time where it does.
 *
 * The Timeline (device/timeline.hh) prices a trace into elapsed time
 * and GPU utilization — the paper's Fig. 5 numbers. This layer walks
 * the same priced replay (via Timeline's record-visitation hook) and
 * classifies every kernel record against the roofline the cost model
 * priced it with:
 *
 *  - **compute-bound** — flops/peak_flops dominates the kernel's time;
 *  - **bandwidth-bound** — bytes/peak_bandwidth dominates;
 *  - **dispatch/overhead-bound** — the useful work is smaller than the
 *    fixed per-launch cost (kernel ramp + framework dispatch), the
 *    regime behind the paper's small-graph observations.
 *
 * Classified records are aggregated per kernel kind, per layer scope,
 * per phase and per host-op kind, with arithmetic intensity, achieved
 * vs peak rates, and bound-class time shares — so claims like
 * "GatedGCN under DGL is edge-collation-bound" become machine-readable
 * JSON, diffable across runs by obs/diff.hh. This is the
 * operation-level bottleneck attribution of Hosseini et al. and Huang
 * et al. applied to the simulated deployment.
 *
 * The same groups also sum each record's measured window (the host
 * wall time since the previous record, device/profiler.hh) and judge
 * it against two host peaks with the rule classifyKernel uses, so the
 * measured and modeled class of a group come from one trace.
 */

#ifndef GNNPERF_OBS_ROOFLINE_HH
#define GNNPERF_OBS_ROOFLINE_HH

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "device/cost_model.hh"
#include "device/timeline.hh"
#include "device/trace.hh"

namespace gnnperf {

/** Which roofline regime bounds a kernel. */
enum class BoundClass : uint8_t { Compute, Bandwidth, Dispatch };

/** Number of bound classes. */
constexpr int kNumBoundClasses = 3;

/** "compute" / "bandwidth" / "dispatch". */
const char *boundClassName(BoundClass cls);

/** Roofline decomposition of one kernel launch. */
struct KernelBound
{
    BoundClass cls = BoundClass::Dispatch;
    double gpuSeconds = 0.0;      ///< priced on-GPU time
    double computeSeconds = 0.0;  ///< flops / peak flops
    double memorySeconds = 0.0;   ///< bytes / peak bandwidth
    double overheadSeconds = 0.0; ///< fixed on-GPU launch cost
    double dispatchSeconds = 0.0; ///< host-side framework dispatch
    double intensity = 0.0;       ///< flops / bytes (0 when no bytes)
};

/**
 * Classify one kernel record against a cost model. The kernel is
 * dispatch/overhead-bound when its roofline work (max of compute and
 * memory time) is smaller than the fixed per-launch cost; otherwise
 * the larger of compute and memory time picks the class.
 */
KernelBound classifyKernel(const KernelRecord &k, const CostModel &model,
                           double dispatch_overhead);

/**
 * Host peaks the measured windows are judged against, measured once
 * per process at the pool width (core/experiment.hh hostPeaks()).
 */
struct HostPeaks
{
    double gemmFlopsPerSec = 0.0;   ///< selected GEMM build
    double triadBytesPerSec = 0.0;  ///< STREAM triad over host buffers
};

/**
 * Measured bound class, the host mirror of classifyKernel: work is
 * max(flops / GEMM peak, bytes / triad peak). Dispatch when work <
 * wall - work, i.e. the group runs below both roofs; otherwise the
 * larger term picks Compute or Bandwidth. Empty when there is nothing
 * to judge: no wall time or no peaks.
 */
std::optional<BoundClass> measuredBound(double flops, double bytes,
                                        double wall_seconds,
                                        const HostPeaks &peaks);

/**
 * Modeled-vs-measured verdict: "agree" / "disagree", or "n/a" when
 * the group has no measured class.
 */
const char *agreementVerdict(BoundClass modeled,
                             std::optional<BoundClass> measured);

/** Aggregated kernel-side attribution for one grouping key. */
struct RooflineGroup
{
    std::string name;
    std::size_t launches = 0;
    double flops = 0.0;
    double bytes = 0.0;
    double gpuSeconds = 0.0;
    double dispatchSeconds = 0.0;
    /** Elapsed (frontier) seconds attributed to this group. */
    double elapsedSeconds = 0.0;
    /** Measured host wall seconds: the group's summed windows. */
    double wallSeconds = 0.0;
    /** (GPU + dispatch) seconds per bound class. */
    std::array<double, kNumBoundClasses> boundSeconds{};
    std::array<std::size_t, kNumBoundClasses> boundLaunches{};

    /** Aggregate arithmetic intensity (flops per byte). */
    double intensity() const;

    /** Share of this group's kernel time in the given class, [0,1]. */
    double boundShare(BoundClass cls) const;

    /** Dominant bound class by time (Dispatch when empty). */
    BoundClass dominantBound() const;
};

/** Aggregated host-op attribution for one HostOpKind. */
struct HostOpGroup
{
    std::string name;
    std::size_t ops = 0;
    double bytes = 0.0;
    double items = 0.0;
    double seconds = 0.0;         ///< priced host execution time
    double elapsedSeconds = 0.0;  ///< frontier seconds attributed
    double wallSeconds = 0.0;     ///< measured windows, summed
};

/** Full attribution report for one run (e.g. one model × backend). */
struct RooflineReport
{
    std::string label;         ///< e.g. "GatedGCN/DGL"
    std::size_t epochs = 0;    ///< traces merged into this report

    // Device parameters the records were priced with.
    double peakFlopsPerSec = 0.0;
    double peakBytesPerSec = 0.0;
    double dispatchOverhead = 0.0;

    double elapsed = 0.0;      ///< simulated wall-clock seconds
    double gpuBusy = 0.0;
    double hostBusy = 0.0;
    double wall = 0.0;         ///< measured seconds: every window

    HostPeaks peaks;           ///< what the measured class judges by

    // Host-side effective parallelism: the pool width the run executed
    // with and the speedup the cost model credits that width with
    // (ParallelSpec::speedup). Keeps roofline claims honest about what
    // the host threads can actually deliver.
    int hostThreads = 1;
    double hostParallelSpeedup = 1.0;

    RooflineGroup total;       ///< all kernels together
    std::vector<RooflineGroup> byKernel;  ///< per kernel name
    std::vector<RooflineGroup> byLayer;   ///< per layer scope
    std::vector<RooflineGroup> byPhase;   ///< per training phase
    std::vector<HostOpGroup> byHostOp;    ///< per HostOpKind

    /** GPU compute utilization (paper Eq. 5). */
    double
    utilization() const
    {
        return elapsed > 0.0 ? gpuBusy / elapsed : 0.0;
    }

    /** Flops-rate intensity where compute == memory time. */
    double
    ridgeIntensity() const
    {
        return peakBytesPerSec > 0.0
                   ? peakFlopsPerSec / peakBytesPerSec : 0.0;
    }

    /** Achieved fraction of the device's peak FLOP rate over elapsed. */
    double achievedFlopsFraction() const;

    /** Achieved fraction of the device's peak bandwidth over elapsed. */
    double achievedBandwidthFraction() const;
};

/**
 * Builds a RooflineReport from one or more traces (typically one per
 * epoch, fed by the trainers' trace observer).
 */
class RooflineAnalyzer
{
  public:
    RooflineAnalyzer(const CostModel &model, double dispatch_overhead,
                     std::string label, HostPeaks peaks = {});

    /** Classify and accumulate one trace (replayed internally). */
    void addTrace(const Trace &trace,
                  const std::vector<std::string> &layer_names);

    /** Number of traces accumulated so far. */
    std::size_t traces() const { return epochs_; }

    /** Finish: name-sorted groups, grand totals. */
    RooflineReport report() const;

  private:
    CostModel model_;
    double dispatch_;
    std::string label_;
    HostPeaks peaks_;
    std::size_t epochs_ = 0;
    double elapsed_ = 0.0;
    double gpuBusy_ = 0.0;
    double hostBusy_ = 0.0;
    double wall_ = 0.0;
    RooflineGroup total_;
    std::map<std::string, RooflineGroup> byKernel_;
    std::map<std::string, RooflineGroup> byLayer_;
    std::map<int, RooflineGroup> byPhase_;  ///< keyed by phase index
    std::map<int, HostOpGroup> byHostOp_;   ///< keyed by kind index
};

/**
 * One-shot convenience: analyze a single trace.
 */
RooflineReport analyzeRoofline(const Trace &trace, const CostModel &model,
                               double dispatch_overhead,
                               const std::vector<std::string> &layer_names,
                               std::string label);

/**
 * JSON for one report (schema documented in docs/OBSERVABILITY.md).
 * Numeric leaves only, so obs/diff.hh can align any two reports by
 * dotted path.
 */
std::string rooflineReportToJson(const RooflineReport &report);

/** JSON for a suite of reports, keyed by label. */
std::string rooflineSuiteToJson(const std::vector<RooflineReport> &suite);

/**
 * Fig-5-style utilization table: one row per report with utilization,
 * arithmetic intensity, achieved-vs-peak fractions and bound-class
 * time shares, then the measured wall, rates and class of its kernels.
 */
std::string renderRooflineTable(const std::vector<RooflineReport> &suite);

/** Per-kernel-kind attribution table for one report. */
std::string renderRooflineKernels(const RooflineReport &report);

} // namespace gnnperf

#endif // GNNPERF_OBS_ROOFLINE_HH

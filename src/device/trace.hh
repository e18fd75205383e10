/**
 * @file
 * Execution trace records.
 *
 * gnnperf runs every workload for real (real floating point math, real
 * data movement) on the host CPU, and *additionally* emits a trace of
 * the operations a GPU deployment would execute: GPU kernels (with their
 * real FLOP and byte counts) and host-side framework operations (graph
 * collation, metadata construction, Python-level dispatch). The trace is
 * replayed against a calibrated cost model (see cost_model.hh) by the
 * Timeline (see timeline.hh) to obtain deterministic simulated times,
 * phase breakdowns and GPU utilization — this substitutes for the
 * paper's nvprof/Nsight measurements on a real 2080Ti.
 */

#ifndef GNNPERF_DEVICE_TRACE_HH
#define GNNPERF_DEVICE_TRACE_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace gnnperf {

/** Training-loop phase a trace record belongs to (paper Fig. 1/2). */
enum class Phase : uint8_t {
    DataLoading,  ///< batch collation + host→device transfer
    Forward,      ///< forward propagation
    Backward,     ///< backward propagation
    Update,       ///< optimizer parameter update
    Evaluation,   ///< validation / test passes
    Other,        ///< everything else (loss bookkeeping, logging, ...)
};

/** Number of distinct phases. */
constexpr int kNumPhases = 6;

/** Human-readable phase name. */
const char *phaseName(Phase phase);

/** Kind of host-side (CPU) operation, with distinct cost rates. */
enum class HostOpKind : uint8_t {
    Memcpy,         ///< contiguous bulk copy (PyTorch-backed tensor op)
    IndexedGather,  ///< per-element indexed copy (generic, slow path)
    MetaBuild,      ///< graph/type metadata construction (per item)
    H2DTransfer,    ///< host→device PCIe transfer
    Dispatch,       ///< framework-level op dispatch overhead
};

/** Number of distinct host-op kinds. */
constexpr int kNumHostOpKinds = 5;

/** Human-readable host-op kind name ("memcpy", "indexed_gather", …). */
const char *hostOpKindName(HostOpKind kind);

/** A GPU kernel launch observed during real execution. */
struct KernelRecord
{
    const char *name;    ///< static kernel name (e.g. "sgemm")
    double flops;        ///< floating point operations performed
    double bytes;        ///< bytes read + written by the kernel
    Phase phase;         ///< phase active when the kernel was launched
    int16_t layer;       ///< layer-scope id, -1 when outside any layer
    float wallNs = 0.0f; ///< host wall ns since the previous record
};

/** A host-side operation observed during real execution. */
struct HostRecord
{
    const char *name;    ///< static op name (e.g. "collate.copy_feat")
    HostOpKind kind;     ///< which cost rate applies
    double bytes;        ///< bytes touched
    double items;        ///< item count (per-item overheads, e.g. graphs)
    Phase phase;         ///< phase active when the op ran
    int16_t layer;       ///< layer-scope id, -1 when outside any layer
    float wallNs = 0.0f; ///< host wall ns since the previous record
};

/**
 * Ordered trace entry. Kernel and host payloads share storage: both
 * records are trivially copyable, so the tagged union halves the
 * per-entry footprint (and memcpy traffic on vector growth) relative
 * to embedding both records side by side.
 */
struct TraceEntry
{
    bool isKernel;
    union {
        KernelRecord kernel;  ///< valid when isKernel
        HostRecord host;      ///< valid when !isKernel
    };

    explicit TraceEntry(const KernelRecord &k)
        : isKernel(true), kernel(k)
    {}

    explicit TraceEntry(const HostRecord &h)
        : isKernel(false), host(h)
    {}
};

static_assert(std::is_trivially_copyable_v<TraceEntry>,
              "TraceEntry must stay memcpy-able");
static_assert(sizeof(TraceEntry) <=
                  sizeof(KernelRecord) + sizeof(HostRecord),
              "TraceEntry must not store both payloads");

/** An append-only execution trace. */
class Trace
{
  public:
    /**
     * Initial entry capacity. A profiled epoch emits hundreds to
     * thousands of records; reserving up front keeps the enabled
     * profiler from paying the early vector doublings every epoch
     * (clear() preserves capacity between epochs).
     */
    static constexpr std::size_t kInitialCapacity = 1024;

    Trace() { entries_.reserve(kInitialCapacity); }

    void
    addKernel(const KernelRecord &k)
    {
        entries_.emplace_back(k);
    }

    void
    addHost(const HostRecord &h)
    {
        entries_.emplace_back(h);
    }

    const std::vector<TraceEntry> &entries() const { return entries_; }
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    void clear() { entries_.clear(); }

    /** Total kernel launches in the trace. */
    std::size_t kernelCount() const;

    /** Sum of kernel FLOPs / bytes over the trace. */
    double totalFlops() const;
    double totalKernelBytes() const;

  private:
    std::vector<TraceEntry> entries_;
};

} // namespace gnnperf

#endif // GNNPERF_DEVICE_TRACE_HH

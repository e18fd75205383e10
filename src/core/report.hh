/**
 * @file
 * Paper-style rendering of experiment results (the tables the bench
 * binaries print).
 */

#ifndef GNNPERF_CORE_REPORT_HH
#define GNNPERF_CORE_REPORT_HH

#include <string>

#include "core/experiment.hh"

namespace gnnperf {

/** "0.0049s/5.82s" — time per epoch / total training time. */
std::string epochTotalCell(double epoch_seconds, double total_seconds);

/** "80.8±1.3" — accuracy mean ± s.d. in percent. */
std::string accuracyCell(const SeriesStats &stats);

/** Render Table IV/V-style rows for one dataset. */
std::string renderNodeTable(const std::string &dataset_name,
                            const std::vector<NodeExperimentRow> &rows);
std::string renderGraphTable(const std::string &dataset_name,
                             const std::vector<GraphExperimentRow> &rows);

/** Render the Fig. 1/2 breakdown grid for one dataset. */
std::string renderBreakdownTable(const std::string &dataset_name,
                                 const std::vector<ProfileCell> &cells);

/** Render the Fig. 4 memory grid. */
std::string renderMemoryTable(const std::string &dataset_name,
                              const std::vector<ProfileCell> &cells);

/** Render the Fig. 5 utilization grid. */
std::string renderUtilizationTable(const std::string &dataset_name,
                                   const std::vector<ProfileCell> &cells);

/** Render the Fig. 3 layer-wise table. */
std::string renderLayerwiseTable(const std::string &dataset_name,
                                 const std::vector<ProfileCell> &cells);

/** Render the Fig. 6 multi-GPU table. */
std::string renderMultiGpuTable(const std::string &dataset_name,
                                const std::vector<MultiGpuCell> &cells);

/** Render Table I for a set of dataset infos. */
std::string renderDatasetTable(const std::vector<DatasetInfo> &infos);

// ----- machine-readable outputs ---------------------------------------------

/** CSV forms of the tables (for downstream plotting). */
std::string nodeTableCsv(const std::string &dataset_name,
                         const std::vector<NodeExperimentRow> &rows);
std::string graphTableCsv(const std::string &dataset_name,
                          const std::vector<GraphExperimentRow> &rows);
std::string profileGridCsv(const std::string &dataset_name,
                           const std::vector<ProfileCell> &cells);
std::string multiGpuCsv(const std::string &dataset_name,
                        const std::vector<MultiGpuCell> &cells);
std::string datasetInfoCsv(const std::vector<DatasetInfo> &infos);

/**
 * When GNNPERF_CSV_DIR is set, write `content` to
 * `$GNNPERF_CSV_DIR/<filename>` and report where; otherwise no-op.
 */
void maybeWriteCsv(const std::string &filename,
                   const std::string &content);

/**
 * Append the process-wide Cuda allocator series (logical/reserved
 * peaks, acquisition and backing-allocation counts, cache hits) to a
 * BENCH series list. Reads DeviceManager's MemoryStats directly, so it
 * works with stats sampling off.
 */
void appendAllocatorSeries(
    std::vector<std::pair<std::string, double>> &series);

/**
 * Append the thread-pool series (configured width, launch and task
 * counts) to a BENCH series list. Only deterministic counters: steals
 * and barrier waits depend on scheduling and would not survive a
 * 0%-tolerance diff of back-to-back runs.
 */
void appendParallelSeries(
    std::vector<std::pair<std::string, double>> &series);

/**
 * Append the recorded-IR dispatch series (`ir.*`): ops recorded,
 * fused launches and launches saved by fusion. Deterministic at every
 * thread width, so graph-mode runs diff clean at 0% tolerance.
 */
void appendIrSeries(
    std::vector<std::pair<std::string, double>> &series);

/**
 * When GNNPERF_CSV_DIR is set and stats sampling is on, write the
 * registry's JSON snapshot (`<prefix>_stats.json`), per-epoch series
 * CSV (`<prefix>_stats_epochs.csv`) and run-event log
 * (`<prefix>_events.jsonl`) next to the table CSVs; otherwise no-op.
 */
void maybeWriteStatsArtifacts(const std::string &prefix);

} // namespace gnnperf

#endif // GNNPERF_CORE_REPORT_HH

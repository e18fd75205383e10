#include "core/report.hh"

#include "common/env.hh"
#include "common/fs.hh"
#include "common/logging.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "device/device.hh"
#include "device/trace_export.hh"
#include "ir/ir.hh"
#include "obs/stats.hh"
#include "obs/stats_export.hh"
#include "parallel/thread_pool.hh"

namespace gnnperf {

std::string
epochTotalCell(double epoch_seconds, double total_seconds)
{
    return formatDuration(epoch_seconds) + "/" +
           formatDuration(total_seconds);
}

std::string
accuracyCell(const SeriesStats &stats)
{
    return strprintf("%.1f±%.1f", stats.mean * 100.0,
                     stats.stddev * 100.0);
}

namespace {

std::string
cellKey(ModelKind model, FrameworkKind fw)
{
    return std::string(modelName(model)) + "/" + frameworkName(fw);
}

} // namespace

std::string
renderNodeTable(const std::string &dataset_name,
                const std::vector<NodeExperimentRow> &rows)
{
    TextTable table;
    table.setHeader({"Dataset", "Model", "Framework", ">Epoch/Total",
                     ">Acc±s.d.", ">Epochs"});
    for (const auto &row : rows) {
        table.addRow({dataset_name, modelName(row.model),
                      frameworkName(row.framework),
                      epochTotalCell(row.epochTime, row.totalTime),
                      accuracyCell(row.accuracy),
                      strprintf("%d", row.epochsRun)});
    }
    return table.render();
}

std::string
renderGraphTable(const std::string &dataset_name,
                 const std::vector<GraphExperimentRow> &rows)
{
    TextTable table;
    table.setHeader({"Dataset", "Model", "Framework", ">Epoch/Total",
                     ">Acc±s.d.", ">Epochs"});
    for (const auto &row : rows) {
        table.addRow({dataset_name, modelName(row.model),
                      frameworkName(row.framework),
                      epochTotalCell(row.epochTime, row.totalTime),
                      accuracyCell(row.accuracy),
                      strprintf("%d", row.epochsRun)});
    }
    return table.render();
}

std::string
renderBreakdownTable(const std::string &dataset_name,
                     const std::vector<ProfileCell> &cells)
{
    TextTable table;
    table.setHeader({"Dataset", "Config", ">Batch", ">Load(ms)",
                     ">Fwd(ms)", ">Bwd(ms)", ">Update(ms)",
                     ">Other(ms)", ">Epoch(ms)", ">Load%"});
    for (const auto &cell : cells) {
        const EpochBreakdown &b = cell.profile.breakdown;
        const double total = b.total();
        table.addRow({dataset_name,
                      cellKey(cell.model, cell.framework),
                      strprintf("%ld", cell.batchSize),
                      strprintf("%.2f", b.dataLoading * 1e3),
                      strprintf("%.2f", b.forward * 1e3),
                      strprintf("%.2f", b.backward * 1e3),
                      strprintf("%.2f", b.update * 1e3),
                      strprintf("%.2f", b.other * 1e3),
                      strprintf("%.2f", total * 1e3),
                      strprintf("%.0f%%",
                                total > 0.0
                                    ? b.dataLoading / total * 100.0
                                    : 0.0)});
    }
    return table.render();
}

std::string
renderMemoryTable(const std::string &dataset_name,
                  const std::vector<ProfileCell> &cells)
{
    TextTable table;
    table.setHeader({"Dataset", "Config", ">Batch", ">Peak mem",
                     ">Peak (MiB)", ">Reserved (MiB)"});
    for (const auto &cell : cells) {
        table.addRow({dataset_name,
                      cellKey(cell.model, cell.framework),
                      strprintf("%ld", cell.batchSize),
                      formatBytes(cell.profile.peakMemoryBytes),
                      strprintf("%.1f",
                                static_cast<double>(
                                    cell.profile.peakMemoryBytes) /
                                    (1024.0 * 1024.0)),
                      strprintf("%.1f",
                                static_cast<double>(
                                    cell.profile.reservedPeakBytes) /
                                    (1024.0 * 1024.0))});
    }
    return table.render();
}

std::string
renderUtilizationTable(const std::string &dataset_name,
                       const std::vector<ProfileCell> &cells)
{
    TextTable table;
    table.setHeader({"Dataset", "Config", ">Batch", ">GPU util",
                     ">Kernels/epoch"});
    for (const auto &cell : cells) {
        table.addRow({dataset_name,
                      cellKey(cell.model, cell.framework),
                      strprintf("%ld", cell.batchSize),
                      strprintf("%.1f%%",
                                cell.profile.gpuUtilization * 100.0),
                      strprintf("%zu", cell.profile.kernelsPerEpoch)});
    }
    return table.render();
}

std::string
renderLayerwiseTable(const std::string &dataset_name,
                     const std::vector<ProfileCell> &cells)
{
    TextTable table;
    table.setHeader({"Dataset", "Config", "Layer", ">Time/iter (µs)"});
    for (const auto &cell : cells) {
        for (const auto &[layer, seconds] : cell.profile.layerTimes) {
            table.addRow({dataset_name,
                          cellKey(cell.model, cell.framework), layer,
                          strprintf("%.1f", seconds * 1e6)});
        }
        table.addSeparator();
    }
    return table.render();
}

std::string
renderMultiGpuTable(const std::string &dataset_name,
                    const std::vector<MultiGpuCell> &cells)
{
    TextTable table;
    table.setHeader({"Dataset", "Config", ">Batch", ">GPUs",
                     ">Epoch (s)"});
    for (const auto &cell : cells) {
        table.addRow({dataset_name,
                      cellKey(cell.model, cell.framework),
                      strprintf("%ld", cell.batchSize),
                      strprintf("%d", cell.gpus),
                      strprintf("%.3f", cell.epochTime)});
    }
    return table.render();
}

std::string
nodeTableCsv(const std::string &dataset_name,
             const std::vector<NodeExperimentRow> &rows)
{
    std::string out =
        "dataset,model,framework,epoch_s,total_s,acc_mean,acc_std,"
        "epochs\n";
    for (const auto &row : rows) {
        out += strprintf("%s,%s,%s,%.6f,%.3f,%.4f,%.4f,%d\n",
                         dataset_name.c_str(), modelName(row.model),
                         frameworkName(row.framework), row.epochTime,
                         row.totalTime, row.accuracy.mean,
                         row.accuracy.stddev, row.epochsRun);
    }
    return out;
}

std::string
graphTableCsv(const std::string &dataset_name,
              const std::vector<GraphExperimentRow> &rows)
{
    std::string out =
        "dataset,model,framework,epoch_s,total_s,acc_mean,acc_std,"
        "epochs\n";
    for (const auto &row : rows) {
        out += strprintf("%s,%s,%s,%.6f,%.3f,%.4f,%.4f,%d\n",
                         dataset_name.c_str(), modelName(row.model),
                         frameworkName(row.framework), row.epochTime,
                         row.totalTime, row.accuracy.mean,
                         row.accuracy.stddev, row.epochsRun);
    }
    return out;
}

std::string
profileGridCsv(const std::string &dataset_name,
               const std::vector<ProfileCell> &cells)
{
    std::string out =
        "dataset,model,framework,batch,load_s,forward_s,backward_s,"
        "update_s,other_s,epoch_s,gpu_util,peak_bytes,"
        "reserved_peak_bytes,kernels\n";
    for (const auto &cell : cells) {
        const EpochBreakdown &b = cell.profile.breakdown;
        out += strprintf(
            "%s,%s,%s,%ld,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.4f,%zu,%zu,"
            "%zu\n",
            dataset_name.c_str(), modelName(cell.model),
            frameworkName(cell.framework), cell.batchSize,
            b.dataLoading, b.forward, b.backward, b.update, b.other,
            b.total(), cell.profile.gpuUtilization,
            cell.profile.peakMemoryBytes,
            cell.profile.reservedPeakBytes,
            cell.profile.kernelsPerEpoch);
    }
    return out;
}

std::string
multiGpuCsv(const std::string &dataset_name,
            const std::vector<MultiGpuCell> &cells)
{
    std::string out = "dataset,model,framework,batch,gpus,epoch_s\n";
    for (const auto &cell : cells) {
        out += strprintf("%s,%s,%s,%ld,%d,%.6f\n",
                         dataset_name.c_str(), modelName(cell.model),
                         frameworkName(cell.framework), cell.batchSize,
                         cell.gpus, cell.epochTime);
    }
    return out;
}

std::string
datasetInfoCsv(const std::vector<DatasetInfo> &infos)
{
    std::string out =
        "dataset,graphs,avg_nodes,avg_edges,features,classes\n";
    for (const auto &info : infos) {
        out += strprintf("%s,%ld,%.2f,%.2f,%ld,%ld\n",
                         info.name.c_str(), info.numGraphs,
                         info.avgNodes, info.avgEdges,
                         info.numFeatures, info.numClasses);
    }
    return out;
}

void
maybeWriteCsv(const std::string &filename, const std::string &content)
{
    const std::string dir = envString("GNNPERF_CSV_DIR", "");
    if (dir.empty())
        return;
    if (!ensureDir(dir)) {
        gnnperf_fatal("GNNPERF_CSV_DIR=", dir,
                      ": not a directory and could not be created — "
                      "refusing to drop ", filename);
    }
    const std::string path = dir + "/" + filename;
    writeFile(path, content);
    gnnperf_inform("wrote ", path);
}

void
appendAllocatorSeries(
    std::vector<std::pair<std::string, double>> &series)
{
    const MemoryStats &s =
        DeviceManager::instance().stats(DeviceKind::Cuda);
    series.emplace_back("alloc.cuda.acquires",
                        static_cast<double>(s.acquireCount));
    series.emplace_back("alloc.cuda.device_allocs",
                        static_cast<double>(s.allocCount));
    series.emplace_back("alloc.cuda.cache_hits",
                        static_cast<double>(s.cacheHits));
    series.emplace_back("alloc.cuda.logical_peak",
                        static_cast<double>(s.peakBytes));
    series.emplace_back("alloc.cuda.reserved_peak",
                        static_cast<double>(s.reservedPeak));
}

void
appendParallelSeries(
    std::vector<std::pair<std::string, double>> &series)
{
    series.emplace_back(
        "parallel.threads",
        static_cast<double>(par::ThreadPool::instance().numThreads()));
    // Launches and executed chunks are functions of the kernel shapes
    // and the configured width, not of scheduling, so they diff clean
    // at 0% tolerance (unlike steals/barrier waits, which stay out).
    for (const auto &snap : stats::Registry::instance().snapshotAll()) {
        if (snap.name == "parallel.launches" ||
            snap.name == "parallel.tasks")
            series.emplace_back(snap.name, snap.value);
    }
}

void
appendIrSeries(std::vector<std::pair<std::string, double>> &series)
{
    const ir::IrCounters &c = ir::counters();
    series.emplace_back("ir.recorded_ops",
                        static_cast<double>(c.recordedOps));
    series.emplace_back("ir.fused_launches",
                        static_cast<double>(c.fusedLaunches));
    series.emplace_back("ir.launches_saved",
                        static_cast<double>(c.launchesSaved));
}

void
maybeWriteStatsArtifacts(const std::string &prefix)
{
    if (!stats::samplingEnabled())
        return;
    maybeWriteCsv(prefix + "_stats.json", stats::statsToJson());
    maybeWriteCsv(prefix + "_stats_epochs.csv",
                  stats::statsSeriesToCsv());
    maybeWriteCsv(prefix + "_events.jsonl", stats::eventsToJsonl());
}

std::string
renderDatasetTable(const std::vector<DatasetInfo> &infos)
{
    TextTable table;
    table.setHeader({"Dataset", ">#Graph", ">#Nodes(Avg.)",
                     ">#Edges(Avg.)", ">#Feature", ">#Classes"});
    for (const auto &info : infos) {
        table.addRow({info.name, strprintf("%ld", info.numGraphs),
                      strprintf("%.2f", info.avgNodes),
                      strprintf("%.2f", info.avgEdges),
                      strprintf("%ld", info.numFeatures),
                      strprintf("%ld", info.numClasses)});
    }
    return table.render();
}

} // namespace gnnperf

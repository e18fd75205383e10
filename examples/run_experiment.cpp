/**
 * @file
 * General experiment runner — the kitchen-sink CLI over the public
 * API. Runs any model × framework × dataset combination with explicit
 * knobs and prints the paper-style row plus the profile.
 *
 * Usage:
 *   run_experiment --task node|graph [--model GCN]
 *                  [--dataset cora|pubmed|enzymes|dd|mnist]
 *                  [--epochs N] [--folds N] [--seeds N]
 *                  [--graphs N] [--verbose]
 *                  [--threads N]
 *                  [--ir eager|graph]
 *                  [--allocator direct|caching]
 *                  [--stats-out FILE] [--events-out FILE]
 *                  [--roofline-out FILE] [--bench-out FILE]
 *                  [--trace-out FILE] [--version] [--help]
 *
 * Both frameworks are always run and compared side by side, as in the
 * paper's tables. Flags accept both `--key value` and `--key=value`;
 * an unknown flag, a missing value or a value on a switch is a fatal
 * error (exit 1) that names the flag.
 *
 * --threads sets the host thread-pool width for every kernel (default:
 * GNNPERF_THREADS, else hardware concurrency). `--threads 1` runs the
 * exact historical serial path; any width is byte-identical on the
 * deterministic kernels, so accuracy and logical-memory series match
 * across thread counts.
 *
 * --ir selects the dispatch path (default: eager; GNNPERF_IR
 * overrides the default). `graph` records each training iteration
 * into the op-graph IR, fuses gather→elementwise→scatter chains into
 * single launches and replays them (src/ir, docs/IR.md). Both paths
 * are numerically bit-identical at every thread width; only launch
 * counts and spans change. BENCH JSONs carry the `ir.*` dispatch
 * series either way.
 *
 * --allocator selects the device allocator for the process (default:
 * caching; GNNPERF_ALLOCATOR overrides the default). Logical peak
 * memory (the Fig. 4 number) is allocator-invariant; only the
 * reserved-pool numbers and device allocation counts change.
 *
 * --stats-out writes the metrics registry's JSON snapshot after the
 * run; --events-out writes the per-epoch run-event log as JSONL.
 * Either flag turns stats sampling on for the process.
 *
 * --roofline-out re-runs the configuration with per-epoch roofline
 * attribution, prints the Fig-5-style utilization table plus the
 * per-kernel breakdowns, and writes the JSON suite (obs/roofline.hh).
 * Each group is priced on the modeled 2080Ti and also measured: its
 * summed per-record host wall windows, achieved rates and a measured
 * bound class against two host peaks (GEMM, STREAM triad) taken once
 * at the start. Every wall-derived JSON leaf sits under a `measured`
 * key, so `gnnperf_diff --ignore measured` compares the modeled rest.
 *
 * --bench-out writes a BENCH baseline: the per-row performance series
 * (epoch/total seconds, accuracy, epoch count) plus the per-framework
 * stats counters, as the flat JSON `gnnperf_diff` compares. Turns
 * stats sampling on.
 *
 * --trace-out writes the merged execution trace (obs/exec_trace.hh):
 * simulated host/GPU tracks, real wall-clock host spans and the
 * per-device memory timeline in one Chrome/Perfetto JSON, and prints
 * the cuda peak-attribution table. GNNPERF_TRACE=FILE is the env
 * equivalent (the flag wins when both are set). Inspect or merge the
 * files with tools/gnnperf_trace.
 *
 * --version prints build provenance (git, compiler, build type,
 * sanitizers) and exits; --help prints the flags and exits.
 *
 * Sizes are checked before anything trains: --epochs and --folds must
 * be at least 1, and --graphs at least 10, since every graph run
 * splits the dataset into the paper's ten stratified folds. A bad value
 * is a fatal error (exit 1).
 *
 * Examples:
 *   run_experiment --task node --model GAT --dataset cora --epochs 100
 *   run_experiment --task graph --model GatedGCN --dataset enzymes \
 *                  --epochs 20 --folds 3
 *   run_experiment --task node --model GCN --dataset cora --epochs 3 \
 *                  --stats-out stats.json --events-out events.jsonl
 *   run_experiment --task graph --model GatedGCN --dataset enzymes \
 *                  --graphs 60 --epochs 2 --folds 1 \
 *                  --roofline-out roofline.json --bench-out bench.json
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/buildinfo.hh"
#include "common/fs.hh"
#include "common/logging.hh"
#include "common/string_utils.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "device/device.hh"
#include "device/trace_export.hh"
#include "ir/ir.hh"
#include "obs/diff.hh"
#include "obs/exec_trace.hh"
#include "obs/roofline.hh"
#include "obs/stats.hh"
#include "obs/stats_export.hh"
#include "parallel/thread_pool.hh"

using namespace gnnperf;

namespace {

/** One accepted flag: the table behind parsing and --help. */
struct Flag
{
    const char *name;
    const char *value;  ///< metavar shown in --help; nullptr: a switch
    const char *help;
};

const Flag kFlags[] = {
    {"task", "node|graph", "task (default graph)"},
    {"model", "NAME", "GCN GAT GIN GraphSage MoNet GatedGCN"},
    {"dataset", "NAME", "node: cora|pubmed, graph: enzymes|dd|mnist"},
    {"epochs", "N", "epochs, >= 1 (node 60, graph 15)"},
    {"folds", "N", "graph folds to run, >= 1 (default 2)"},
    {"graphs", "N", "graph dataset size, >= 10"},
    {"seeds", "N", "node-task seeds (default 1)"},
    {"threads", "N", "thread-pool width"},
    {"ir", "eager|graph", "dispatch path"},
    {"allocator", "direct|caching", "device allocator"},
    {"stats-out", "FILE", "metrics registry JSON"},
    {"events-out", "FILE", "per-epoch run events (JSONL)"},
    {"roofline-out", "FILE", "roofline suite JSON"},
    {"bench-out", "FILE", "BENCH baseline JSON"},
    {"trace-out", "FILE", "merged execution trace JSON"},
    {"verbose", nullptr, "per-epoch progress"},
    {"version", nullptr, "build provenance, then exit"},
    {"help", nullptr, "this text, then exit"},
};

void
printUsage()
{
    std::printf(
        "usage: run_experiment [flags]   (--key value or --key=value)\n");
    for (const Flag &f : kFlags) {
        std::string lhs = std::string("--") + f.name;
        if (f.value != nullptr)
            lhs += std::string(" ") + f.value;
        std::printf("  %-26s %s\n", lhs.c_str(), f.help);
    }
}

/** Parse --key value / --key=value against kFlags; fatal otherwise. */
std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            gnnperf_fatal("unexpected argument: ", key);
        key = key.substr(2);
        const std::size_t eq = key.find('=');
        const std::string name = key.substr(0, eq);
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags) {
            if (name == f.name)
                flag = &f;
        }
        if (flag == nullptr)
            gnnperf_fatal("unknown flag --", name, " (see --help)");
        if (flag->value == nullptr) {
            if (eq != std::string::npos)
                gnnperf_fatal("--", name, " takes no value");
            args.emplace(name, "1");
        } else if (eq != std::string::npos) {
            args[name] = key.substr(eq + 1);
        } else {
            if (i + 1 >= argc)
                gnnperf_fatal("--", name, " needs a value");
            args[name] = argv[++i];
        }
    }
    return args;
}

std::string
get(const std::map<std::string, std::string> &args, const char *key,
    const std::string &fallback)
{
    auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
}

int64_t
getInt(const std::map<std::string, std::string> &args, const char *key,
       int64_t fallback)
{
    auto it = args.find(key);
    return it == args.end() ? fallback : std::atoll(it->second.c_str());
}

/** The integer flag `key`, fatal when given below `min`. */
int64_t
getIntAtLeast(const std::map<std::string, std::string> &args,
              const char *key, int64_t fallback, int64_t min,
              const char *why)
{
    const int64_t value = getInt(args, key, fallback);
    if (value < min)
        gnnperf_fatal("--", key, " ", value, " is out of range: ", why);
    return value;
}

/** Write --stats-out / --events-out artifacts after the run. */
void
writeStatsOutputs(const std::map<std::string, std::string> &args)
{
    const std::string stats_path = get(args, "stats-out", "");
    const std::string events_path = get(args, "events-out", "");
    if (!stats_path.empty()) {
        writeFile(stats_path, stats::statsToJson());
        std::printf("wrote %s\n", stats_path.c_str());
    }
    if (!events_path.empty()) {
        writeFile(events_path, stats::eventsToJsonl());
        std::printf("wrote %s\n", events_path.c_str());
    }
}

/** Print the roofline tables and write the JSON suite. */
void
writeRooflineOutputs(const std::string &path,
                     const std::vector<RooflineReport> &suite)
{
    if (!suite.empty()) {
        std::printf("host peaks (%d threads): GEMM %.2f GFLOP/s, "
                    "triad %.2f GB/s\n",
                    suite.front().hostThreads,
                    suite.front().peaks.gemmFlopsPerSec / 1e9,
                    suite.front().peaks.triadBytesPerSec / 1e9);
    }
    std::printf("%s\n", renderRooflineTable(suite).c_str());
    for (const auto &report : suite) {
        std::printf("%s\n%s\n", report.label.c_str(),
                    renderRooflineKernels(report).c_str());
    }
    writeFile(path, rooflineSuiteToJson(suite));
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Per-framework stats counters worth gating on: the counters whose
 * names carry the framework, so both frameworks' work shows up in one
 * process-wide snapshot without double counting.
 */
void
appendStatsSeries(std::vector<std::pair<std::string, double>> &series)
{
    static const char *kTracked[] = {
        "backend.pyg.edges_touched", "backend.pyg.collate_bytes",
        "backend.dgl.edges_touched", "backend.dgl.collate_bytes",
        "backend.dgl.dispatch_ops", "kernel.spmm.nnz",
    };
    for (const auto &snap : stats::Registry::instance().snapshotAll()) {
        for (const char *name : kTracked) {
            if (snap.name == name)
                series.emplace_back("stats." + snap.name, snap.value);
        }
    }
}

/** Write the BENCH baseline JSON for the run's rows. */
void
writeBenchOutput(const std::string &path, const std::string &bench_name,
                 std::vector<std::pair<std::string, double>> series)
{
    appendStatsSeries(series);
    appendAllocatorSeries(series);
    appendParallelSeries(series);
    appendIrSeries(series);
    writeFile(path, diff::baselineToJson(bench_name, series));
    std::printf("wrote %s\n", path.c_str());
}

/** --trace-out FILE, falling back to GNNPERF_TRACE=FILE. */
std::string
tracePath(const std::map<std::string, std::string> &args)
{
    std::string path = get(args, "trace-out", "");
    if (path.empty()) {
        if (const char *env = std::getenv("GNNPERF_TRACE"))
            path = env;
    }
    return path;
}

/** Print the peak-attribution table and write the merged trace. */
void
writeTraceOutput(const std::string &path)
{
    if (path.empty())
        return;
    ExecTrace &trace = ExecTrace::instance();
    trace.disable();
    std::printf("%s\n", trace.peakTable(DeviceKind::Cuda).c_str());
    trace.writeTo(path);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = parseArgs(argc, argv);
    if (args.count("help") > 0) {
        printUsage();
        return 0;
    }
    if (args.count("version") > 0) {
        std::printf("%s\n",
                    buildinfo::versionLine("run_experiment").c_str());
        return 0;
    }
    const std::string task = get(args, "task", "graph");
    const ModelKind model =
        modelKindFromName(get(args, "model", "GCN"));
    const std::string dataset_name =
        get(args, "dataset", task == "node" ? "cora" : "enzymes");
    const bool verbose = args.count("verbose") > 0;
    const int64_t threads = getInt(args, "threads", 0);
    if (threads > 0)
        par::ThreadPool::instance().setNumThreads(
            static_cast<int>(threads));
    const std::string allocator = get(args, "allocator", "");
    if (!allocator.empty()) {
        DeviceManager::instance().setAllocator(
            allocatorKindFromName(allocator));
    }
    const std::string ir_mode = get(args, "ir", "");
    if (!ir_mode.empty())
        ir::setMode(ir::modeFromString(ir_mode.c_str()));
    const std::string roofline_path = get(args, "roofline-out", "");
    const std::string bench_path = get(args, "bench-out", "");
    if (args.count("stats-out") > 0 || args.count("events-out") > 0 ||
        !bench_path.empty())
        stats::setSamplingEnabled(true);
    // Enable before dataset construction so the memory timeline covers
    // the dataset's allocations too.
    const std::string trace_path = tracePath(args);
    if (!trace_path.empty())
        ExecTrace::instance().enable();

    if (task == "node") {
        NodeDataset ds;
        if (iequals(dataset_name, "cora"))
            ds = makeCora();
        else if (iequals(dataset_name, "pubmed"))
            ds = makePubMed();
        else
            gnnperf_fatal("node task supports cora|pubmed, got ",
                          dataset_name);
        const int epochs = static_cast<int>(getIntAtLeast(
            args, "epochs", 60, 1, "need at least one epoch"));
        const int seeds = static_cast<int>(getInt(args, "seeds", 1));
        auto rows = runNodeClassification(ds, {model}, seeds, epochs,
                                          verbose);
        std::printf("%s\n", renderNodeTable(ds.name, rows).c_str());
        if (!bench_path.empty()) {
            std::vector<std::pair<std::string, double>> series;
            for (const auto &row : rows) {
                const std::string key =
                    std::string(modelName(row.model)) + "/" +
                    frameworkName(row.framework);
                series.emplace_back(key + ".epoch_s", row.epochTime);
                series.emplace_back(key + ".total_s", row.totalTime);
                series.emplace_back(key + ".acc_mean",
                                    row.accuracy.mean);
                series.emplace_back(key + ".epochs", row.epochsRun);
            }
            writeBenchOutput(bench_path, "node_" + dataset_name,
                             std::move(series));
        }
        if (!roofline_path.empty()) {
            writeRooflineOutputs(
                roofline_path,
                runNodeRoofline(ds, {model}, epochs, /*seed=*/1000));
        }
        writeTraceOutput(trace_path);
        writeStatsOutputs(args);
        return 0;
    }

    if (task == "graph") {
        // Checked before the dataset is built: every graph run splits
        // it into ten stratified folds, which needs ten graphs.
        const int epochs = static_cast<int>(getIntAtLeast(
            args, "epochs", 15, 1, "need at least one epoch"));
        const int folds = static_cast<int>(getIntAtLeast(
            args, "folds", 2, 1, "need at least one fold"));
        const int64_t graphs =
            args.count("graphs") > 0
                ? getIntAtLeast(args, "graphs", 0, 10,
                                "the 10-fold split needs at least 10 "
                                "graphs")
                : 0;
        GraphDataset ds;
        if (iequals(dataset_name, "enzymes"))
            ds = makeEnzymes(42, graphs > 0 ? graphs : 300);
        else if (iequals(dataset_name, "dd"))
            ds = makeDD(42, graphs > 0 ? graphs : 96, 300);
        else if (iequals(dataset_name, "mnist")) {
            MnistSuperpixelConfig cfg;
            cfg.numGraphs = graphs > 0 ? graphs : 500;
            ds = makeMnistSuperpixels(cfg);
        } else {
            gnnperf_fatal("graph task supports enzymes|dd|mnist, got ",
                          dataset_name);
        }
        auto rows = runGraphClassification(ds, {model}, folds, epochs,
                                           /*seed=*/1, verbose);
        std::printf("%s\n", renderGraphTable(ds.name, rows).c_str());
        if (!bench_path.empty()) {
            std::vector<std::pair<std::string, double>> series;
            for (const auto &row : rows) {
                const std::string key =
                    std::string(modelName(row.model)) + "/" +
                    frameworkName(row.framework);
                series.emplace_back(key + ".epoch_s", row.epochTime);
                series.emplace_back(key + ".total_s", row.totalTime);
                series.emplace_back(key + ".acc_mean",
                                    row.accuracy.mean);
                series.emplace_back(key + ".epochs", row.epochsRun);
            }
            writeBenchOutput(bench_path, "graph_" + dataset_name,
                             std::move(series));
        }
        if (!roofline_path.empty()) {
            writeRooflineOutputs(
                roofline_path,
                runGraphRoofline(ds, {model}, epochs,
                                 /*batch_size=*/0, /*seed=*/1));
        }
        writeTraceOutput(trace_path);
        writeStatsOutputs(args);
        return 0;
    }

    gnnperf_fatal("--task must be node or graph, got ", task);
}

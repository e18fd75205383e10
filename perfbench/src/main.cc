/**
 * @file
 * perfbench: the measured-clock training benchmark.
 *
 *     perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *               [--golden FILE] [--trace-dir DIR]
 *
 * Runs one workload under PyG, then DGL, in one process at a fixed
 * thread-pool width (cores - 1, at most 4). Per framework it times
 * set-up fifteen times, trains a fixed number of epochs derived from
 * --seconds and checks the output fingerprint. With --trace 0 the last
 * stdout line is a JSON object of the end-to-end metrics; with
 * --trace 1 each framework then trains again with layer spans, stats
 * counters and the timing Backend decorator, and the JSON carries the
 * per-layer metrics instead (the untraced numbers are still printed,
 * beside the traced ones, so the tracing overhead shows).
 * perfbench/README.md defines every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/checks.hh"
#include "common/logging.hh"
#include "device/device.hh"
#include "ir/ir.hh"
#include "loop.hh"
#include "obs/exec_trace.hh"
#include "obs/hwprof.hh"
#include "obs/memtrace.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "parallel/thread_pool.hh"
#include "timing_backend.hh"

using namespace gnnperf;
using namespace perfbench;

namespace {

constexpr uint64_t kDefaultSeed = 1;
constexpr int kSetupRepeats = 15;
/// Validation passes the eval metrics are timed over, at least. On the
/// graph workloads an epoch's own pass is one short batch, and only 3-5
/// of them spread past the metric's bound; the untraced pass runs the
/// missing ones between epochs, so they sample the whole run as the
/// steps do.
constexpr int kEvalPasses = 30;
constexpr int kMaxThreads = 4;

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    std::string golden = "perfbench/golden.txt";
    std::string traceDir = ".bench_build/traces";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--golden FILE] "
                 "[--trace-dir DIR]\nworkloads:",
                 msg);
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0' || val[0] == '-')
                usage("--seed needs a non-negative integer");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 600.0)
                usage("--seconds needs a number in (0, 600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace needs 0 or 1");
            a.trace = val == "1";
        } else if (key == "--golden") {
            a.golden = val;
        } else if (key == "--trace-dir") {
            a.traceDir = val;
        } else {
            usage(("unknown flag " + key).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!findWorkload(a.workload))
        usage(("unknown workload " + a.workload).c_str());
    return a;
}

double
median(std::vector<double> v)
{
    gnnperf_assert(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

/**
 * The highest nearest-rank percentile with at least ten samples above
 * its rank: p = floor(100 (n - 10) / n). Needs n > 10.
 */
std::pair<int, double>
tailPercentile(std::vector<double> v)
{
    const auto n = static_cast<int64_t>(v.size());
    gnnperf_assert(n > 10, "tail percentile needs more than 10 steps");
    std::sort(v.begin(), v.end());
    const int64_t p = 100 * (n - 10) / n;
    const int64_t rank = (p * n + 99) / 100;  // ceil(p n / 100), >= 1
    return {static_cast<int>(p), v[static_cast<std::size_t>(rank - 1)]};
}

/** What one pass (untraced or traced) of one framework produced. */
struct Pass
{
    std::vector<double> stepMs;
    std::vector<double> stepCpuMs;
    std::vector<EpochStats> epochs;
    std::vector<double> evalS;     ///< per validation pass, wall
    std::vector<double> evalCpuS;  ///< per validation pass, process CPU
    int64_t trainSamples = 0;
    int64_t valSamples = 0;
    int64_t failed = 0;
    Fingerprint fp;
    StepCounts counts;
};

/**
 * Trains `epochs` epochs, with `evalRepeats` extra timed validation
 * passes (TrainingRun::timeValidations) after each.
 */
Pass
train(TrainingRun &run, int epochs, int evalRepeats)
{
    Pass p;
    for (int e = 0; e < epochs; ++e) {
        p.epochs.push_back(run.runEpoch());
        p.evalS.push_back(p.epochs.back().evalS);
        p.evalCpuS.push_back(p.epochs.back().evalCpuS);
        if (evalRepeats == 0)
            continue;
        for (const auto &[wall, cpu] : run.timeValidations(evalRepeats)) {
            p.evalS.push_back(wall);
            p.evalCpuS.push_back(cpu);
        }
    }
    p.stepMs = run.stepMs();
    p.stepCpuMs = run.stepCpuMs();
    p.trainSamples = run.trainSamples();
    p.valSamples = run.valSamples();
    p.failed = run.failedSteps();
    p.fp = run.fingerprint();
    p.counts = run.counts();
    return p;
}

/** Wall-clock figures, and the same over process CPU time. */
struct EndToEnd
{
    double epochSamplesPerS = 0.0;
    double stepP50 = 0.0;
    double stepTail = 0.0;
    int tailPct = 0;
    double evalSamplesPerS = 0.0;
    double epochSamplesPerCpuS = 0.0;
    double stepCpuP50 = 0.0;
    double evalSamplesPerCpuS = 0.0;
};

EndToEnd
endToEnd(const Pass &p)
{
    EndToEnd e;
    const auto train = static_cast<double>(p.trainSamples);
    const auto val = static_cast<double>(p.valSamples);
    std::vector<double> epoch_rate, epoch_cpu_rate;
    for (const EpochStats &s : p.epochs) {
        epoch_rate.push_back(train / s.wallS);
        epoch_cpu_rate.push_back(train / s.cpuS);
    }
    // Eval is a rate over all passes: on a graph workload each pass is
    // one short batch, and across runs the median of 30 such passes
    // spread wider than their total.
    const double eval_samples = val * static_cast<double>(p.evalS.size());
    e.epochSamplesPerS = median(epoch_rate);
    e.evalSamplesPerS = eval_samples / sum(p.evalS);
    e.stepP50 = median(p.stepMs);
    e.epochSamplesPerCpuS = median(epoch_cpu_rate);
    e.evalSamplesPerCpuS = eval_samples / sum(p.evalCpuS);
    e.stepCpuP50 = median(p.stepCpuMs);
    std::tie(e.tailPct, e.stepTail) = tailPercentile(p.stepMs);
    return e;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    const char *better;  ///< "lower" or "higher"
};

std::string
lower(const char *s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** Per-layer metrics of one traced pass (names get a .<fw> suffix). */
std::vector<Metric>
layerMetrics(const Pass &p, const Tracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<int64_t> self = tracer.selfNs();
    std::map<std::string, double> step_ms, step_self_ms, all_ms;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double ms =
            static_cast<double>(spans[i].endNs - spans[i].startNs) * 1e-6;
        all_ms[spans[i].name] += ms;
        if (spans[i].step >= 0) {
            step_ms[spans[i].name] += ms;
            step_self_ms[spans[i].name] +=
                static_cast<double>(self[i]) * 1e-6;
        }
    }
    const double steps = static_cast<double>(p.stepMs.size());
    const double epochs = static_cast<double>(p.epochs.size());
    double eval_batches = 0.0, modeled_s = 0.0, kernels = 0.0;
    for (const EpochStats &e : p.epochs) {
        eval_batches += static_cast<double>(e.evalBatches);
        modeled_s += e.modeledS;
        kernels += static_cast<double>(e.kernels);
    }
    const StepCounts &c = p.counts;
    auto per_step = [&](double v) { return v / steps; };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const DeviceManager &dm = DeviceManager::instance();
    const double mib = 1024.0 * 1024.0;
    return {
        {"data.next_ms", per_step(step_ms["data.next"]), "ms", "lower"},
        {"data.collate_bytes", per_step(c.collateBytes), "bytes", "lower"},
        {"backends.collate_ms", per_step(step_ms["backends.collate"]), "ms", "lower"},
        {"backends.aggregate_ms", per_step(step_ms["backends.aggregate"]),
         "ms", "lower"},
        {"backends.edge_softmax_ms",
         per_step(step_ms["backends.edge_softmax"]), "ms", "lower"},
        {"backends.gather_ms", per_step(step_ms["backends.gather"]), "ms", "lower"},
        {"backends.readout_ms", per_step(step_ms["backends.readout"]), "ms", "lower"},
        {"backends.edges_touched", per_step(c.edgesTouched), "count", "lower"},
        {"models.forward_ms", per_step(step_ms["models.forward"]), "ms", "lower"},
        {"models.dense_forward_ms", per_step(step_self_ms["models.forward"]),
         "ms", "lower"},
        {"models.forward_gflop_per_s",
         ratio(c.forwardFlops * 1e-9, step_ms["models.forward"] * 1e-3),
         "GFLOP/s", "higher"},
        {"autograd.backward_ms", per_step(step_ms["autograd.backward"]),
         "ms", "lower"},
        {"autograd.backward_gflop_per_s",
         ratio(c.backwardFlops * 1e-9, step_ms["autograd.backward"] * 1e-3),
         "GFLOP/s", "higher"},
        {"nn.loss_ms", per_step(step_ms["nn.loss"]), "ms", "lower"},
        {"nn.adam_ms", per_step(step_ms["nn.adam"]), "ms", "lower"},
        {"tensor.gemm_launches", per_step(c.gemmLaunches), "count", "lower"},
        {"tensor.gemm_gflop", per_step(c.gemmFlops * 1e-9), "GFLOP", "lower"},
        {"tensor.other_launches", per_step(c.tensorOtherLaunches), "count", "lower"},
        {"graph.launches", per_step(c.graphLaunches), "count", "lower"},
        {"graph.gbyte", per_step(c.graphBytes * 1e-9), "GB", "lower"},
        {"graph.spmm_nnz", per_step(c.spmmNnz), "count", "lower"},
        {"graph.sddmm_nnz", per_step(c.sddmmNnz), "count", "lower"},
        {"core.eval_ms", ratio(all_ms["core.eval"], eval_batches), "ms", "lower"},
        {"device.replay_ms", all_ms["device.replay"] / epochs, "ms", "lower"},
        {"device.logical_peak_mb",
         static_cast<double>(dm.peak(DeviceKind::Cuda)) / mib, "MB", "lower"},
        {"device.reserved_peak_mb",
         static_cast<double>(dm.reservedPeak(DeviceKind::Cuda)) / mib,
         "MB", "lower"},
        {"device.device_allocs", per_step(c.deviceAllocs), "count", "lower"},
        {"device.cache_hit_ratio", ratio(c.cacheHits, c.acquires), "ratio", "higher"},
        {"device.modeled_epoch_ms", modeled_s * 1e3 / epochs, "ms", "lower"},
        {"device.modeled_kernels", kernels / epochs, "count", "lower"},
        {"parallel.launches", per_step(c.parLaunches), "count", "lower"},
        {"parallel.tasks", per_step(c.parTasks), "count", "lower"},
        {"parallel.steals", per_step(c.parSteals), "count", "lower"},
        {"parallel.barrier_waits", per_step(c.parBarrierWaits), "count", "lower"},
        {"parallel.pooled_share", ratio(c.parLaunches, c.kernels), "ratio", "higher"},
    };
}

/**
 * Per-layer self-time table of the training steps (forward and
 * backward are separate rows), the per-epoch spans outside the steps,
 * and the coverage: the share of step wall time inside named layer
 * spans (everything but the step span's own self time).
 */
void
printSelfTimes(const Tracer &tracer, const char *fw)
{
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<int64_t> self = tracer.selfNs();
    struct Row
    {
        int64_t calls = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Row> in_step, per_epoch;
    double step_ms = 0.0, step_self_ms = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double ms = static_cast<double>(s.endNs - s.startNs) * 1e-6;
        const double self_ms = static_cast<double>(self[i]) * 1e-6;
        if (std::strcmp(s.name, "core.step") == 0) {
            step_ms += ms;
            step_self_ms += self_ms;
            continue;
        }
        Row &r = (s.step >= 0 ? in_step : per_epoch)[s.name];
        ++r.calls;
        r.totalMs += ms;
        r.selfMs += self_ms;
    }
    std::printf("\n[%s] layer self time inside training steps "
                "(step wall %.1f ms)\n",
                fw, step_ms);
    std::printf("  %-24s %8s %12s %12s %8s\n", "span", "calls", "total_ms",
                "self_ms", "self%");
    for (const auto &[name, r] : in_step) {
        std::printf("  %-24s %8lld %12.2f %12.2f %7.2f%%\n", name.c_str(),
                    static_cast<long long>(r.calls), r.totalMs, r.selfMs,
                    step_ms > 0.0 ? 100.0 * r.selfMs / step_ms : 0.0);
    }
    std::printf("  %-24s %8s %12s %12.2f %7.2f%%\n", "(step, unattributed)",
                "", "", step_self_ms,
                step_ms > 0.0 ? 100.0 * step_self_ms / step_ms : 0.0);
    std::printf("[%s] coverage: %.2f%% of training-step wall time is inside "
                "named layer spans\n",
                fw, step_ms > 0.0 ? 100.0 * (1.0 - step_self_ms / step_ms)
                                  : 0.0);
    std::printf("[%s] spans outside the steps\n", fw);
    for (const auto &[name, r] : per_epoch) {
        std::printf("  %-24s %8lld %12.2f %12.2f\n", name.c_str(),
                    static_cast<long long>(r.calls), r.totalMs, r.selfMs);
    }
}

void
printEndToEnd(const char *label, const Pass &p, const EndToEnd &e)
{
    std::printf("  %-9s epoch %10.2f samples/s | step p50 %9.3f ms | "
                "step p%d %9.3f ms (%zu steps) | eval %10.2f samples/s | "
                "modeled %.6f s/epoch\n",
                label, e.epochSamplesPerS, e.stepP50, e.tailPct, e.stepTail,
                p.stepMs.size(), e.evalSamplesPerS,
                p.epochs.empty() ? 0.0
                                 : p.epochs.back().modeledS);
    std::printf("  %-9s cpu:  epoch %10.2f samples/cpu-s | step p50 %9.3f "
                "cpu-ms | eval %10.2f samples/cpu-s (%zu passes)\n",
                "", e.epochSamplesPerCpuS, e.stepCpuP50,
                e.evalSamplesPerCpuS, p.evalCpuS.size());
    std::printf("  %-9s epoch wall s:", "");
    for (const EpochStats &s : p.epochs)
        std::printf(" %.3f", s.wallS);
    std::printf("\n");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Defaults for everything the benchmark does not measure. */
void
pinConfiguration(int threads)
{
    par::ThreadPool::instance().setNumThreads(threads);
    ir::setMode(ir::IrMode::Eager);
    DeviceManager::instance().setAllocator(AllocatorKind::Caching);
    stats::setSamplingEnabled(false);
    SpanTracer::instance().setEnabled(false);
    MemTracer::instance().setEnabled(false);
    hwprof::setEnabled(false);
    setChecksEnabled(false);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec &w = *findWorkload(args.workload);
    const int epochs = epochsFor(w, args.seconds);
    // ceil(kEvalPasses / epochs) - 1 extra passes after each epoch.
    const int evalRepeats = (kEvalPasses - 1) / epochs;
    // One core is left to the OS and the caller: a pool worker that
    // shares its core stalls every barrier, which made runs at full
    // width spread twice as wide.
    const unsigned hw = std::thread::hardware_concurrency();
    const int threads =
        std::clamp(static_cast<int>(hw) - 1, 1, kMaxThreads);
    pinConfiguration(threads);

    GoldenTable golden;
    const bool have_golden = golden.load(args.golden);

    std::printf("perfbench workload=%s seed=%llu seconds=%g epochs=%d "
                "trace=%d\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds, epochs, args.trace ? 1 : 0);
    std::printf("config: threads=%d (cores %u) ir=eager allocator=caching "
                "stats=%s spans=off memtrace=off exec_trace=%s hwprof=off "
                "checks=off\n",
                threads, hw, args.trace ? "on-in-traced-pass" : "off",
                ExecTrace::instance().enabled() ? "on" : "off");
    std::printf("why: %s\n", w.why);
    std::fflush(stdout);

    std::vector<double> setup_s;
    std::vector<Metric> e2e, layer;
    int64_t attempted = 0, failed = 0;

    for (FrameworkKind fw : allFrameworks()) {
        const std::string fwname = lower(frameworkName(fw));
        const Backend &backend = getBackend(fw);

        // Set-up, timed kSetupRepeats times; the last one is trained.
        std::unique_ptr<Inputs> inputs;
        std::unique_ptr<TrainingRun> run;
        for (int r = 0; r < kSetupRepeats; ++r) {
            run.reset();
            inputs.reset();
            const int64_t t0 = nowNs();
            inputs = std::make_unique<Inputs>(makeInputs(w));
            run = std::make_unique<TrainingRun>(w, *inputs, backend,
                                                args.seed, nullptr);
            setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        }

        Pass plain = train(*run, epochs, evalRepeats);
        run.reset();
        attempted += static_cast<int64_t>(plain.stepMs.size());
        const GoldenKey key{w.name, fwname, args.seed, epochs};
        std::printf("\n[%s] fingerprint %s\n", fwname.c_str(),
                    GoldenTable::line(key, plain.fp).c_str());
        if (const auto want = golden.find(key)) {
            const bool ok = *want == plain.fp;
            std::printf("[%s] golden check: %s\n", fwname.c_str(),
                        ok ? "match" : "MISMATCH");
            if (!ok)
                plain.failed = static_cast<int64_t>(plain.stepMs.size());
        } else {
            std::printf("[%s] golden check: no entry for this seed and "
                        "epoch count%s\n",
                        fwname.c_str(), have_golden ? "" : " (no table)");
        }
        failed += plain.failed;

        const EndToEnd pe = endToEnd(plain);
        std::printf("[%s] end to end\n", fwname.c_str());
        printEndToEnd("untraced", plain, pe);
        e2e.push_back({"epoch_samples_per_cpu_s." + fwname,
                       pe.epochSamplesPerCpuS, "samples/cpu-s", "higher"});
        e2e.push_back(
            {"step_cpu_ms_p50." + fwname, pe.stepCpuP50, "cpu-ms", "lower"});
        e2e.push_back({"eval_samples_per_cpu_s." + fwname,
                       pe.evalSamplesPerCpuS, "samples/cpu-s", "higher"});

        if (!args.trace)
            continue;
        // The wall-clock figures are exported but not gated: CPU steal
        // from neighbouring tenants moved whole runs by 30-70% on a
        // busy host, past any allowed bound (README.md).
        layer.push_back({"core.epoch_samples_per_s." + fwname,
                         pe.epochSamplesPerS, "samples/s", "higher"});
        layer.push_back(
            {"core.step_ms_p50." + fwname, pe.stepP50, "ms", "lower"});
        layer.push_back(
            {"core.step_ms_tail." + fwname, pe.stepTail, "ms", "lower"});
        layer.push_back({"core.eval_samples_per_s." + fwname,
                         pe.evalSamplesPerS, "samples/s", "higher"});

        Tracer tracer;
        Pass traced;
        {
            stats::Registry::instance().resetValues();
            stats::setSamplingEnabled(true);
            TimingBackend timed(backend, tracer);
            TrainingRun traced_run(w, *inputs, timed, args.seed, &tracer);
            traced = train(traced_run, epochs, 0);
            stats::setSamplingEnabled(false);
            for (const Metric &m : layerMetrics(traced, tracer))
                layer.push_back(
                    {m.name + "." + fwname, m.value, m.unit, m.better});
        }
        attempted += static_cast<int64_t>(traced.stepMs.size());
        const bool same = traced.fp == plain.fp;
        std::printf("[%s] traced fingerprint %s: %s\n", fwname.c_str(),
                    traced.fp.str().c_str(),
                    same ? "bit-identical to untraced" : "MISMATCH");
        if (!same)
            traced.failed = static_cast<int64_t>(traced.stepMs.size());
        failed += traced.failed;
        printEndToEnd("traced", traced, endToEnd(traced));
        printSelfTimes(tracer, fwname.c_str());

        std::error_code ec;
        std::filesystem::create_directories(args.traceDir, ec);
        const std::string path =
            args.traceDir + "/" + w.name + "_" + fwname + ".json";
        if (tracer.writeChromeTrace(path, std::string(w.name) + "/" + fwname))
            std::printf("[%s] chrome trace: %s (%zu spans)\n", fwname.c_str(),
                        path.c_str(), tracer.spans().size());
        else
            std::printf("[%s] chrome trace: cannot write %s\n",
                        fwname.c_str(), path.c_str());
    }

    e2e.push_back({"setup_s", median(setup_s), "s", "lower"});
    // Process-wide and driven by heap fragmentation, so it moves with
    // the batch order (15-45% across seeds): a per-layer figure, not a
    // gated one.
    layer.push_back({"process.peak_rss_mb", peakRssMb(), "MB", "lower"});
    const bool correct = failed == 0;

    const std::vector<Metric> &out = args.trace ? layer : e2e;
    std::printf("\n%-36s %16s  %-10s %s\n", "metric", "value", "unit",
                "better");
    for (const Metric &m : out)
        std::printf("%-36s %16.6f  %-10s %s\n", m.name.c_str(), m.value,
                    m.unit, m.better);
    std::printf("attempted %lld steps, failed %lld\n",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(out[i].value) ? out[i].value : 0.0);
        json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + out[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

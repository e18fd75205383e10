#include "obs/roofline.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/buildinfo.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "parallel/thread_pool.hh"

namespace gnnperf {

const char *
boundClassName(BoundClass cls)
{
    switch (cls) {
      case BoundClass::Compute: return "compute";
      case BoundClass::Bandwidth: return "bandwidth";
      case BoundClass::Dispatch: return "dispatch";
    }
    return "?";
}

KernelBound
classifyKernel(const KernelRecord &k, const CostModel &model,
               double dispatch_overhead)
{
    KernelBound b;
    b.computeSeconds = k.flops / model.gpu.flopsPerSec;
    b.memorySeconds = k.bytes / model.gpu.bytesPerSec;
    b.overheadSeconds = model.gpu.kernelOverhead;
    b.dispatchSeconds = dispatch_overhead;
    b.gpuSeconds = model.kernelTime(k);
    b.intensity = k.bytes > 0.0 ? k.flops / k.bytes : 0.0;
    const double work = std::max(b.computeSeconds, b.memorySeconds);
    const double fixed = b.overheadSeconds + b.dispatchSeconds;
    if (work < fixed)
        b.cls = BoundClass::Dispatch;
    else if (b.computeSeconds >= b.memorySeconds)
        b.cls = BoundClass::Compute;
    else
        b.cls = BoundClass::Bandwidth;
    return b;
}

std::optional<BoundClass>
measuredBound(double flops, double bytes, double wall_seconds,
              const HostPeaks &peaks)
{
    if (wall_seconds <= 0.0 || peaks.gemmFlopsPerSec <= 0.0 ||
        peaks.triadBytesPerSec <= 0.0)
        return std::nullopt;
    const double compute = flops / peaks.gemmFlopsPerSec;
    const double memory = bytes / peaks.triadBytesPerSec;
    const double work = std::max(compute, memory);
    if (work < wall_seconds - work)
        return BoundClass::Dispatch;
    return compute >= memory ? BoundClass::Compute : BoundClass::Bandwidth;
}

const char *
agreementVerdict(BoundClass modeled, std::optional<BoundClass> measured)
{
    if (!measured)
        return "n/a";
    return *measured == modeled ? "agree" : "disagree";
}

double
RooflineGroup::intensity() const
{
    return bytes > 0.0 ? flops / bytes : 0.0;
}

double
RooflineGroup::boundShare(BoundClass cls) const
{
    double total = 0.0;
    for (double s : boundSeconds)
        total += s;
    return total > 0.0
               ? boundSeconds[static_cast<int>(cls)] / total : 0.0;
}

BoundClass
RooflineGroup::dominantBound() const
{
    int best = static_cast<int>(BoundClass::Dispatch);
    for (int c = 0; c < kNumBoundClasses; ++c) {
        if (boundSeconds[c] > boundSeconds[best])
            best = c;
    }
    return static_cast<BoundClass>(best);
}

double
RooflineReport::achievedFlopsFraction() const
{
    if (elapsed <= 0.0 || peakFlopsPerSec <= 0.0)
        return 0.0;
    return (total.flops / elapsed) / peakFlopsPerSec;
}

double
RooflineReport::achievedBandwidthFraction() const
{
    if (elapsed <= 0.0 || peakBytesPerSec <= 0.0)
        return 0.0;
    return (total.bytes / elapsed) / peakBytesPerSec;
}

RooflineAnalyzer::RooflineAnalyzer(const CostModel &model,
                                   double dispatch_overhead,
                                   std::string label, HostPeaks peaks)
    : model_(model), dispatch_(dispatch_overhead),
      label_(std::move(label)), peaks_(peaks)
{
    total_.name = "total";
}

namespace {

void
addKernelTo(RooflineGroup &g, const KernelRecord &k,
            const KernelBound &b, double frontier_delta)
{
    ++g.launches;
    g.flops += k.flops;
    g.bytes += k.bytes;
    g.gpuSeconds += b.gpuSeconds;
    g.dispatchSeconds += b.dispatchSeconds;
    g.elapsedSeconds += frontier_delta;
    g.wallSeconds += k.wallNs * 1e-9;
    g.boundSeconds[static_cast<int>(b.cls)] +=
        b.gpuSeconds + b.dispatchSeconds;
    ++g.boundLaunches[static_cast<int>(b.cls)];
}

} // namespace

void
RooflineAnalyzer::addTrace(const Trace &trace,
                           const std::vector<std::string> &layer_names)
{
    auto layerKey = [&](int16_t layer) -> std::string {
        if (layer >= 0 &&
            static_cast<std::size_t>(layer) < layer_names.size())
            return layer_names[static_cast<std::size_t>(layer)];
        return "(none)";
    };

    TimelineResult t = Timeline::replay(
        trace, model_, dispatch_, {},
        [&](const RecordTiming &rt) {
            if (rt.entry.isKernel) {
                const KernelRecord &k = rt.entry.kernel;
                wall_ += k.wallNs * 1e-9;
                const KernelBound b =
                    classifyKernel(k, model_, dispatch_);
                addKernelTo(total_, k, b, rt.frontierDelta);

                RooflineGroup &kg = byKernel_[k.name];
                kg.name = k.name;
                addKernelTo(kg, k, b, rt.frontierDelta);

                RooflineGroup &lg = byLayer_[layerKey(k.layer)];
                lg.name = layerKey(k.layer);
                addKernelTo(lg, k, b, rt.frontierDelta);

                RooflineGroup &pg =
                    byPhase_[static_cast<int>(k.phase)];
                pg.name = phaseName(k.phase);
                addKernelTo(pg, k, b, rt.frontierDelta);
            } else {
                const HostRecord &h = rt.entry.host;
                const double wall = h.wallNs * 1e-9;
                wall_ += wall;
                HostOpGroup &hg =
                    byHostOp_[static_cast<int>(h.kind)];
                if (hg.name.empty())
                    hg.name = hostOpKindName(h.kind);
                ++hg.ops;
                hg.bytes += h.bytes;
                hg.items += h.items;
                hg.seconds += rt.duration;
                hg.elapsedSeconds += rt.frontierDelta;
                hg.wallSeconds += wall;

                // Host ops still advance the frontier inside a layer
                // or phase; charge them so the shares sum to 100%.
                RooflineGroup &lg = byLayer_[layerKey(h.layer)];
                lg.name = layerKey(h.layer);
                lg.elapsedSeconds += rt.frontierDelta;
                lg.wallSeconds += wall;
                RooflineGroup &pg =
                    byPhase_[static_cast<int>(h.phase)];
                pg.name = phaseName(h.phase);
                pg.elapsedSeconds += rt.frontierDelta;
                pg.wallSeconds += wall;
            }
        });

    ++epochs_;
    elapsed_ += t.elapsed;
    gpuBusy_ += t.gpuBusy;
    hostBusy_ += t.hostBusy;
}

RooflineReport
RooflineAnalyzer::report() const
{
    RooflineReport r;
    r.label = label_;
    r.epochs = epochs_;
    r.peakFlopsPerSec = model_.gpu.flopsPerSec;
    r.peakBytesPerSec = model_.gpu.bytesPerSec;
    r.dispatchOverhead = dispatch_;
    r.elapsed = elapsed_;
    r.gpuBusy = gpuBusy_;
    r.hostBusy = hostBusy_;
    r.wall = wall_;
    r.peaks = peaks_;
    r.hostThreads = par::ThreadPool::instance().numThreads();
    r.hostParallelSpeedup = model_.parallel.speedup(r.hostThreads);
    r.total = total_;
    for (const auto &[name, g] : byKernel_)
        r.byKernel.push_back(g);
    for (const auto &[name, g] : byLayer_)
        r.byLayer.push_back(g);
    for (const auto &[idx, g] : byPhase_)
        r.byPhase.push_back(g);
    for (const auto &[idx, g] : byHostOp_)
        r.byHostOp.push_back(g);
    return r;
}

RooflineReport
analyzeRoofline(const Trace &trace, const CostModel &model,
                double dispatch_overhead,
                const std::vector<std::string> &layer_names,
                std::string label)
{
    RooflineAnalyzer analyzer(model, dispatch_overhead,
                              std::move(label));
    analyzer.addTrace(trace, layer_names);
    return analyzer.report();
}

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
        return strprintf("%.0f", v);
    return strprintf("%.9g", v);
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

void
appendGroupJson(std::string &out, const RooflineGroup &g,
                const RooflineReport &r, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    out += strprintf(
        "{\n%s\"launches\": %zu, \"flops\": %s, \"bytes\": %s,\n"
        "%s\"gpu_s\": %s, \"dispatch_s\": %s, \"elapsed_s\": %s,\n"
        "%s\"elapsed_share\": %s, \"intensity\": %s,\n"
        "%s\"bound\": \"%s\"",
        pad.c_str(), g.launches, num(g.flops).c_str(),
        num(g.bytes).c_str(), pad.c_str(), num(g.gpuSeconds).c_str(),
        num(g.dispatchSeconds).c_str(),
        num(g.elapsedSeconds).c_str(), pad.c_str(),
        num(ratio(g.elapsedSeconds, r.elapsed)).c_str(),
        num(g.intensity()).c_str(), pad.c_str(),
        boundClassName(g.dominantBound()));
    out += strprintf(",\n%s\"bound_shares\": {", pad.c_str());
    for (int c = 0; c < kNumBoundClasses; ++c) {
        out += strprintf(
            "%s\"%s\": %s", c ? ", " : "",
            boundClassName(static_cast<BoundClass>(c)),
            num(g.boundShare(static_cast<BoundClass>(c))).c_str());
    }
    out += "}";
    const std::optional<BoundClass> m =
        measuredBound(g.flops, g.bytes, g.wallSeconds, r.peaks);
    out += strprintf(
        ",\n%s\"measured\": {\"wall_s\": %s, \"wall_share\": %s, "
        "\"flops_per_s\": %s, \"bytes_per_s\": %s,\n"
        "%s  \"bound\": \"%s\", \"verdict\": \"%s\"}}",
        pad.c_str(), num(g.wallSeconds).c_str(),
        num(ratio(g.wallSeconds, r.wall)).c_str(),
        num(ratio(g.flops, g.wallSeconds)).c_str(),
        num(ratio(g.bytes, g.wallSeconds)).c_str(), pad.c_str(),
        m ? boundClassName(*m) : "n/a",
        agreementVerdict(g.dominantBound(), m));
}

void
appendGroupMap(std::string &out, const char *key,
               const std::vector<RooflineGroup> &groups,
               const RooflineReport &r)
{
    out += strprintf("  \"%s\": {", key);
    bool first = true;
    for (const auto &g : groups) {
        out += first ? "\n" : ",\n";
        first = false;
        out += strprintf("    \"%s\": ", jsonEscape(g.name).c_str());
        appendGroupJson(out, g, r, 6);
    }
    out += "\n  }";
}

} // namespace

std::string
rooflineReportToJson(const RooflineReport &r)
{
    std::string out = "{\n";
    out += strprintf("  \"version\": 1,\n");
    out += strprintf("  \"label\": \"%s\",\n",
                     jsonEscape(r.label).c_str());
    out += strprintf("  \"epochs\": %zu,\n", r.epochs);
    out += strprintf(
        "  \"device\": {\"peak_flops_per_sec\": %s, "
        "\"peak_bytes_per_sec\": %s, \"ridge_intensity\": %s, "
        "\"dispatch_overhead_s\": %s},\n",
        num(r.peakFlopsPerSec).c_str(), num(r.peakBytesPerSec).c_str(),
        num(r.ridgeIntensity()).c_str(),
        num(r.dispatchOverhead).c_str());
    out += strprintf(
        "  \"host_parallelism\": {\"threads\": %d, "
        "\"model_speedup\": %s},\n",
        r.hostThreads, num(r.hostParallelSpeedup).c_str());
    out += strprintf(
        "  \"elapsed_s\": %s, \"gpu_busy_s\": %s, "
        "\"host_busy_s\": %s,\n",
        num(r.elapsed).c_str(), num(r.gpuBusy).c_str(),
        num(r.hostBusy).c_str());
    out += strprintf(
        "  \"utilization\": %s, \"arithmetic_intensity\": %s,\n"
        "  \"achieved_flops_frac\": %s, \"achieved_bw_frac\": %s,\n",
        num(r.utilization()).c_str(), num(r.total.intensity()).c_str(),
        num(r.achievedFlopsFraction()).c_str(),
        num(r.achievedBandwidthFraction()).c_str());
    out += strprintf(
        "  \"measured\": {\"wall_s\": %s, \"gemm_flops_per_s\": %s, "
        "\"triad_bytes_per_s\": %s},\n",
        num(r.wall).c_str(), num(r.peaks.gemmFlopsPerSec).c_str(),
        num(r.peaks.triadBytesPerSec).c_str());
    out += "  \"total\": ";
    appendGroupJson(out, r.total, r, 4);
    out += ",\n";
    appendGroupMap(out, "kernels", r.byKernel, r);
    out += ",\n";
    appendGroupMap(out, "layers", r.byLayer, r);
    out += ",\n";
    appendGroupMap(out, "phases", r.byPhase, r);
    out += ",\n  \"host_ops\": {";
    bool first = true;
    for (const auto &h : r.byHostOp) {
        out += first ? "\n" : ",\n";
        first = false;
        out += strprintf(
            "    \"%s\": {\"ops\": %zu, \"bytes\": %s, "
            "\"items\": %s, \"seconds\": %s, \"elapsed_share\": %s,\n"
            "      \"measured\": {\"wall_s\": %s, \"wall_share\": %s}}",
            jsonEscape(h.name).c_str(), h.ops, num(h.bytes).c_str(),
            num(h.items).c_str(), num(h.seconds).c_str(),
            num(ratio(h.elapsedSeconds, r.elapsed)).c_str(),
            num(h.wallSeconds).c_str(),
            num(ratio(h.wallSeconds, r.wall)).c_str());
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
rooflineSuiteToJson(const std::vector<RooflineReport> &suite)
{
    std::string out = strprintf(
        "{\n  \"version\": 1,\n  \"meta\": %s,\n  \"reports\": {",
        buildinfo::metaJson().c_str());
    bool first = true;
    for (const auto &r : suite) {
        out += first ? "\n" : ",\n";
        first = false;
        std::string body = rooflineReportToJson(r);
        // Indent the nested report by four spaces for readability.
        std::string indented;
        indented.reserve(body.size());
        for (std::size_t i = 0; i < body.size(); ++i) {
            indented += body[i];
            if (body[i] == '\n' && i + 1 < body.size())
                indented += "    ";
        }
        while (!indented.empty() &&
               (indented.back() == '\n' || indented.back() == ' '))
            indented.pop_back();
        out += strprintf("    \"%s\": %s",
                         jsonEscape(r.label).c_str(), indented.c_str());
    }
    out += "\n  }\n}\n";
    return out;
}

namespace {

/** Wall(ms), Wall%, GF/s, GB/s, Measured, Verdict for one group. */
void
appendMeasuredCells(std::vector<std::string> &row, const RooflineGroup &g,
                    const RooflineReport &r)
{
    const std::optional<BoundClass> m =
        measuredBound(g.flops, g.bytes, g.wallSeconds, r.peaks);
    row.push_back(strprintf("%.3f", g.wallSeconds * 1e3));
    row.push_back(strprintf("%.1f", ratio(g.wallSeconds, r.wall) * 100.0));
    row.push_back(strprintf("%.2f", ratio(g.flops, g.wallSeconds) / 1e9));
    row.push_back(strprintf("%.2f", ratio(g.bytes, g.wallSeconds) / 1e9));
    row.push_back(m ? boundClassName(*m) : "n/a");
    row.push_back(agreementVerdict(g.dominantBound(), m));
}

const char *const kMeasuredHeader[] = {">Wall(ms)", ">Wall%", ">GF/s",
                                       ">GB/s", "Measured", "Verdict"};

} // namespace

std::string
renderRooflineTable(const std::vector<RooflineReport> &suite)
{
    TextTable table;
    std::vector<std::string> header = {
        "Config", ">Elapsed(ms)", ">Util%", ">AI(F/B)", ">Peak-F%",
        ">Peak-BW%", ">Comp%", ">BW%", ">Disp%", ">Kernels",
        ">HostThr", ">HostSpd"};
    header.insert(header.end(), std::begin(kMeasuredHeader),
                  std::end(kMeasuredHeader));
    table.setHeader(header);
    for (const auto &r : suite) {
        std::vector<std::string> row = {
            r.label, strprintf("%.2f", r.elapsed * 1e3),
            strprintf("%.1f", r.utilization() * 100.0),
            strprintf("%.2f", r.total.intensity()),
            strprintf("%.1f", r.achievedFlopsFraction() * 100.0),
            strprintf("%.1f", r.achievedBandwidthFraction() * 100.0),
            strprintf("%.1f",
                      r.total.boundShare(BoundClass::Compute) * 100.0),
            strprintf("%.1f",
                      r.total.boundShare(BoundClass::Bandwidth) *
                          100.0),
            strprintf("%.1f",
                      r.total.boundShare(BoundClass::Dispatch) *
                          100.0),
            strprintf("%zu", r.total.launches),
            strprintf("%d", r.hostThreads),
            strprintf("%.2fx", r.hostParallelSpeedup)};
        appendMeasuredCells(row, r.total, r);
        table.addRow(row);
    }
    return table.render();
}

std::string
renderRooflineKernels(const RooflineReport &r)
{
    TextTable table;
    std::vector<std::string> header = {"Kernel", ">Launches",
                                       ">GPU(ms)", ">AI(F/B)",
                                       "Bound", ">Elapsed%"};
    header.insert(header.end(), std::begin(kMeasuredHeader),
                  std::end(kMeasuredHeader));
    table.setHeader(header);
    // Heaviest kernels first.
    std::vector<const RooflineGroup *> order;
    for (const auto &g : r.byKernel)
        order.push_back(&g);
    std::sort(order.begin(), order.end(),
              [](const RooflineGroup *a, const RooflineGroup *b) {
                  return a->gpuSeconds > b->gpuSeconds;
              });
    for (const RooflineGroup *g : order) {
        std::vector<std::string> row = {
            g->name, strprintf("%zu", g->launches),
            strprintf("%.3f", g->gpuSeconds * 1e3),
            strprintf("%.2f", g->intensity()),
            boundClassName(g->dominantBound()),
            strprintf("%.1f", ratio(g->elapsedSeconds, r.elapsed) * 100.0)};
        appendMeasuredCells(row, *g, r);
        table.addRow(row);
    }
    return table.render();
}

} // namespace gnnperf

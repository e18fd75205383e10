#include "tracer.hh"

#include <cstdio>
#include <fstream>

#include "common/logging.hh"

namespace perfbench {

int32_t
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.step = step_;
    const auto id = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    // Stamp the start last so the bookkeeping above is not timed.
    spans_.back().startNs = nowNs();
    return id;
}

void
Tracer::close(int32_t id)
{
    const int64_t end = nowNs();
    gnnperf_assert(!stack_.empty() && stack_.back() == id,
                   "perfbench: span ", id, " closed out of order");
    spans_[static_cast<std::size_t>(id)].endNs = end;
    stack_.pop_back();
}

std::vector<int64_t>
Tracer::selfNs() const
{
    std::vector<int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    }
    return self;
}

namespace {

/** Escape a string for a JSON literal (span names are plain ASCII). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &process_name) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":"
        << jsonString(process_name) << "}}";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Microseconds with ns resolution, as the format expects.
        std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << ",\n{\"name\":" << jsonString(s.name)
            << ",\"cat\":\"perfbench\",\"ph\":\"X\"," << buf
            << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"step\":" << s.step
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench

#include "fingerprint.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

Fingerprint
Fingerprint::make(float loss, double val_accuracy, double modeled_seconds,
                  uint64_t kernels, uint64_t logical_peak_bytes)
{
    Fingerprint fp;
    std::memcpy(&fp.lossBits, &loss, sizeof(loss));
    std::memcpy(&fp.valAccuracyBits, &val_accuracy, sizeof(val_accuracy));
    std::memcpy(&fp.modeledSecondsBits, &modeled_seconds,
                sizeof(modeled_seconds));
    fp.kernels = kernels;
    fp.logicalPeakBytes = logical_peak_bytes;
    return fp;
}

std::string
Fingerprint::str() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%08" PRIx32 " %016" PRIx64 " %016" PRIx64 " %" PRIx64
                  " %" PRIx64,
                  lossBits, valAccuracyBits, modeledSecondsBits, kernels,
                  logicalPeakBytes);
    return buf;
}

bool
GoldenTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string text;
    while (std::getline(in, text)) {
        if (text.empty() || text[0] == '#')
            continue;
        std::istringstream ss(text);
        GoldenKey key;
        Fingerprint fp;
        ss >> key.workload >> key.framework >> key.seed >> key.epochs >>
            std::hex >> fp.lossBits >> fp.valAccuracyBits >>
            fp.modeledSecondsBits >> fp.kernels >> fp.logicalPeakBytes;
        if (!ss)
            return false;
        entries_.emplace_back(key, fp);
    }
    return true;
}

std::optional<Fingerprint>
GoldenTable::find(const GoldenKey &key) const
{
    for (const auto &[k, fp] : entries_) {
        if (k == key)
            return fp;
    }
    return std::nullopt;
}

std::string
GoldenTable::line(const GoldenKey &key, const Fingerprint &fp)
{
    std::ostringstream ss;
    ss << key.workload << ' ' << key.framework << ' ' << key.seed << ' '
       << key.epochs << ' ' << fp.str();
    return ss.str();
}

} // namespace perfbench

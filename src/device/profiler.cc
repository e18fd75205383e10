#include "device/profiler.hh"

namespace gnnperf {

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

int16_t
Profiler::pushLayer(const char *name)
{
    auto it = layerIds_.find(name);
    int16_t id;
    if (it == layerIds_.end()) {
        id = static_cast<int16_t>(layerNames_.size());
        layerNames_.emplace_back(name);
        layerIds_.emplace(name, id);
    } else {
        id = it->second;
    }
    int16_t prev = layer_;
    layer_ = id;
    return prev;
}

void
Profiler::reset()
{
    clearTrace();
    layerNames_.clear();
    layerIds_.clear();
    layer_ = -1;
    phase_ = Phase::Other;
}

} // namespace gnnperf

/**
 * @file
 * Empty stand-in for the removed counter profiler. perfbench/src/main.cc
 * still calls hwprof::setEnabled(false); it goes with that call.
 */

#ifndef GNNPERF_OBS_HWPROF_HH
#define GNNPERF_OBS_HWPROF_HH

namespace gnnperf::hwprof {
/** Does nothing: measured windows need no switch (device/profiler.hh). */
inline void setEnabled(bool) {}
} // namespace gnnperf::hwprof

#endif // GNNPERF_OBS_HWPROF_HH

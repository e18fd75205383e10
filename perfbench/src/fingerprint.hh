/**
 * @file
 * Output check of one workload × framework run.
 *
 * The fingerprint is the final training loss bits, the last validation
 * accuracy, the modeled epoch seconds and kernel launches summed over
 * the run's Timeline::replay results, and the logical (live-tensor)
 * peak bytes. Everything in it is deterministic by seed and identical
 * at every thread width, so a traced run must reproduce its untraced
 * twin bit for bit, and the default seed must reproduce the golden
 * values in perfbench/golden.txt.
 */

#ifndef PERFBENCH_FINGERPRINT_HH
#define PERFBENCH_FINGERPRINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Fingerprint
{
    uint32_t lossBits = 0;
    uint64_t valAccuracyBits = 0;
    uint64_t modeledSecondsBits = 0;
    uint64_t kernels = 0;
    uint64_t logicalPeakBytes = 0;

    bool operator==(const Fingerprint &) const = default;

    static Fingerprint make(float loss, double val_accuracy,
                            double modeled_seconds, uint64_t kernels,
                            uint64_t logical_peak_bytes);

    /** Five hex fields, space separated. */
    std::string str() const;
};

/** Key of a golden entry. */
struct GoldenKey
{
    std::string workload;
    std::string framework;
    uint64_t seed = 0;
    int epochs = 0;

    bool operator==(const GoldenKey &) const = default;
};

/**
 * Golden fingerprints, one per line:
 * `<workload> <framework> <seed> <epochs> <fingerprint fields>`.
 * Lines starting with '#' are comments.
 */
class GoldenTable
{
  public:
    /** Load from a file; returns false when it cannot be read. */
    bool load(const std::string &path);

    std::optional<Fingerprint> find(const GoldenKey &key) const;

    static std::string line(const GoldenKey &key, const Fingerprint &fp);

  private:
    std::vector<std::pair<GoldenKey, Fingerprint>> entries_;
};

} // namespace perfbench

#endif // PERFBENCH_FINGERPRINT_HH

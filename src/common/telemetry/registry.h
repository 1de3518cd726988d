/**
 * @file
 * Named metric registry: the uniform, enumerable surface for every
 * counter and gauge the simulator reports (docs/OBSERVABILITY.md).
 *
 * Producers publish through AddCounter/SetGauge on cold paths (report
 * assembly); slots live in one name-ordered map.
 *
 * Naming scheme (docs/OBSERVABILITY.md): lowercase dotted segments,
 * `<layer>.<subsystem>.<metric>[.<unit>]`, with per-instance metrics
 * carrying an index segment ("cluster.replica3.busy_seconds").
 * Enumeration is name-sorted, so exports are deterministic regardless
 * of registration order.
 */
#ifndef POD_COMMON_TELEMETRY_REGISTRY_H
#define POD_COMMON_TELEMETRY_REGISTRY_H

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace pod::telemetry {

/** What a registry slot holds. */
enum class MetricKind {
    kCounter,  ///< Monotonic integer count.
    kGauge,    ///< Last-written scalar.
};

/** Human-readable kind name ("counter", "gauge"). */
const char* MetricKindName(MetricKind kind);

/**
 * Owns the metric slots. Not thread-safe: registries are filled
 * serially after a run, from per-replica results folded at the final
 * barrier.
 */
class MetricRegistry
{
  public:
    /**
     * Find-or-register a counter and add to it. Registering a name
     * that exists with a different kind is fatal.
     */
    void AddCounter(const std::string& name, long delta);

    /** Find-or-register a gauge and overwrite it. */
    void SetGauge(const std::string& name, double value);

    /** Number of registered metrics. */
    size_t Size() const { return slots_.size(); }

    bool Contains(const std::string& name) const;

    /** One enumerated metric row. */
    struct Row
    {
        std::string name;
        MetricKind kind = MetricKind::kCounter;
        long counter = 0;    ///< kCounter
        double gauge = 0.0;  ///< kGauge
    };

    /** All metrics, sorted by name (deterministic export order). */
    std::vector<Row> Rows() const;

    /**
     * Machine-readable JSON dump: {"metrics": [{...}, ...]} with one
     * object per metric, name-sorted. Doubles are formatted
     * round-trip (%.17g), so equal values always serialize equally.
     */
    void WriteJson(std::ostream& out) const;

    /**
     * CSV dump: header then one `name,kind,value` row per metric,
     * name-sorted. The header keeps the count/mean/p50/p99/min/max
     * distribution columns (always empty) so dumps stay comparable.
     */
    void WriteCsv(std::ostream& out) const;

  private:
    struct Slot
    {
        MetricKind kind;
        long counter = 0;
        double gauge = 0.0;
    };

    Slot& FindOrCreate(const std::string& name, MetricKind kind);

    std::map<std::string, Slot> slots_;  ///< name-ordered
};

/**
 * Format a double deterministically for telemetry output: shortest
 * round-trip decimal ("%.17g" trimmed), never locale-dependent.
 */
std::string FormatDouble(double v);

}  // namespace pod::telemetry

#endif  // POD_COMMON_TELEMETRY_REGISTRY_H

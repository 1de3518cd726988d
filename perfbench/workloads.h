/**
 * @file
 * The benchmark's workloads. Each drives the library only through its
 * public API (ClusterEngine::Run, ServingEngine::Reset/Submit/Step/
 * Report, core::RunAttention); the seed is the only input, and the
 * generated trace is all the library sees. workloads.cc states, next
 * to each workload, why it exists and which layer it stresses or
 * bypasses.
 */
#ifndef POD_PERFBENCH_WORKLOADS_H
#define POD_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"

namespace perfbench {

/**
 * Layer probes and readings of one traced run. The scheduler tallies
 * are sized by Setup() before any engine exists and never resized, so
 * the references the probes hold stay valid.
 */
struct Probe
{
    std::vector<SchedulerTally> schedulers;  ///< one per replica
    SpanLog route;                           ///< Router::Route
    SpanLog step;                            ///< ServingEngine::Step
    SpanLog report;                          ///< ServingEngine::Report
    std::map<std::string, SpanLog> attn;     ///< RunAttention by backend

    /** Per-layer readings, keyed by the names PerLayerMetrics() lists. */
    std::map<std::string, double> layer;
};

/** Result of one measured run. */
struct Outcome
{
    /** Host wall and CPU (user + sys, all threads) seconds of the
     * measured region: the library calls only, not the checks. */
    double wall_s = 0.0;
    double cpu_s = 0.0;

    /** Simulated quantities that must repeat exactly for one seed, in
     * traced and untraced runs alike. */
    std::vector<double> fingerprint;

    /** Simulated outcomes, for the record only (`sim.*`). */
    std::map<std::string, double> sim;

    long checks = 0;
    long failed = 0;
    std::vector<std::string> failures;

    /** Count one correctness check; remember the first failures. */
    void Expect(bool ok, const std::string& what);
};

/** One workload: Setup() generates its inputs and builds its engines
 * (timed as set-up), Run() is the measured run. A Workload is used
 * for one Setup() + Run() pair. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** @param probe non-null in the traced run: wire layer probes in. */
    virtual void Setup(uint64_t seed, Probe* probe) = 0;

    /**
     * Run to completion and check the outputs.
     * @param record also fill Outcome::sim (costs a sort of every TBT
     *        sample, so main.cc asks for it once per process).
     */
    virtual Outcome Run(Probe* probe, bool record) = 0;
};

/** Fatal on unknown names. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

std::vector<std::string> WorkloadNames();

/** Every per-layer metric as (name, unit), in output order. The traced
 * run prints all of them; a layer a workload does not exercise reads
 * 0. */
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // POD_PERFBENCH_WORKLOADS_H

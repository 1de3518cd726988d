/**
 * @file
 * Sim-time tracing: fixed-size event records appended to preallocated
 * per-replica buffers, exported as Chrome trace-event JSON that
 * Perfetto loads directly (docs/OBSERVABILITY.md).
 *
 * Timestamps are *simulation* seconds, never wall clock, so a trace
 * is a pure function of the simulated scenario: per-replica buffers
 * are written only by the worker advancing that replica (the same
 * disjoint-state discipline as the metric accumulators,
 * docs/DESIGN.md S8) and the exporter merges them in a deterministic
 * order, making trace bytes identical at every thread count —
 * enforced by tests/cluster/telemetry_trace_test.cc.
 *
 * Recording is null-pointer gated: components hold a
 * `TraceRecorder*` that defaults to nullptr, and every emission site
 * is `if (trace_) ...`, so the disabled path costs one predictable
 * branch and the exact-golden regression nets run unchanged.
 */
#ifndef POD_COMMON_TELEMETRY_TRACE_H
#define POD_COMMON_TELEMETRY_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pod::telemetry {

/**
 * Event vocabulary (the taxonomy in docs/OBSERVABILITY.md). Spans
 * carry a duration; instants mark a point in sim time.
 */
enum class EventKind : uint8_t {
    // Request lifecycle (request tracks).
    kArrival,           ///< instant: request joined the replica queue
    kAdmit,             ///< instant: KV reserved, request running
    kPrefillChunk,      ///< span: one prefill chunk processed
    kDecodeToken,       ///< instant: one output token produced
    kPreemptRecompute,  ///< instant: evicted, context to re-prefill
    kPreemptSwap,       ///< instant: evicted, KV swapped to host
    kRestore,           ///< instant: re-admitted after preemption
    kFinish,            ///< instant: all output tokens produced

    // Engine execution (engine track 0).
    kIteration,         ///< span: one scheduler iteration

    // Cluster (router process 0).
    kRoute,             ///< instant: arrival routed to a replica
};

/** Stable lowercase event name ("prefill_chunk", "route", ...). */
const char* EventKindName(EventKind kind);

/** True if the kind is a span (carries a duration). */
bool EventKindIsSpan(EventKind kind);

/** One recorded event. Fixed-size: no per-event allocation. */
struct TraceEvent
{
    double ts = 0.0;      ///< sim-time seconds
    double dur = 0.0;     ///< span duration (0 for instants)
    int32_t tid = 0;      ///< track within the process
    EventKind kind = EventKind::kArrival;
    int64_t a0 = 0;       ///< kind-specific argument
    int64_t a1 = 0;       ///< kind-specific argument
};

/**
 * Append-only event buffer for one trace process (a replica, the
 * cluster router, or a standalone engine). Owned by exactly one
 * writer at a time; the cluster engine gives each replica its own
 * recorder so tracing needs no locks.
 */
class TraceRecorder
{
  public:
    /** Chrome tid of the engine/iteration track. */
    static constexpr int kEngineTrack = 0;

    /** Chrome tid of a request's track. */
    static int RequestTrack(int request_id) { return request_id + 1; }

    /**
     * @param pid Chrome process id (cluster convention: 0 = router,
     *        replica r = r + 1).
     * @param process_name shown as the Perfetto process name.
     */
    explicit TraceRecorder(int pid, std::string process_name);

    int Pid() const { return pid_; }

    const std::string& ProcessName() const { return process_name_; }

    /** Record a span [ts, ts + dur]. */
    void
    Span(EventKind kind, double ts, double dur, int tid, int64_t a0 = 0,
         int64_t a1 = 0)
    {
        Push(kind, ts, dur, tid, a0, a1);
    }

    /** Record an instant event. */
    void
    Instant(EventKind kind, double ts, int tid, int64_t a0 = 0,
            int64_t a1 = 0)
    {
        Push(kind, ts, 0.0, tid, a0, a1);
    }

    const std::vector<TraceEvent>& Events() const { return events_; }

    /** Drop all events, keeping the capacity. */
    void Clear() { events_.clear(); }

  private:
    void
    Push(EventKind kind, double ts, double dur, int tid, int64_t a0,
         int64_t a1)
    {
        TraceEvent e;
        e.ts = ts;
        e.dur = dur;
        e.tid = tid;
        e.kind = kind;
        e.a0 = a0;
        e.a1 = a1;
        events_.push_back(e);
    }

    int pid_;
    std::string process_name_;
    std::vector<TraceEvent> events_;
};

/**
 * Merge recorders into one Chrome trace-event JSON document
 * (Perfetto-loadable). Sim-time seconds map to the trace `ts`/`dur`
 * microsecond fields. Output is deterministic: metadata rows sorted
 * by (pid, tid), events stably sorted by ts with ties broken by the
 * recorders' order in `recorders` and then recording order — so two
 * runs with identical per-recorder streams export identical bytes.
 */
void WriteChromeTrace(std::ostream& out,
                      const std::vector<const TraceRecorder*>& recorders);

}  // namespace pod::telemetry

#endif  // POD_COMMON_TELEMETRY_TRACE_H

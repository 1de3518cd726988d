/**
 * @file
 * Implementation of the sim-time trace recorder and the Chrome
 * trace-event JSON exporter.
 */
#include "common/telemetry/trace.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/telemetry/registry.h"

namespace pod::telemetry {

namespace {

/**
 * Events preallocated per recorder; the buffer grows beyond it if a
 * scenario outruns the estimate.
 */
constexpr size_t kReservedEvents = 4096;

/** Per-kind argument labels (nullptr = argument unused). */
struct KindInfo
{
    const char* name;
    bool is_span;
    const char* a0;
    const char* a1;
};

const KindInfo&
Info(EventKind kind)
{
    static const KindInfo kInfos[] = {
        {"arrival", false, "prefill", "decode"},
        {"admit", false, "prefill_target", nullptr},
        {"prefill_chunk", true, "chunk", "kv_after"},
        {"decode_token", false, "decoded", nullptr},
        {"preempt_recompute", false, "blocks", nullptr},
        {"preempt_swap", false, "blocks", nullptr},
        {"restore", false, "blocks", "swap"},
        {"finish", false, "decoded", nullptr},
        {"iteration", true, "tokens", "decodes"},
        {"route", false, "request", "replica"},
    };
    return kInfos[static_cast<size_t>(kind)];
}

/** Seconds of sim time -> Chrome microseconds, round-trip formatted. */
std::string
TsString(double seconds)
{
    return FormatDouble(seconds * 1e6);
}

}  // namespace

const char*
EventKindName(EventKind kind)
{
    return Info(kind).name;
}

bool
EventKindIsSpan(EventKind kind)
{
    return Info(kind).is_span;
}

TraceRecorder::TraceRecorder(int pid, std::string process_name)
    : pid_(pid), process_name_(std::move(process_name))
{
    events_.reserve(kReservedEvents);
}

void
WriteChromeTrace(std::ostream& out,
                 const std::vector<const TraceRecorder*>& recorders)
{
    out << "{\"traceEvents\":[";
    bool first = true;
    auto emit_prefix = [&]() -> std::ostream& {
        if (!first) out << ",";
        first = false;
        out << "\n";
        return out;
    };

    // ---- metadata: process and thread names, sorted by (pid, tid) ----
    std::map<int, const TraceRecorder*> by_pid;
    for (const TraceRecorder* rec : recorders) {
        POD_CHECK_ARG(rec != nullptr, "null trace recorder");
        POD_CHECK_ARG(by_pid.emplace(rec->Pid(), rec).second,
                      "duplicate trace pid");
    }
    for (const auto& [pid, rec] : by_pid) {
        emit_prefix() << "{\"ph\":\"M\",\"pid\":" << pid
                      << ",\"name\":\"process_name\",\"args\":{\"name\":\""
                      << rec->ProcessName() << "\"}}";
        std::set<int32_t> tids;
        for (const TraceEvent& e : rec->Events()) tids.insert(e.tid);
        for (int32_t tid : tids) {
            emit_prefix() << "{\"ph\":\"M\",\"pid\":" << pid
                          << ",\"tid\":" << tid
                          << ",\"name\":\"thread_name\",\"args\":"
                             "{\"name\":\"";
            if (tid == TraceRecorder::kEngineTrack) {
                out << (pid == 0 ? "router" : "engine");
            } else {
                out << "req " << tid - 1;
            }
            out << "\"}}";
        }
    }

    // ---- events: stable-sorted by ts; ties keep (recorder, record)
    // order, so identical per-recorder streams merge identically ----
    struct Ref
    {
        double ts;
        size_t rec;
        size_t idx;
    };
    std::vector<Ref> refs;
    size_t total = 0;
    for (const TraceRecorder* rec : recorders) {
        total += rec->Events().size();
    }
    refs.reserve(total);
    for (size_t r = 0; r < recorders.size(); ++r) {
        const auto& events = recorders[r]->Events();
        for (size_t i = 0; i < events.size(); ++i) {
            refs.push_back(Ref{events[i].ts, r, i});
        }
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref& a, const Ref& b) { return a.ts < b.ts; });

    for (const Ref& ref : refs) {
        const TraceRecorder& rec = *recorders[ref.rec];
        const TraceEvent& e = rec.Events()[ref.idx];
        const KindInfo& info = Info(e.kind);
        emit_prefix() << "{\"ph\":\"" << (info.is_span ? "X" : "i")
                      << "\",\"pid\":" << rec.Pid() << ",\"tid\":"
                      << e.tid << ",\"name\":\"" << info.name
                      << "\",\"cat\":\"" << info.name << "\",\"ts\":"
                      << TsString(e.ts);
        if (info.is_span) {
            out << ",\"dur\":" << TsString(e.dur);
        } else {
            out << ",\"s\":\"t\"";
        }
        if (info.a0 != nullptr) {
            out << ",\"args\":{\"" << info.a0 << "\":" << e.a0;
            if (info.a1 != nullptr) {
                out << ",\"" << info.a1 << "\":" << e.a1;
            }
            out << "}";
        }
        out << "}";
    }

    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace pod::telemetry

/**
 * @file
 * Implementation of the metric registry and its JSON/CSV exporters.
 */
#include "common/telemetry/registry.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "common/logging.h"

namespace pod::telemetry {

const char*
MetricKindName(MetricKind kind)
{
    switch (kind) {
        case MetricKind::kCounter: return "counter";
        case MetricKind::kGauge: return "gauge";
    }
    return "unknown";
}

std::string
FormatDouble(double v)
{
    // Shortest decimal that round-trips: deterministic for a given
    // bit pattern, so byte-identical runs serialize byte-identically.
    char buf[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v) break;
    }
    return std::string(buf);
}

namespace {

/** Escape a string for a JSON literal (names are plain, but be safe). */
std::string
JsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/** The row's value: integer counter or round-trip formatted gauge. */
std::string
ValueString(const MetricRegistry::Row& row)
{
    return row.kind == MetricKind::kCounter ? std::to_string(row.counter)
                                            : FormatDouble(row.gauge);
}

}  // namespace

MetricRegistry::Slot&
MetricRegistry::FindOrCreate(const std::string& name, MetricKind kind)
{
    POD_CHECK_ARG(!name.empty(), "metric name must be non-empty");
    auto [it, inserted] = slots_.try_emplace(name, Slot{kind});
    POD_CHECK_ARG(inserted || it->second.kind == kind,
                  "metric re-registered with a different kind");
    return it->second;
}

void
MetricRegistry::AddCounter(const std::string& name, long delta)
{
    FindOrCreate(name, MetricKind::kCounter).counter += delta;
}

void
MetricRegistry::SetGauge(const std::string& name, double value)
{
    FindOrCreate(name, MetricKind::kGauge).gauge = value;
}

bool
MetricRegistry::Contains(const std::string& name) const
{
    return slots_.count(name) > 0;
}

std::vector<MetricRegistry::Row>
MetricRegistry::Rows() const
{
    std::vector<Row> rows;
    rows.reserve(slots_.size());
    for (const auto& [name, slot] : slots_) {
        rows.push_back(Row{name, slot.kind, slot.counter, slot.gauge});
    }
    return rows;
}

void
MetricRegistry::WriteJson(std::ostream& out) const
{
    out << "{\"metrics\":[";
    bool first = true;
    for (const Row& row : Rows()) {
        if (!first) out << ",";
        first = false;
        out << "\n  {\"name\":\"" << JsonEscape(row.name)
            << "\",\"kind\":\"" << MetricKindName(row.kind)
            << "\",\"value\":" << ValueString(row) << "}";
    }
    out << "\n]}\n";
}

void
MetricRegistry::WriteCsv(std::ostream& out) const
{
    out << "name,kind,value,count,mean,p50,p99,min,max\n";
    for (const Row& row : Rows()) {
        out << row.name << "," << MetricKindName(row.kind) << ","
            << ValueString(row) << ",,,,,,\n";
    }
}

}  // namespace pod::telemetry

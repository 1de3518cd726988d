/**
 * @file
 * Benchmark runner for one workload in one process (so the process's
 * peak RSS belongs to that workload alone).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out PATH]
 *
 * Untraced (--trace 0): repeats set-up + measured run until S seconds
 * have passed (at least kMinRuns times), then tops set-up repetitions
 * up to kMinSetups, and prints the end-to-end metrics as medians:
 * setup_s, wall_s, cpu_s and peak_rss_mb.
 *
 * Traced (--trace 1): alternates untraced and probed runs for S
 * seconds, prints the per-layer readings of the last probed run plus
 * trace_overhead_frac (median probed wall over median untraced wall,
 * minus 1), and writes that run's spans to PATH.
 *
 * Every run is checked (see Outcome::Expect), and every run's
 * simulated fingerprint must equal the first run's, which proves the
 * probes do not perturb the simulation. The last line of stdout is one
 * JSON object: correct, attempted, failed, metrics and record (host,
 * build and simulated outcomes, not compared across commits).
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "probe.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kMinRuns = 5;

/** Set-up repetitions continue until both minimums hold, so that
 * microsecond set-ups still report a median of many samples. */
constexpr int kMinSetups = 15;
constexpr double kMinSetupSeconds = 0.2;

/** Extra wall budget for set-up-only repetitions, as a share of S. */
constexpr double kSetupBudgetShare = 0.25;

double
Median(const std::vector<double>& v)
{
    pod::SampleStats stats;
    stats.AddAll(v);
    return stats.Median();
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** JSON number; non-finite values cannot be represented and read 0. */
std::string
Num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
Quote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

struct Tally
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;
    std::vector<double> fingerprint;

    void
    Add(const Outcome& o)
    {
        attempted += o.checks + 1;
        failed += o.failed;
        for (const auto& f : o.failures) {
            if (failures.size() < 8) failures.push_back(f);
        }
        if (fingerprint.empty()) {
            fingerprint = o.fingerprint;
        } else if (o.fingerprint != fingerprint) {
            ++failed;
            failures.push_back("simulated fingerprint differs between runs "
                               "of one seed");
        }
    }
};

/** One set-up + run; `probe` selects the traced variant. */
Outcome
RunOnce(const std::string& name, uint64_t seed, Probe* probe, bool record,
        double* setup_s)
{
    std::unique_ptr<Workload> w = MakeWorkload(name);
    double t0 = Now();
    w->Setup(seed, probe);
    if (setup_s != nullptr) *setup_s = Now() - t0;
    return w->Run(probe, record);
}

void
WriteSpans(const Probe& probe, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    double origin = 1e300;
    auto scan = [&origin](const SpanLog& log) {
        if (!log.spans.empty()) origin = std::min(origin, log.spans[0].start);
    };
    for (const SchedulerTally& t : probe.schedulers) scan(t.next);
    scan(probe.route);
    scan(probe.step);
    for (const auto& kv : probe.attn) scan(kv.second);

    std::fprintf(f, "layer,track,start_s,end_s\n");
    auto dump = [&](const char* layer, const std::string& track,
                    const SpanLog& log) {
        for (const Span& s : log.spans) {
            std::fprintf(f, "%s,%s,%.9f,%.9f\n", layer, track.c_str(),
                         s.start - origin, s.end - origin);
        }
    };
    for (size_t r = 0; r < probe.schedulers.size(); ++r) {
        dump("serve.schedule", "replica" + std::to_string(r),
             probe.schedulers[r].next);
    }
    dump("cluster.route", "router", probe.route);
    dump("serve.step", "replica0", probe.step);
    dump("serve.report", "replica0", probe.report);
    for (const auto& kv : probe.attn) dump("core.attn", kv.first, kv.second);
    std::fclose(f);
}

int
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\n",
                 argv0);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload, spans_out;
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* flag = argv[i];
        const char* value = argv[i + 1];
        if (std::strcmp(flag, "--workload") == 0) {
            workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            seed = std::atoll(value);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            seconds = std::atof(value);
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = std::atoi(value);
        } else if (std::strcmp(flag, "--spans-out") == 0) {
            spans_out = value;
        } else {
            return Usage(argv[0]);
        }
    }
    std::vector<std::string> names = WorkloadNames();
    if (argc % 2 != 1 || seed < 0 || seconds <= 0.0 ||
        (trace != 0 && trace != 1) ||
        std::find(names.begin(), names.end(), workload) == names.end()) {
        return Usage(argv[0]);
    }
    const uint64_t useed = static_cast<uint64_t>(seed);

    Tally tally;
    std::map<std::string, double> sim;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::string> units;
    int runs = 0;
    const double start = Now();

    if (trace == 0) {
        std::vector<double> setups, walls, cpus;
        while (runs < kMinRuns || Now() - start < seconds) {
            double setup_s = 0.0;
            Outcome o = RunOnce(workload, useed, nullptr, runs == 0, &setup_s);
            if (runs == 0) sim = o.sim;
            setups.push_back(setup_s);
            walls.push_back(o.wall_s);
            cpus.push_back(o.cpu_s);
            tally.Add(o);
            ++runs;
        }
        // Before the set-up-only repetitions, whose allocation churn
        // is not part of the workload.
        const double peak_rss_mb = PeakRssMb();
        const double setup_deadline =
            Now() + kSetupBudgetShare * seconds;
        double setup_total = 0.0;
        for (double s : setups) setup_total += s;
        while ((static_cast<int>(setups.size()) < kMinSetups ||
                setup_total < kMinSetupSeconds) &&
               Now() < setup_deadline) {
            std::unique_ptr<Workload> w = MakeWorkload(workload);
            double t0 = Now();
            w->Setup(useed, nullptr);
            setups.push_back(Now() - t0);
            setup_total += setups.back();
        }
        metrics = {{"setup_s", Median(setups)},
                   {"wall_s", Median(walls)},
                   {"cpu_s", Median(cpus)},
                   {"peak_rss_mb", peak_rss_mb}};
        units = {"s", "s", "s", "MB"};
        std::printf("runs %d, set-ups %zu\n", runs, setups.size());
    } else {
        std::vector<double> plain, probed;
        Probe last;
        while (runs < 2 * kMinRuns || Now() - start < seconds) {
            bool traced = runs % 2 == 1;
            Probe probe;
            Outcome o = RunOnce(workload, useed, traced ? &probe : nullptr,
                                runs == 0, nullptr);
            if (runs == 0) sim = o.sim;
            (traced ? probed : plain).push_back(o.wall_s);
            tally.Add(o);
            if (traced) last = std::move(probe);
            ++runs;
        }
        for (const auto& [name, unit] : PerLayerMetrics()) {
            double v = 0.0;
            if (auto it = last.layer.find(name); it != last.layer.end()) {
                v = it->second;
            } else if (auto s = sim.find(name); s != sim.end()) {
                v = s->second;
            }
            metrics.push_back({name, v});
            units.push_back(unit);
        }
        for (const auto& [name, value] : last.layer) {
            bool known = false;
            for (const auto& m : metrics) known = known || m.first == name;
            if (!known) {
                std::fprintf(stderr, "unlisted per-layer metric %s\n",
                             name.c_str());
                return 3;
            }
        }
        for (auto& m : metrics) {
            if (m.first == "trace_overhead_frac") {
                m.second = Median(probed) / Median(plain) - 1.0;
            }
        }
        std::printf("runs %d (%zu probed)\n", runs, probed.size());
        if (!spans_out.empty()) WriteSpans(last, spans_out);
    }

    for (const auto& f : tally.failures) {
        std::printf("FAILED CHECK: %s\n", f.c_str());
    }

    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) json += ", ";
        json += Quote(metrics[i].first) + ": {\"value\": " +
                Num(metrics[i].second) + ", \"unit\": " + Quote(units[i]) +
                "}";
    }
    json += "}, \"record\": {";
    json += "\"workload\": " + Quote(workload);
    json += ", \"seed\": " + std::to_string(seed);
    json += ", \"runs\": " + std::to_string(runs);
    json += ", \"host_cores\": " +
            std::to_string(std::thread::hardware_concurrency());
    json += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
    json += ", \"compiler\": " + Quote(PERFBENCH_COMPILER);
    json += ", \"failed_frac\": " +
            Num(static_cast<double>(tally.failed) /
                static_cast<double>(std::max(1L, tally.attempted)));
    for (const auto& [name, value] : sim) {
        json += ", " + Quote(name) + ": " + Num(value);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

/**
 * @file
 * Unit tests for the telemetry layer (docs/OBSERVABILITY.md): the
 * named metric registry (counter/gauge updates, kind checking,
 * name-sorted deterministic export), FormatDouble round-tripping, the
 * sim-time TraceRecorder and the Chrome trace-event exporter.
 */
#include "common/telemetry/registry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/telemetry/profiler.h"
#include "common/telemetry/trace.h"

namespace pod::telemetry {
namespace {

// ---------------------------------------------------------- registry

TEST(MetricRegistry, CounterHandleUpdatesSlot)
{
    MetricRegistry registry;
    registry.AddCounter("test.counter", 1);
    registry.AddCounter("test.counter", 41);
    ASSERT_EQ(registry.Size(), 1u);
    EXPECT_EQ(registry.Rows()[0].counter, 42);
    // Adding under the same name accumulates into the same slot.
    registry.AddCounter("test.counter", 8);
    ASSERT_EQ(registry.Size(), 1u);
    EXPECT_EQ(registry.Rows()[0].kind, MetricKind::kCounter);
    EXPECT_EQ(registry.Rows()[0].counter, 50);
}

TEST(MetricRegistry, GaugeLastWriteWins)
{
    MetricRegistry registry;
    registry.SetGauge("test.gauge", 1.5);
    registry.SetGauge("test.gauge", -2.25);
    ASSERT_EQ(registry.Size(), 1u);
    EXPECT_EQ(registry.Rows()[0].kind, MetricKind::kGauge);
    EXPECT_DOUBLE_EQ(registry.Rows()[0].gauge, -2.25);
}

TEST(MetricRegistry, HandlesSurviveRegistryGrowth)
{
    // A slot registered early keeps its value as hundreds of later
    // registrations grow the table.
    MetricRegistry registry;
    registry.AddCounter("aaa.first", 3);
    for (int i = 0; i < 500; ++i) {
        registry.AddCounter("filler." + std::to_string(i), 1);
    }
    registry.AddCounter("aaa.first", 4);
    ASSERT_EQ(registry.Size(), 501u);
    EXPECT_EQ(registry.Rows()[0].name, "aaa.first");
    EXPECT_EQ(registry.Rows()[0].counter, 7);
}

TEST(MetricRegistryDeathTest, KindMismatchIsFatal)
{
    MetricRegistry registry;
    registry.AddCounter("test.name", 1);
    EXPECT_DEATH(registry.SetGauge("test.name", 1.0), "kind");
}

TEST(MetricRegistry, RowsAreNameSorted)
{
    MetricRegistry registry;
    registry.AddCounter("zebra", 1);
    registry.SetGauge("alpha", 2.0);
    registry.AddCounter("middle", 3);
    std::vector<MetricRegistry::Row> rows = registry.Rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "alpha");
    EXPECT_EQ(rows[1].name, "middle");
    EXPECT_EQ(rows[2].name, "zebra");
    EXPECT_EQ(rows[1].counter, 3);
    EXPECT_DOUBLE_EQ(rows[0].gauge, 2.0);
}

TEST(MetricRegistry, JsonAndCsvExportsAreDeterministic)
{
    // Same content registered in different orders must export
    // identical bytes (Rows() sorts by name).
    MetricRegistry a;
    a.AddCounter("x.count", 3);
    a.SetGauge("a.value", 0.1);
    MetricRegistry b;
    b.SetGauge("a.value", 0.1);
    b.AddCounter("x.count", 3);

    std::ostringstream ja, jb, ca, cb;
    a.WriteJson(ja);
    b.WriteJson(jb);
    a.WriteCsv(ca);
    b.WriteCsv(cb);
    EXPECT_EQ(ja.str(), jb.str());
    EXPECT_EQ(ca.str(), cb.str());
    // Whole-output pins: the exported bytes, header included.
    EXPECT_EQ(ja.str(),
              "{\"metrics\":[\n"
              "  {\"name\":\"a.value\",\"kind\":\"gauge\",\"value\":0.1},\n"
              "  {\"name\":\"x.count\",\"kind\":\"counter\",\"value\":3}\n"
              "]}\n");
    EXPECT_EQ(ca.str(),
              "name,kind,value,count,mean,p50,p99,min,max\n"
              "a.value,gauge,0.1,,,,,,\n"
              "x.count,counter,3,,,,,,\n");
}

TEST(FormatDouble, RoundTripsExactly)
{
    for (double v : {0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 1e-300, 123456.789,
                     9.951304347826087e-1}) {
        std::string s = FormatDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

// ------------------------------------------------------------- trace

TEST(TraceRecorder, RecordsEventsInOrder)
{
    TraceRecorder recorder(1, "replica0");
    recorder.Instant(EventKind::kArrival, 0.5,
                     TraceRecorder::RequestTrack(3), 128, 16);
    recorder.Span(EventKind::kIteration, 0.5, 0.01,
                  TraceRecorder::kEngineTrack, 128, 0);
    ASSERT_EQ(recorder.Events().size(), 2u);
    EXPECT_EQ(recorder.Events()[0].kind, EventKind::kArrival);
    EXPECT_EQ(recorder.Events()[0].tid, 4);
    EXPECT_EQ(recorder.Events()[0].a0, 128);
    EXPECT_DOUBLE_EQ(recorder.Events()[1].dur, 0.01);
    EXPECT_EQ(recorder.Pid(), 1);
    EXPECT_EQ(recorder.ProcessName(), "replica0");
}

TEST(TraceRecorder, ClearKeepsIdentityDropsEvents)
{
    TraceRecorder recorder(2, "p");
    recorder.Instant(EventKind::kFinish, 1.0, 0);
    recorder.Clear();
    EXPECT_TRUE(recorder.Events().empty());
    EXPECT_EQ(recorder.Pid(), 2);
    EXPECT_EQ(recorder.ProcessName(), "p");
}

TEST(EventKind, NamesAndSpanFlags)
{
    EXPECT_STREQ(EventKindName(EventKind::kPrefillChunk),
                 "prefill_chunk");
    EXPECT_STREQ(EventKindName(EventKind::kRoute), "route");
    EXPECT_TRUE(EventKindIsSpan(EventKind::kIteration));
    EXPECT_TRUE(EventKindIsSpan(EventKind::kPrefillChunk));
    EXPECT_FALSE(EventKindIsSpan(EventKind::kDecodeToken));
}

TEST(WriteChromeTrace, MergesRecordersDeterministically)
{
    TraceRecorder router(0, "cluster");
    TraceRecorder replica(1, "replica0");
    router.Instant(EventKind::kRoute, 0.25, 0, 7, 0);
    replica.Instant(EventKind::kArrival, 0.25,
                    TraceRecorder::RequestTrack(7), 64, 8);
    replica.Span(EventKind::kIteration, 0.25, 0.0125, 0, 64, 0);

    std::ostringstream a, b;
    WriteChromeTrace(a, {&router, &replica});
    WriteChromeTrace(b, {&router, &replica});
    EXPECT_EQ(a.str(), b.str());

    const std::string json = a.str();
    // Envelope and metadata.
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cluster\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"replica0\""), std::string::npos);
    // Sim seconds -> trace microseconds (round-trip %g formatting).
    EXPECT_NE(json.find("\"ts\":2.5e+05"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1.25e+04"), std::string::npos);
    // Instants carry thread scope, spans are complete events.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Whole-output pin: the exported bytes.
    EXPECT_EQ(
        json,
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":"
        "{\"name\":\"cluster\"}},\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":"
        "{\"name\":\"router\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":"
        "{\"name\":\"replica0\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":"
        "{\"name\":\"engine\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":8,\"name\":\"thread_name\",\"args\":"
        "{\"name\":\"req 7\"}},\n"
        "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"name\":\"route\",\"cat\":"
        "\"route\",\"ts\":2.5e+05,\"s\":\"t\",\"args\":{\"request\":7,"
        "\"replica\":0}},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":8,\"name\":\"arrival\",\"cat\":"
        "\"arrival\",\"ts\":2.5e+05,\"s\":\"t\",\"args\":{\"prefill\":64,"
        "\"decode\":8}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"iteration\",\"cat\":"
        "\"iteration\",\"ts\":2.5e+05,\"dur\":1.25e+04,\"args\":{\"tokens\":64,"
        "\"decodes\":0}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(WriteChromeTrace, TieBreaksByRecorderOrder)
{
    // Two events at the same ts in different recorders: the recorder
    // passed first must export first, independent of insertion
    // interleaving — the property the cluster merge relies on.
    TraceRecorder first(0, "a");
    TraceRecorder second(1, "b");
    second.Instant(EventKind::kFinish, 1.0, 0);
    first.Instant(EventKind::kFinish, 1.0, 0);
    std::ostringstream out;
    WriteChromeTrace(out, {&first, &second});
    const std::string json = out.str();
    size_t pid0 = json.find("\"ph\":\"i\",\"pid\":0");
    size_t pid1 = json.find("\"ph\":\"i\",\"pid\":1");
    ASSERT_NE(pid0, std::string::npos);
    ASSERT_NE(pid1, std::string::npos);
    EXPECT_LT(pid0, pid1);
}

// --------------------------------------------------------- profiler

TEST(Profiler, WallClockIsMonotonic)
{
    double a = WallSeconds();
    double b = WallSeconds();
    EXPECT_GE(b, a);
}

TEST(Profiler, FillRegistryPublishesPhaseAndThreadStats)
{
    ClusterProfile profile;
    profile.advance.seconds = 1.5;
    profile.advance.count = 10;
    profile.pool_rounds = 10;
    profile.threads.push_back(ThreadStat{1.0, 0.25, 32});
    profile.threads.push_back(ThreadStat{0.75, 0.5, 16});

    MetricRegistry registry;
    profile.FillRegistry(registry, "profile.");
    EXPECT_TRUE(registry.Contains("profile.advance.seconds"));
    EXPECT_TRUE(registry.Contains("profile.thread0.busy_seconds"));
    EXPECT_TRUE(
        registry.Contains("profile.thread1.barrier_wait_seconds"));
}

}  // namespace
}  // namespace pod::telemetry

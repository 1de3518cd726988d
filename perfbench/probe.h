/**
 * @file
 * Layer probes for the traced benchmark run.
 *
 * Every probe wraps a public extension point of the library from
 * outside: a Scheduler decorator handed to the engines through
 * cluster::SchedulerFactory (or the ServingEngine constructor) and a
 * Router decorator handed to ClusterEngine. The probes forward every
 * call unchanged, so a traced run must simulate exactly what the
 * untraced run does; main.cc checks that by comparing fingerprints.
 *
 * Spans are kept in memory (start and end on the host steady clock)
 * and written out once the run has ended.
 *
 * Thread confinement: replicas advance on pool threads, and a replica
 * may move between threads from one advance slice to the next, but
 * never runs on two threads at once. Each scheduler probe therefore
 * owns one SchedulerTally that only its replica's calls touch; the
 * tallies are read after ClusterEngine::Run has joined the pool.
 * Sharing one tally across replicas would be a data race.
 */
#ifndef POD_PERFBENCH_PROBE_H
#define POD_PERFBENCH_PROBE_H

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "serve/scheduler.h"

namespace perfbench {

/** Host wall clock in seconds. */
inline double
Now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call, in host steady-clock seconds. */
struct Span
{
    double start = 0.0;
    double end = 0.0;

    double Seconds() const { return end - start; }
};

/** Spans of one layer on one replica, plus their total. */
struct SpanLog
{
    std::vector<Span> spans;
    double seconds = 0.0;

    void
    Add(double t0, double t1)
    {
        spans.push_back({t0, t1});
        seconds += t1 - t0;
    }
};

/** What one replica's scheduler probe saw. Padded so neighbouring
 * replicas' tallies never share a cache line. */
struct alignas(64) SchedulerTally
{
    SpanLog next;
    long batch_tokens = 0;
    long decodes = 0;
    long admissions = 0;
    long preemptions = 0;
};

/** Times Scheduler::Next (including the KV allocator calls it makes)
 * and counts what each decision contained. */
class ProbedScheduler : public pod::serve::Scheduler
{
  public:
    ProbedScheduler(std::unique_ptr<pod::serve::Scheduler> inner,
                    SchedulerTally& tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }

    using Scheduler::Next;

    pod::serve::SchedulingDecision
    Next(double now, std::vector<pod::serve::RequestState>& requests,
         pod::serve::KvAllocator& kv, size_t active_begin,
         size_t& admitted_end) override
    {
        double t0 = Now();
        pod::serve::SchedulingDecision d =
            inner_->Next(now, requests, kv, active_begin, admitted_end);
        tally_.next.Add(t0, Now());
        tally_.batch_tokens += d.batch.TotalTokens();
        tally_.decodes += static_cast<long>(d.batch.decodes.size());
        tally_.admissions += static_cast<long>(d.admissions.size());
        tally_.preemptions += static_cast<long>(d.preemptions.size());
        return d;
    }

    std::string Name() const override { return inner_->Name(); }

  private:
    std::unique_ptr<pod::serve::Scheduler> inner_;
    SchedulerTally& tally_;
};

/** Times Router::Route. Routing runs serially at the cluster barrier,
 * so one log serves the whole fleet. */
class ProbedRouter : public pod::cluster::Router
{
  public:
    ProbedRouter(std::unique_ptr<pod::cluster::Router> inner,
                 SpanLog& log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    int
    Route(const pod::serve::Request& request,
          const std::vector<pod::serve::ReplicaSnapshot>& replicas) override
    {
        double t0 = Now();
        int pick = inner_->Route(request, replicas);
        log_.Add(t0, Now());
        return pick;
    }

    void Reset() override { inner_->Reset(); }

    std::string Name() const override { return inner_->Name(); }

  private:
    std::unique_ptr<pod::cluster::Router> inner_;
    SpanLog& log_;
};

}  // namespace perfbench

#endif  // POD_PERFBENCH_PROBE_H

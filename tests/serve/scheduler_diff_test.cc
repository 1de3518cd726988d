/**
 * @file
 * Differential test of the queue-keeping schedulers against a
 * full-scan reference (docs/DESIGN.md S2, scheduler-owned queues).
 *
 * The reference below is the stateless formulation the in-tree
 * schedulers replaced: every Next() rescans [active_begin,
 * admitted_end) for admissions, decodes and prefill chunks. Two
 * identical worlds (request vector + KV allocator) run side by side,
 * one per scheduler, through a loop that mutates the request states
 * exactly as ServingEngine::Step() does. Every SchedulingDecision
 * must agree field by field on every call, over randomized traces x
 * {Sarathi, vLLM} x {conservative, watermark+recompute,
 * watermark+swap, prefix caching}, with requests either queued up
 * front or appended as they arrive (the cluster's Submit pattern).
 */
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/kv_allocator.h"
#include "serve/trace.h"

namespace pod::serve {
namespace {

// ---- full-scan reference schedulers ----

constexpr int kMaxBatchedTokens = 16384;
constexpr int kMaxNumSeqs = 256;

void
RefPlanAdmissions(double now, std::vector<RequestState>& requests,
                  KvAllocator& kv, size_t active_begin,
                  size_t& admitted_end, SchedulingDecision& decision)
{
    for (size_t i = active_begin; i < requests.size(); ++i) {
        RequestState& state = requests[i];
        if (state.Finished() || state.Admitted()) continue;
        if (state.Preempted()) {
            PreemptMode mode = state.phase == Phase::kPreemptedSwapped
                                   ? PreemptMode::kSwap
                                   : PreemptMode::kRecompute;
            if (!kv.TryAdmit(state)) break;
            state.phase = Phase::kRunning;
            int cached = kv.LastAdmitCachedTokens();
            if (cached > 0) state.prefilled = cached;
            decision.restores.push_back(SchedulingDecision::Transition{
                static_cast<int>(i), mode, kv.Held(state.request.id),
                cached});
            continue;
        }
        if (state.request.arrival_time > now) break;
        kv.CheckFits(state);
        if (!kv.TryAdmit(state)) break;
        state.phase = Phase::kRunning;
        int cached = kv.LastAdmitCachedTokens();
        if (cached > 0) state.prefilled = cached;
        decision.admissions.push_back(SchedulingDecision::Admission{
            static_cast<int>(i), cached});
        admitted_end = std::max(admitted_end, i + 1);
    }
    admitted_end = std::min(admitted_end, requests.size());
}

void
RefPreempt(std::vector<RequestState>& requests, int req_index,
           KvAllocator& kv, SchedulingDecision& decision)
{
    RequestState& state = requests[static_cast<size_t>(req_index)];
    PreemptMode mode = kv.preempt_mode();
    long blocks = kv.Evict(state, mode);
    state.phase = mode == PreemptMode::kSwap ? Phase::kPreemptedSwapped
                                             : Phase::kPreemptedRecompute;
    decision.preemptions.push_back(
        SchedulingDecision::Transition{req_index, mode, blocks});
}

void
RefScheduleDecodes(std::vector<RequestState>& requests, KvAllocator& kv,
                   size_t active_begin, size_t admitted_end,
                   SchedulingDecision& decision)
{
    std::vector<int> running;
    for (size_t i = active_begin; i < admitted_end; ++i) {
        if (requests[i].Admitted() && requests[i].DecodePending()) {
            running.push_back(static_cast<int>(i));
        }
    }
    size_t lo = 0;
    size_t hi = running.size();
    while (lo < hi) {
        RequestState& state = requests[static_cast<size_t>(running[lo])];
        bool appended = kv.TryAppend(state);
        while (!appended && hi - lo > 1) {
            --hi;
            RefPreempt(requests, running[hi], kv, decision);
            appended = kv.TryAppend(state);
        }
        if (!appended) {
            RefPreempt(requests, running[lo], kv, decision);
            ++lo;
            continue;
        }
        decision.batch.decodes.push_back(running[lo]);
        ++lo;
        if (static_cast<int>(decision.batch.decodes.size()) >=
            kMaxNumSeqs) {
            break;
        }
    }
}

class RefVllmScheduler : public Scheduler
{
  public:
    using Scheduler::Next;

    SchedulingDecision
    Next(double now, std::vector<RequestState>& requests, KvAllocator& kv,
         size_t active_begin, size_t& admitted_end) override
    {
        SchedulingDecision decision;
        RefPlanAdmissions(now, requests, kv, active_begin, admitted_end,
                          decision);
        ScheduledBatch& batch = decision.batch;
        int tokens = 0;
        for (size_t i = active_begin; i < admitted_end; ++i) {
            RequestState& state = requests[i];
            if (!state.Admitted() || state.PrefillDone()) continue;
            int remaining = state.PrefillTarget() - state.prefilled;
            if (!batch.prefills.empty() &&
                (tokens + remaining > kMaxBatchedTokens ||
                 static_cast<int>(batch.prefills.size()) >=
                     kMaxNumSeqs)) {
                break;
            }
            batch.prefills.push_back(ScheduledBatch::PrefillChunk{
                static_cast<int>(i), remaining, state.PrefillTarget()});
            tokens += remaining;
        }
        if (!batch.prefills.empty()) return decision;
        RefScheduleDecodes(requests, kv, active_begin, admitted_end,
                           decision);
        return decision;
    }

    std::string Name() const override { return "ref-vLLM"; }
};

class RefSarathiScheduler : public Scheduler
{
  public:
    explicit RefSarathiScheduler(int token_budget)
        : token_budget_(token_budget)
    {
    }

    using Scheduler::Next;

    SchedulingDecision
    Next(double now, std::vector<RequestState>& requests, KvAllocator& kv,
         size_t active_begin, size_t& admitted_end) override
    {
        SchedulingDecision decision;
        RefPlanAdmissions(now, requests, kv, active_begin, admitted_end,
                          decision);
        ScheduledBatch& batch = decision.batch;
        RefScheduleDecodes(requests, kv, active_begin, admitted_end,
                           decision);
        int budget = std::max(
            0, token_budget_ - static_cast<int>(batch.decodes.size()));
        for (size_t i = active_begin; i < admitted_end && budget > 0;
             ++i) {
            RequestState& state = requests[i];
            if (!state.Admitted() || state.PrefillDone()) continue;
            int remaining = state.PrefillTarget() - state.prefilled;
            int chunk = std::min(budget, remaining);
            batch.prefills.push_back(ScheduledBatch::PrefillChunk{
                static_cast<int>(i), chunk, state.prefilled + chunk});
            budget -= chunk;
        }
        return decision;
    }

    std::string Name() const override { return "ref-Sarathi"; }

  private:
    int token_budget_;
};

// ---- decision comparison ----

::testing::AssertionResult
SameTransitions(const char* what,
                const std::vector<SchedulingDecision::Transition>& a,
                const std::vector<SchedulingDecision::Transition>& b)
{
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure()
               << what << " count " << a.size() << " vs " << b.size();
    }
    for (size_t k = 0; k < a.size(); ++k) {
        if (a[k].req_index != b[k].req_index || a[k].mode != b[k].mode ||
            a[k].blocks != b[k].blocks ||
            a[k].cached_tokens != b[k].cached_tokens) {
            return ::testing::AssertionFailure()
                   << what << "[" << k << "] request " << a[k].req_index
                   << " vs " << b[k].req_index;
        }
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
SameDecision(const SchedulingDecision& a, const SchedulingDecision& b)
{
    if (a.batch.decodes != b.batch.decodes) {
        return ::testing::AssertionFailure()
               << "decodes " << a.batch.decodes.size() << " vs "
               << b.batch.decodes.size();
    }
    if (a.batch.prefills.size() != b.batch.prefills.size()) {
        return ::testing::AssertionFailure()
               << "prefills " << a.batch.prefills.size() << " vs "
               << b.batch.prefills.size();
    }
    for (size_t k = 0; k < a.batch.prefills.size(); ++k) {
        const auto& p = a.batch.prefills[k];
        const auto& q = b.batch.prefills[k];
        if (p.req_index != q.req_index || p.chunk_len != q.chunk_len ||
            p.kv_len_after != q.kv_len_after) {
            return ::testing::AssertionFailure()
                   << "prefill[" << k << "] request " << p.req_index
                   << " vs " << q.req_index;
        }
    }
    if (a.admissions.size() != b.admissions.size()) {
        return ::testing::AssertionFailure()
               << "admissions " << a.admissions.size() << " vs "
               << b.admissions.size();
    }
    for (size_t k = 0; k < a.admissions.size(); ++k) {
        if (a.admissions[k].req_index != b.admissions[k].req_index ||
            a.admissions[k].cached_tokens !=
                b.admissions[k].cached_tokens) {
            return ::testing::AssertionFailure()
                   << "admission[" << k << "] request "
                   << a.admissions[k].req_index << " vs "
                   << b.admissions[k].req_index;
        }
    }
    ::testing::AssertionResult restores =
        SameTransitions("restores", a.restores, b.restores);
    if (!restores) return restores;
    return SameTransitions("preemptions", a.preemptions, b.preemptions);
}

// ---- engine-style driving loop ----

/** Scheduler + request vector + allocator, mutated as the engine does. */
struct World
{
    std::unique_ptr<Scheduler> scheduler;
    std::unique_ptr<KvAllocator> kv;
    std::vector<RequestState> states;
    size_t active_begin = 0;
    size_t admitted_end = 0;

    SchedulingDecision
    Next(double now)
    {
        return scheduler->Next(now, states, *kv, active_begin,
                               admitted_end);
    }

    /** Apply a decision's consequences (ServingEngine::Step). */
    void
    Apply(const SchedulingDecision& d)
    {
        for (const auto& t : d.preemptions) {
            RequestState& s = states[static_cast<size_t>(t.req_index)];
            ++s.preempt_count;
            if (t.mode == PreemptMode::kRecompute) {
                s.recompute_extra = s.decoded;
                s.prefilled = 0;
            }
        }
        for (const auto& p : d.batch.prefills) {
            RequestState& s = states[static_cast<size_t>(p.req_index)];
            s.prefilled += p.chunk_len;
            if (s.PrefillDone()) {
                kv->OnPrefillComplete(s);
                s.decoded += 1;
                if (s.decoded >= s.request.decode_tokens) Finish(s);
            }
        }
        for (int idx : d.batch.decodes) {
            RequestState& s = states[static_cast<size_t>(idx)];
            s.decoded += 1;
            if (s.decoded >= s.request.decode_tokens) Finish(s);
        }
        while (active_begin < states.size() &&
               states[active_begin].Finished()) {
            ++active_begin;
        }
    }

    void
    Finish(RequestState& s)
    {
        s.phase = Phase::kFinished;
        kv->Release(s.request.id);
    }
};

/** What a scenario exercised, to prove the paths were covered. */
struct Coverage
{
    long calls = 0;
    long preemptions = 0;
    long swap_restores = 0;
    long recompute_restores = 0;
    long cached_tokens = 0;
    size_t max_active_window = 0;
};

struct Scenario
{
    bool sarathi = true;
    int token_budget = 512;
    KvPolicy policy = KvPolicy::kConservative;
    PreemptMode mode = PreemptMode::kRecompute;
    bool prefix = false;
    long blocks = 256;

    /** Append requests as they arrive instead of all up front. */
    bool incremental = false;
};

std::unique_ptr<Scheduler>
MakeScheduler(const Scenario& sc, bool reference)
{
    if (reference) {
        if (sc.sarathi) {
            return std::make_unique<RefSarathiScheduler>(sc.token_budget);
        }
        return std::make_unique<RefVllmScheduler>();
    }
    if (sc.sarathi) return std::make_unique<SarathiScheduler>(sc.token_budget);
    return std::make_unique<VllmScheduler>();
}

World
MakeWorld(const Scenario& sc, bool reference)
{
    World w;
    w.scheduler = MakeScheduler(sc, reference);
    w.kv = std::make_unique<KvAllocator>(sc.policy, sc.blocks, 16, 0.01,
                                         sc.mode, sc.prefix);
    return w;
}

/**
 * Drive the reference and the queue-keeping scheduler in lockstep
 * over `trace` (sorted by arrival) and compare every decision. The
 * clock advances by a batch-size-dependent step; an empty batch
 * jumps it to the next arrival, as the engine does.
 */
::testing::AssertionResult
RunLockstep(const Scenario& sc, const std::vector<Request>& trace,
            Coverage& cov)
{
    World ref = MakeWorld(sc, true);
    World got = MakeWorld(sc, false);
    size_t submitted = 0;
    const auto submit_arrived = [&](double now) {
        while (submitted < trace.size() &&
               (!sc.incremental || trace[submitted].arrival_time <= now)) {
            RequestState s;
            s.request = trace[submitted++];
            ref.states.push_back(s);
            got.states.push_back(s);
        }
    };
    double now = 0.0;
    submit_arrived(now);
    const long max_calls = 200000;
    while (ref.active_begin < trace.size()) {
        if (++cov.calls > max_calls) {
            return ::testing::AssertionFailure() << "no progress";
        }
        cov.max_active_window = std::max(
            cov.max_active_window, ref.admitted_end - ref.active_begin);
        SchedulingDecision a = ref.Next(now);
        SchedulingDecision b = got.Next(now);
        ::testing::AssertionResult same = SameDecision(a, b);
        if (!same) return same << " at call " << cov.calls << " t=" << now;
        if (ref.kv->FreeBlocks() != got.kv->FreeBlocks()) {
            return ::testing::AssertionFailure()
                   << "free blocks diverge at call " << cov.calls;
        }
        cov.preemptions += static_cast<long>(a.preemptions.size());
        for (const auto& t : a.restores) {
            ++(t.mode == PreemptMode::kSwap ? cov.swap_restores
                                            : cov.recompute_restores);
            cov.cached_tokens += t.cached_tokens;
        }
        for (const auto& adm : a.admissions) {
            cov.cached_tokens += adm.cached_tokens;
        }
        if (a.batch.Empty()) {
            // Idle: jump to the next arrival, submitting it first
            // when requests are appended as they arrive.
            double next = now;
            for (const RequestState& s : ref.states) {
                if (s.phase == Phase::kQueued &&
                    s.request.arrival_time > now) {
                    next = s.request.arrival_time;
                    break;
                }
            }
            if (next == now && submitted < trace.size()) {
                next = trace[submitted].arrival_time;
            }
            if (next == now) {
                return ::testing::AssertionFailure()
                       << "stuck at call " << cov.calls;
            }
            now = next;
            submit_arrived(now);
            continue;
        }
        ref.Apply(a);
        got.Apply(b);
        now += 0.002 + 1e-5 * a.batch.TotalTokens();
        submit_arrived(now);
    }
    for (size_t i = 0; i < ref.states.size(); ++i) {
        const RequestState& r = ref.states[i];
        const RequestState& g = got.states[i];
        if (r.phase != g.phase || r.prefilled != g.prefilled ||
            r.decoded != g.decoded || r.preempt_count != g.preempt_count) {
            return ::testing::AssertionFailure()
                   << "final state of request " << i << " diverges";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Opaque-prompt trace; every request fits the 200-block pools. */
std::vector<Request>
RandomTrace(Rng& rng, int count, double qps)
{
    std::vector<Request> trace;
    double t = 0.0;
    for (int i = 0; i < count; ++i) {
        if (qps > 0.0) t += rng.Exponential(qps);
        Request r;
        r.id = i;
        r.arrival_time = t;
        r.prefill_tokens = static_cast<int>(rng.UniformInt(16, 1200));
        r.decode_tokens = static_cast<int>(rng.UniformInt(1, 300));
        trace.push_back(r);
    }
    return trace;
}

/** Small chat sessions whose prompts share prefixes. */
std::vector<Request>
SessionTrace(Rng& rng, int sessions, double qps)
{
    SessionWorkloadSpec spec = SessionWorkloadSpec::Chat();
    spec.num_system_prompts = 4;
    spec.share_ratio = 0.8;
    spec.system_tokens_min = 64;
    spec.system_tokens_max = 384;
    spec.user_mean = 64.0;
    spec.user_stddev = 32.0;
    spec.user_min = 16;
    spec.user_max = 128;
    spec.decode_mean = 64.0;
    spec.decode_stddev = 32.0;
    spec.decode_min = 4;
    spec.decode_max = 128;
    spec.think_time_mean = 0.5;
    return GenerateSessionTrace(spec, sessions, qps, rng);
}

std::string
Describe(const Scenario& sc, uint64_t seed)
{
    std::string s = sc.sarathi ? "Sarathi/" + std::to_string(sc.token_budget)
                               : std::string("vLLM");
    s += sc.policy == KvPolicy::kConservative ? " conservative"
                                              : " watermark";
    if (sc.policy == KvPolicy::kWatermark) {
        s += sc.mode == PreemptMode::kSwap ? "+swap" : "+recompute";
    }
    if (sc.prefix) s += " prefix";
    if (sc.incremental) s += " incremental";
    return s + " seed " + std::to_string(seed);
}

TEST(SchedulerDiffTest, RandomTracesMatchFullScanReference)
{
    struct Policy
    {
        KvPolicy policy;
        PreemptMode mode;
        bool prefix;
        long blocks;
    };
    // Pools small enough that the watermark policies preempt.
    const Policy policies[] = {
        {KvPolicy::kConservative, PreemptMode::kRecompute, false, 400},
        {KvPolicy::kWatermark, PreemptMode::kRecompute, false, 200},
        {KvPolicy::kWatermark, PreemptMode::kSwap, false, 200},
        {KvPolicy::kWatermark, PreemptMode::kRecompute, true, 200},
        {KvPolicy::kConservative, PreemptMode::kRecompute, true, 400},
    };
    Coverage watermark_cov;
    Coverage prefix_cov;
    Coverage swap_cov;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        for (const Policy& p : policies) {
            for (int sched = 0; sched < 3; ++sched) {
                Scenario sc;
                sc.sarathi = sched > 0;
                sc.token_budget = sched == 1 ? 96 : 512;
                sc.policy = p.policy;
                sc.mode = p.mode;
                sc.prefix = p.prefix;
                sc.blocks = p.blocks;
                sc.incremental = (seed % 2) == 0;
                Rng rng(seed * 7919 + static_cast<uint64_t>(sched));
                const double qps = seed <= 2 ? 0.0 : 40.0;
                std::vector<Request> trace =
                    p.prefix ? SessionTrace(rng, 40, qps / 4)
                             : RandomTrace(rng, 120, qps);
                Coverage cov;
                ASSERT_TRUE(RunLockstep(sc, trace, cov))
                    << Describe(sc, seed);
                Coverage& bucket = p.prefix ? prefix_cov
                                   : p.mode == PreemptMode::kSwap
                                       ? swap_cov
                                       : watermark_cov;
                if (p.policy == KvPolicy::kWatermark || p.prefix) {
                    bucket.preemptions += cov.preemptions;
                    bucket.recompute_restores += cov.recompute_restores;
                    bucket.swap_restores += cov.swap_restores;
                    bucket.cached_tokens += cov.cached_tokens;
                }
            }
        }
    }
    // The comparison only means something if every path ran.
    EXPECT_GT(watermark_cov.preemptions, 0);
    EXPECT_GT(watermark_cov.recompute_restores, 0);
    EXPECT_GT(swap_cov.swap_restores, 0);
    EXPECT_GT(prefix_cov.cached_tokens, 0);
    EXPECT_GT(prefix_cov.recompute_restores, 0);
}

TEST(SchedulerDiffTest, LongDecodePinningActiveBeginMatchesReference)
{
    // One long decode at index 0 keeps the reference's active_begin
    // at 0 while thousands of short requests behind it finish: the
    // reference rescans all of them on every call, the queue-keeping
    // scheduler must skip them and still decide identically.
    std::vector<Request> trace;
    trace.push_back(Request{0, 0.0, 64, 3000, {}, -1, 0});
    for (int i = 1; i <= 2000; ++i) {
        trace.push_back(Request{i, 0.0, 32 + (i % 7) * 16, 2 + i % 5, {},
                                -1, 0});
    }
    for (KvPolicy policy : {KvPolicy::kConservative, KvPolicy::kWatermark}) {
        for (bool sarathi : {true, false}) {
            Scenario sc;
            sc.sarathi = sarathi;
            sc.policy = policy;
            sc.blocks = 1024;
            Coverage cov;
            ASSERT_TRUE(RunLockstep(sc, trace, cov)) << Describe(sc, 0);
            // The scenario is what it claims: the window the
            // reference scans spanned the whole trace.
            EXPECT_EQ(cov.max_active_window, trace.size())
                << Describe(sc, 0);
        }
    }
}

}  // namespace
}  // namespace pod::serve

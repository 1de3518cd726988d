/**
 * @file
 * Shared machinery of the two fluid-engine cores (docs/DESIGN.md S3).
 *
 * The analytic core (engine.cc) and the stepwise exact oracle
 * (engine_oracle.cc) must agree on everything that is *not* rate
 * arithmetic: kernel/stream sequencing, CTA placement (PickSm),
 * occupancy accounting, phase/refill transitions and
 * result assembly. Any drift there would turn placement differences
 * into unbounded divergence between the cores, so that machinery
 * lives here once, as a CRTP base, and each core supplies only its
 * rate model through small hooks:
 *
 *  - AddUnit(unit_state, caps): store the core's hot state for a new
 *    unit, load its first phase, register it in the active sets.
 *    Returns false for a unit with no work.
 *  - OnSmTouched(sm): an SM's resident-demand set changed (dispatch,
 *    phase transition, refill, retirement) -- invalidate whatever the
 *    core caches about it.
 *  - SetUnitCaps(uid, unit_state): (re)derive the static per-unit
 *    rate caps after a refill swapped the lane's work.
 *  - OnUnitRetired(uid, sm): the unit left the active sets.
 *
 * The base is header-only and CRTP (no virtual dispatch), so the
 * oracle compiles to exactly the pre-split code: its bit-identical
 * regression pins (tests/gpusim/engine_regression_test.cc) still hold.
 *
 * Placement is indexed: each kernel keeps a bitset of the SMs its CTA
 * footprint fits on, refreshed for the one SM a dispatch or retirement
 * changes. PickSm walks that bitset with count-trailing-zeros in the
 * same circular order as a linear first-fit scan from the round-robin
 * pointer, so it picks the same SMs, and a placement that fails
 * because the GPU is full costs O(words) instead of O(SMs).
 */
#ifndef POD_GPUSIM_ENGINE_INTERNAL_H
#define POD_GPUSIM_ENGINE_INTERNAL_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "gpusim/engine.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/sim_result.h"
#include "gpusim/water_fill.h"
#include "gpusim/work.h"

namespace pod::gpusim::detail {

/** Work below this many FLOPs/bytes counts as finished. */
constexpr double kDoneEps = 1e-3;

/**
 * Headroom of the pacing cap: a compute dim still streaming memory
 * wants kPaceHeadroom * rem_x * r_mem / rem_m, slightly more than the
 * rate that keeps exact pace, so it never lags its memory.
 */
constexpr double kPaceHeadroom = 1.1;

/** Upper bound on simulation events, guards against engine bugs. */
constexpr long kMaxEvents = 200'000'000;

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Relative margin under which the closed-form "everyone gets their
 * cap" shortcut for an under-subscribed water-fill is not trusted:
 * within it, the exact sequential water-fill runs instead, so shares
 * perturbed by summation rounding can never flip an allocation.
 */
constexpr double kUndersubscribedMargin = 1.0 - 1e-12;

/** Static per-unit rate caps, derived once per dispatch/refill. */
struct UnitCaps
{
    double tensor_cap = 0.0;
    double cuda_cap = 0.0;
    double mem_base = 0.0;
};

/** Per-unit bookkeeping read at transitions, not every event. */
struct UnitState
{
    int cta = -1;
    int sm = -1;
    OpClass op = OpClass::kOther;
    int warps = 4;
    double mem_bw_cap = 0.0;
    /** Remaining phases: arena range [phase_next, phase_end). */
    uint32_t phase_next = 0;
    uint32_t phase_end = 0;
    bool done = false;
};

/** Mutable execution state of one CTA. */
struct CtaState
{
    int kernel = -1;
    int sm = -1;
    int threads = 0;
    double smem = 0.0;
    int remaining_units = 0;
};

/** Mutable state of one SM (occupancy; rate state lives per-core). */
struct SmState
{
    int free_threads = 0;
    double free_smem = 0.0;
    int resident_ctas = 0;
    /** Resident CTA count per kernel (indexed by kernel id). */
    std::vector<int> kernel_resident;
    /** Ids of active (not done) units on this SM. */
    std::vector<int> active_units;
};

/** Mutable state of one kernel launch. */
struct KernelState
{
    const KernelDesc* desc = nullptr;
    int stream = 0;
    int dispatched = 0;
    int completed_ctas = 0;
    bool started = false;
    bool finished = false;
    double ready_time = kInf;
    double start_time = 0.0;
    double end_time = 0.0;
};

/** One in-order stream of kernels. */
struct StreamState
{
    std::vector<int> kernels;
    size_t head = 0;
};

/**
 * Engine-core-independent simulation state and transitions; one
 * instance per FluidEngine::Run call. `Derived` supplies the rate
 * model (see file header).
 */
template <class Derived>
class SimulationBase
{
  protected:
    SimulationBase(const GpuSpec& spec, const SimOptions& options,
                   const std::vector<KernelLaunch>& launches)
        : spec_(spec), options_(options)
    {
        size_t num_sms = static_cast<size_t>(spec_.num_sms);
        sms_.resize(num_sms);
        for (auto& sm : sms_) {
            sm.free_threads = spec_.max_threads_per_sm;
            sm.free_smem = spec_.shared_mem_per_sm;
            sm.kernel_resident.assign(launches.size(), 0);
        }

        kernels_.reserve(launches.size());
        int max_stream = 0;
        for (const auto& launch : launches) {
            max_stream = std::max(max_stream, launch.stream);
        }
        streams_.resize(static_cast<size_t>(max_stream) + 1);
        for (size_t i = 0; i < launches.size(); ++i) {
            KernelState ks;
            ks.desc = &launches[i].kernel;
            ks.stream = launches[i].stream;
            POD_CHECK_ARG(ks.desc->cta_count >= 0,
                          "kernel CTA count must be >= 0");
            POD_CHECK_ARG(ks.desc->cta_count == 0 || ks.desc->assign,
                          "kernel with CTAs needs an assign function");
            kernels_.push_back(ks);
            streams_[static_cast<size_t>(launches[i].stream)]
                .kernels.push_back(static_cast<int>(i));
        }
        fit_stride_ = (num_sms + 63) / 64;
        fit_words_.assign(kernels_.size() * fit_stride_, 0);
        for (int sm = 0; sm < spec_.num_sms; ++sm) {
            RefreshFit(sm);
        }
        // Arm the head kernel of every stream.
        for (auto& stream : streams_) {
            ArmHead(stream, 0.0);
        }
    }

    Derived&
    self()
    {
        return static_cast<Derived&>(*this);
    }

    /** Make the stream-head kernel dispatchable after launch overhead. */
    void
    ArmHead(StreamState& stream, double now)
    {
        while (stream.head < stream.kernels.size()) {
            KernelState& ks =
                kernels_[static_cast<size_t>(stream.kernels[stream.head])];
            ks.ready_time = now + options_.kernel_launch_overhead;
            if (ks.desc->cta_count > 0) {
                break;
            }
            // Empty kernel: completes as soon as it becomes ready.
            ks.started = true;
            ks.finished = true;
            ++finished_kernels_;
            ks.start_time = ks.ready_time;
            ks.end_time = ks.ready_time;
            ++stream.head;
        }
    }

    /** True if the CTA footprint fits on the SM right now. */
    bool
    Fits(const SmState& sm, const KernelDesc& desc, int kernel_id) const
    {
        if (sm.free_threads < desc.resources.threads) return false;
        if (sm.free_smem < desc.resources.shared_mem_bytes) return false;
        if (sm.resident_ctas >= spec_.max_ctas_per_sm) return false;
        if (desc.max_ctas_per_sm > 0 &&
            sm.kernel_resident[static_cast<size_t>(kernel_id)] >=
                desc.max_ctas_per_sm) {
            return false;
        }
        return true;
    }

    /** Re-derive the SM's fit bit for every kernel; called whenever
     *  the SM's occupancy changes. */
    void
    RefreshFit(int sm_id)
    {
        const SmState& sm = sms_[static_cast<size_t>(sm_id)];
        const size_t word = static_cast<size_t>(sm_id) / 64;
        const uint64_t bit = uint64_t{1} << (sm_id % 64);
        for (size_t k = 0; k < kernels_.size(); ++k) {
            uint64_t& w = fit_words_[k * fit_stride_ + word];
            if (Fits(sm, *kernels_[k].desc, static_cast<int>(k))) {
                w |= bit;
            } else {
                w &= ~bit;
            }
        }
    }

    /** Lowest SM in [from, to) whose bit is set; -1 if none. */
    static int
    FirstFitIn(const uint64_t* words, int from, int to)
    {
        if (from >= to) return -1;
        int w = from / 64;
        const int last = (to - 1) / 64;
        uint64_t bits = words[w] & (~uint64_t{0} << (from % 64));
        while (bits == 0) {
            if (++w > last) return -1;
            bits = words[w];
        }
        int sm = w * 64 + __builtin_ctzll(bits);
        return sm < to ? sm : -1;
    }

    /**
     * Choose an SM for the next CTA: first fit scanning round-robin
     * from a rotating pointer (models the hardware work distributor).
     * Returns -1 if nothing fits.
     */
    int
    PickSm(int kernel_id)
    {
        const uint64_t* fit =
            &fit_words_[static_cast<size_t>(kernel_id) * fit_stride_];
        const int n = spec_.num_sms;
        // Circular order from the pointer: [rr, n), then [0, rr).
        int chosen = FirstFitIn(fit, rr_pointer_, n);
        if (chosen < 0) chosen = FirstFitIn(fit, 0, rr_pointer_);
        if (chosen < 0) return -1;
        rr_pointer_ = (chosen + 1) % n;
        return chosen;
    }

    /**
     * Load the unit's next phase work into the given remaining-work
     * slots (the core's hot storage); false if no more non-empty
     * phases.
     */
    bool
    LoadNextPhase(UnitState& u, double& rem_tensor, double& rem_cuda,
                  double& rem_mem)
    {
        while (u.phase_next < u.phase_end) {
            const Phase& p = phase_arena_[u.phase_next];
            ++u.phase_next;
            if (!p.Empty()) {
                rem_tensor = p.tensor_flops;
                rem_cuda = p.cuda_flops;
                rem_mem = p.mem_bytes;
                return true;
            }
        }
        return false;
    }

    /** Append a work list's phases to the arena; returns the range. */
    std::pair<uint32_t, uint32_t>
    StorePhases(const std::vector<Phase>& phases)
    {
        uint32_t begin = static_cast<uint32_t>(phase_arena_.size());
        phase_arena_.insert(phase_arena_.end(), phases.begin(),
                            phases.end());
        return {begin, static_cast<uint32_t>(phase_arena_.size())};
    }

    /** Derive the static per-unit rate caps from warps and the spec. */
    void
    SetStaticCaps(const UnitState& u, UnitCaps& caps) const
    {
        caps.tensor_cap =
            spec_.tensor_flops_per_sm *
            std::min(1.0, static_cast<double>(u.warps) /
                              spec_.warps_per_tensor_saturation);
        caps.cuda_cap =
            spec_.cuda_flops_per_sm *
            std::min(1.0, static_cast<double>(u.warps) /
                              spec_.warps_per_cuda_saturation);
        caps.mem_base = u.mem_bw_cap > 0.0
                            ? u.mem_bw_cap
                            : static_cast<double>(u.warps) *
                                  spec_.warp_bandwidth_cap;
    }

    /** Place one CTA of the kernel; false if no SM has room. */
    bool
    DispatchOne(int kernel_id, double now)
    {
        KernelState& ks = kernels_[static_cast<size_t>(kernel_id)];
        const KernelDesc& desc = *ks.desc;
        int sm_id = PickSm(kernel_id);
        if (sm_id < 0) return false;

        SmState& sm = sms_[static_cast<size_t>(sm_id)];
        sm.free_threads -= desc.resources.threads;
        sm.free_smem -= desc.resources.shared_mem_bytes;
        sm.resident_ctas += 1;
        sm.kernel_resident[static_cast<size_t>(kernel_id)] += 1;
        RefreshFit(sm_id);

        if (!ks.started) {
            ks.started = true;
            ks.start_time = now;
        }

        CtaWork work = desc.assign(ks.dispatched, sm_id);
        ks.dispatched += 1;

        int cta_id = static_cast<int>(ctas_.size());
        CtaState cta;
        cta.kernel = kernel_id;
        cta.sm = sm_id;
        cta.threads = desc.resources.threads;
        cta.smem = desc.resources.shared_mem_bytes;
        cta.remaining_units = 0;
        ctas_.push_back(cta);
        ++total_ctas_;

        for (auto& unit : work.units) {
            UnitState us;
            UnitCaps caps;
            us.cta = cta_id;
            us.sm = sm_id;
            us.op = unit.op;
            us.warps = std::max(1, unit.warps);
            us.mem_bw_cap = unit.mem_bw_cap;
            std::tie(us.phase_next, us.phase_end) =
                StorePhases(unit.phases);
            SetStaticCaps(us, caps);
            result_.per_op[static_cast<size_t>(us.op)].unit_count += 1;
            // The hook loads the first phase and registers the unit;
            // a unit with no work completes immediately (not added).
            if (self().AddUnit(us, caps)) {
                ctas_[static_cast<size_t>(cta_id)].remaining_units += 1;
                op_active_[static_cast<size_t>(us.op)] += 1;
            }
        }
        self().OnSmTouched(sm_id);

        if (ctas_[static_cast<size_t>(cta_id)].remaining_units == 0) {
            // CTA carried no work at all; retire it on the spot.
            RetireCta(cta_id, now);
        }
        return true;
    }

    /**
     * Dispatch as many ready CTAs as fit, draining streams in
     * submission order (earlier streams get priority, later streams
     * backfill) -- the behaviour the paper observes for CUDA streams.
     */
    void
    DispatchAll(double now)
    {
        for (auto& stream : streams_) {
            while (stream.head < stream.kernels.size()) {
                int kid = stream.kernels[stream.head];
                KernelState& ks = kernels_[static_cast<size_t>(kid)];
                if (now + 1e-15 < ks.ready_time) break;
                if (ks.dispatched >= ks.desc->cta_count) break;
                if (!DispatchOne(kid, now)) break;
            }
        }
    }

    /** Free a finished CTA's resources and advance kernel/stream state. */
    void
    RetireCta(int cta_id, double now)
    {
        CtaState& cta = ctas_[static_cast<size_t>(cta_id)];
        SmState& sm = sms_[static_cast<size_t>(cta.sm)];
        sm.free_threads += cta.threads;
        sm.free_smem += cta.smem;
        sm.resident_ctas -= 1;
        sm.kernel_resident[static_cast<size_t>(cta.kernel)] -= 1;
        RefreshFit(cta.sm);
        if (options_.record_cta_times) {
            result_.cta_finish_times.push_back(now);
        }

        KernelState& ks = kernels_[static_cast<size_t>(cta.kernel)];
        ks.completed_ctas += 1;
        if (ks.completed_ctas == ks.desc->cta_count) {
            ks.finished = true;
            ++finished_kernels_;
            ks.end_time = now;
            StreamState& stream = streams_[static_cast<size_t>(ks.stream)];
            // The finished kernel must be the stream head.
            POD_ASSERT(stream.head < stream.kernels.size());
            ++stream.head;
            ArmHead(stream, now);
        }
    }

    /** Earliest pending kernel ready time (absolute; may be inf). */
    double
    NextReadyTime() const
    {
        double t = kInf;
        for (const auto& stream : streams_) {
            if (stream.head < stream.kernels.size()) {
                const KernelState& ks = kernels_[static_cast<size_t>(
                    stream.kernels[stream.head])];
                if (!ks.finished && ks.dispatched < ks.desc->cta_count) {
                    t = std::min(t, ks.ready_time);
                }
            }
        }
        return t;
    }

    /**
     * Advance a unit whose current phase fully drained: load the next
     * phase, or (for persistent kernels) refill the lane with the next
     * queued work item (paper S4.4), or retire the unit.
     *
     * Returns true if the unit continues (new phase loaded into the
     * given hot slots); false if it retired -- in that case all
     * bookkeeping except the caller's own active-list removal and the
     * CTA release (ReleaseUnitCta) has been performed.
     */
    bool
    TryContinueUnit(int uid, double now, double& rem_tensor,
                    double& rem_cuda, double& rem_mem, OpClass& hot_op)
    {
        UnitState& u = units_[static_cast<size_t>(uid)];
        if (LoadNextPhase(u, rem_tensor, rem_cuda, rem_mem)) {
            // New phase, new demands: the SM's cached rates are stale.
            self().OnSmTouched(u.sm);
            return true;
        }
        const KernelDesc* desc =
            kernels_[static_cast<size_t>(
                         ctas_[static_cast<size_t>(u.cta)].kernel)]
                .desc;
        if (desc->refill) {
            WorkUnit next;
            if (desc->refill(u.sm, u.op, &next) &&
                !next.phases.empty()) {
                auto& old_op = result_.per_op[static_cast<size_t>(u.op)];
                old_op.finish_time = std::max(old_op.finish_time, now);
                op_active_[static_cast<size_t>(u.op)] -= 1;
                u.op = next.op;
                u.warps = std::max(1, next.warps);
                u.mem_bw_cap = next.mem_bw_cap;
                hot_op = next.op;
                std::tie(u.phase_next, u.phase_end) =
                    StorePhases(next.phases);
                self().SetUnitCaps(uid, u);
                result_.per_op[static_cast<size_t>(u.op)].unit_count += 1;
                op_active_[static_cast<size_t>(u.op)] += 1;
                self().OnSmTouched(u.sm);
                if (LoadNextPhase(u, rem_tensor, rem_cuda, rem_mem)) {
                    return true;
                }
                // Refilled with an empty unit: fall through to the
                // retire path (it handles the new op's accounting).
            }
        }
        u.done = true;
        auto& op = result_.per_op[static_cast<size_t>(u.op)];
        op.finish_time = std::max(op.finish_time, now);
        op_active_[static_cast<size_t>(u.op)] -= 1;

        // Remove from the SM's active list.
        auto& sm_units = sms_[static_cast<size_t>(u.sm)].active_units;
        auto it = std::find(sm_units.begin(), sm_units.end(), uid);
        POD_ASSERT(it != sm_units.end());
        *it = sm_units.back();
        sm_units.pop_back();
        self().OnUnitRetired(uid, u.sm);
        self().OnSmTouched(u.sm);
        return false;
    }

    /** Release a retired unit's CTA slot (last unit retires the CTA). */
    void
    ReleaseUnitCta(int uid, double now)
    {
        UnitState& u = units_[static_cast<size_t>(uid)];
        CtaState& cta = ctas_[static_cast<size_t>(u.cta)];
        cta.remaining_units -= 1;
        if (cta.remaining_units == 0) {
            RetireCta(u.cta, now);
        }
    }

    /** Assemble the run-wide result fields (timings, utils, energy). */
    void
    FinalizeResult(double now)
    {
        result_.total_time = now;
        result_.total_ctas = total_ctas_;
        result_.kernels.reserve(kernels_.size());
        for (const auto& ks : kernels_) {
            KernelTiming kt;
            kt.name = ks.desc->name;
            kt.start_time = ks.start_time;
            kt.end_time = ks.end_time;
            result_.kernels.push_back(kt);
        }
        if (now > 0.0) {
            result_.tensor_util =
                served_tensor_ / (now * spec_.TotalTensorFlops());
            result_.cuda_util =
                served_cuda_ / (now * spec_.TotalCudaFlops());
            result_.mem_util = served_mem_ / (now * spec_.hbm_bandwidth);
        }
        result_.energy_joules = energy_;
    }

    const GpuSpec& spec_;
    const SimOptions& options_;

    std::vector<SmState> sms_;
    std::vector<KernelState> kernels_;
    std::vector<StreamState> streams_;
    std::vector<CtaState> ctas_;
    std::vector<UnitState> units_;
    /** Arena backing every unit's phase list (grows per dispatch). */
    std::vector<Phase> phase_arena_;
    /** Fit bitsets: kernel k's words are [k * fit_stride_, +fit_stride_),
     *  bit sm set iff Fits(sms_[sm], kernel k). */
    std::vector<uint64_t> fit_words_;
    size_t fit_stride_ = 0;
    int rr_pointer_ = 0;
    int total_ctas_ = 0;
    size_t finished_kernels_ = 0;

    /** Active unit count per op class (for busy-time accounting). */
    std::array<int, kNumOpClasses> op_active_ = {};

    // Served-work integrals for utilization accounting.
    double served_tensor_ = 0.0;
    double served_cuda_ = 0.0;
    double served_mem_ = 0.0;
    double energy_ = 0.0;

    SimResult result_;
};

/** Run one simulation on the stepwise exact-oracle core. */
SimResult RunOracleSimulation(const GpuSpec& spec, const SimOptions& options,
                              const std::vector<KernelLaunch>& launches);

/** Run one simulation on the closed-form analytic core. */
SimResult RunAnalyticSimulation(const GpuSpec& spec,
                                const SimOptions& options,
                                const std::vector<KernelLaunch>& launches);

}  // namespace pod::gpusim::detail

#endif  // POD_GPUSIM_ENGINE_INTERNAL_H

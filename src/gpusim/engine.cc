/**
 * @file
 * The closed-form analytic event core (EngineCore::kAnalytic) and the
 * FluidEngine entry points.
 *
 * The stepwise engine (engine_oracle.cc) pays O(active units) per
 * event: it rescans every unit to find the next completion and
 * re-runs the water-fill of every pacing-coupled SM because paced
 * compute caps drift as memory progresses. This core removes both
 * costs by freezing each unit's rates for the interval between the
 * transitions that touch its SM and integrating progress in closed
 * form (docs/DESIGN.md S5.4 derives the average-rate pacing freeze
 * and why it does not move memory-bound completion times):
 *
 *  - Progress is materialized lazily: remaining work is a linear
 *    function of time (compute dims) or of the global memory virtual
 *    time S = integral of global_mem_scale dt (memory dims), so a
 *    unit is only touched when its own SM changes.
 *  - Completions come from two indexed SM trees (sm_key_tree.h), one
 *    keyed by real time (compute) and one by S (memory). Keying
 *    memory drains in S makes a change of the global HBM scale O(1):
 *    it re-times every pending memory completion without touching a
 *    single key. Each tree holds one key per SM (the minimum over
 *    that SM's residents), not one per unit: a recompute re-keys its
 *    SM in place, an SM event clears the SM's keys, and the root is
 *    the next event, in (key, sm) order. The SM event rediscovers the
 *    due units with an O(residents) scan — a cost the recompute pays
 *    anyway. Per-unit keys live in flat arrays between recomputes.
 *  - Rates are recomputed only for SMs whose demand set changed
 *    (dispatch, drain, phase/refill transition, retirement), via the
 *    same per-SM cap/water-fill arithmetic as the oracle.
 *  - Accounting is O(op classes) per event: per-op rate sums are
 *    maintained incrementally and multiplied by dt (or dS for memory
 *    terms) per interval.
 *
 * Per-unit hot state lives in flat parallel arrays (SoA), so the
 * per-SM recompute sweeps touch only the lanes they need.
 *
 * The cores share all discrete machinery (placement, dispatch,
 * occupancy, phase/refill transitions) through SimulationBase in
 * engine_internal.h, so they can never disagree on a discrete
 * decision; the analytic results are cross-checked against the oracle
 * by tests/gpusim/analytic_oracle_test.cc within the tolerance bands
 * documented in docs/DESIGN.md S3.2.
 */
#include "gpusim/engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "gpusim/engine_internal.h"
#include "gpusim/sm_key_tree.h"
#include "gpusim/water_fill.h"

namespace pod::gpusim {

namespace detail {

namespace {

/** Full analytic-core state; one instance per Run call. */
class AnalyticSimulation : public SimulationBase<AnalyticSimulation>
{
    using Base = SimulationBase<AnalyticSimulation>;
    friend Base;

  public:
    AnalyticSimulation(const GpuSpec& spec, const SimOptions& options,
                       const std::vector<KernelLaunch>& launches)
        : Base(spec, options, launches),
          comp_tree_(spec_.num_sms),
          mem_tree_(spec_.num_sms)
    {
        size_t num_sms = static_cast<size_t>(spec_.num_sms);
        sm_mem_want_.assign(num_sms, 0.0);
        sm_dirty_.assign(num_sms, 0);
        dirty_sms_.reserve(num_sms);
    }

    SimResult Run();

  private:
    // ---- SimulationBase hooks ----

    /** Append the unit's SoA lanes; false if it has no work. */
    bool
    AddUnit(UnitState& us, const UnitCaps& caps)
    {
        double rt = 0.0;
        double rc = 0.0;
        double rm = 0.0;
        if (!LoadNextPhase(us, rt, rc, rm)) {
            // Unit with no work: completes immediately.
            return false;
        }
        int uid = static_cast<int>(units_.size());
        units_.push_back(us);
        rem_t_.push_back(rt);
        rem_c_.push_back(rc);
        rem_m_.push_back(rm);
        old_t_.push_back(0.0);
        old_c_.push_back(0.0);
        old_mp_.push_back(0.0);
        comp_key_.push_back(kInf);
        mem_key_.push_back(kInf);
        r_t_.push_back(0.0);
        r_c_.push_back(0.0);
        r_mp_.push_back(0.0);
        ar_t_.push_back(0.0);
        ar_c_.push_back(0.0);
        ar_mp_.push_back(0.0);
        cap_t_.push_back(caps.tensor_cap);
        cap_c_.push_back(caps.cuda_cap);
        cap_m_.push_back(caps.mem_base);
        unit_sm_.push_back(us.sm);
        unit_op_.push_back(us.op);
        last_t_.push_back(now_);
        last_s_.push_back(s_time_);
        sms_[static_cast<size_t>(us.sm)].active_units.push_back(uid);
        ++num_active_;
        // Rates and event keys come from the RecomputeDirty pass
        // that follows every dispatch (OnSmTouched below).
        return true;
    }

    /** Queue the SM for a rate recompute before time advances again. */
    void
    OnSmTouched(int sm_id)
    {
        if (!sm_dirty_[static_cast<size_t>(sm_id)]) {
            sm_dirty_[static_cast<size_t>(sm_id)] = 1;
            dirty_sms_.push_back(sm_id);
        }
    }

    /** Re-derive static caps after a refill swapped the lane's work. */
    void
    SetUnitCaps(int uid, const UnitState& u)
    {
        UnitCaps caps;
        SetStaticCaps(u, caps);
        cap_t_[static_cast<size_t>(uid)] = caps.tensor_cap;
        cap_c_[static_cast<size_t>(uid)] = caps.cuda_cap;
        cap_m_[static_cast<size_t>(uid)] = caps.mem_base;
    }

    void
    OnUnitRetired(int /*uid*/, int /*sm_id*/)
    {
        --num_active_;
    }

    // ---- closed-form integration ----

    /**
     * Bring the unit's remaining work up to (now_, s_time_) under its
     * frozen rates. Rates of drained dimensions are kept at exactly 0
     * by RecomputeSmRates, so no liveness gate is needed here.
     */
    void
    Materialize(int uid)
    {
        const size_t i = static_cast<size_t>(uid);
        double dt = now_ - last_t_[i];
        if (dt > 0.0) {
            rem_t_[i] -= r_t_[i] * dt;
            rem_c_[i] -= r_c_[i] * dt;
            last_t_[i] = now_;
        }
        double ds = s_time_ - last_s_[i];
        if (ds > 0.0) {
            rem_m_[i] -= r_mp_[i] * ds;
            last_s_[i] = s_time_;
        }
    }

    /** Drop the unit's contribution to the per-op rate sums. */
    void
    RemoveFromAggregates(int uid)
    {
        const size_t i = static_cast<size_t>(uid);
        const size_t op = static_cast<size_t>(unit_op_[i]);
        sum_rt_[op] -= ar_t_[i];
        sum_rc_[op] -= ar_c_[i];
        sum_mp_[op] -= ar_mp_[i];
        ar_t_[i] = 0.0;
        ar_c_[i] = 0.0;
        ar_mp_[i] = 0.0;
    }

    /**
     * Recompute rates, per-op sums and event keys for every queued
     * dirty SM: materialize residents, redo the memory split (per-unit
     * cap, per-SM cap, incremental global want), then the demand-aware
     * compute water-fill — the same arithmetic the oracle runs, just
     * only for SMs whose demand set actually changed.
     */
    void
    RecomputeDirty()
    {
        if (dirty_sms_.empty()) return;

        // Pass A: memory demand per dirty SM; global want updated
        // incrementally so untouched SMs cost nothing.
        for (int s : dirty_sms_) {
            const auto& list = sms_[static_cast<size_t>(s)].active_units;
            double want = 0.0;
            for (int uid : list) {
                Materialize(uid);
                const size_t i = static_cast<size_t>(uid);
                old_mp_[i] = r_mp_[i];
                double r =
                    rem_m_[i] > kDoneEps ? cap_m_[i] : 0.0;
                r_mp_[i] = r;
                want += r;
            }
            if (want > spec_.sm_bandwidth_cap) {
                double scale = spec_.sm_bandwidth_cap / want;
                for (int uid : list) {
                    r_mp_[static_cast<size_t>(uid)] *= scale;
                }
                want = spec_.sm_bandwidth_cap;
            }
            global_want_ +=
                want - sm_mem_want_[static_cast<size_t>(s)];
            sm_mem_want_[static_cast<size_t>(s)] = want;
        }
        if (global_want_ < 0.0) global_want_ = 0.0;  // rounding drift
        global_mem_scale_ = global_want_ > spec_.hbm_bandwidth
                                ? spec_.hbm_bandwidth / global_want_
                                : 1.0;

        // Pass B: compute water-fill per dirty SM (needs the new
        // global scale for the pacing caps), then refresh each
        // resident's aggregate contribution and the SM's event keys.
        for (int s : dirty_sms_) {
            sm_dirty_[static_cast<size_t>(s)] = 0;
            const auto& list = sms_[static_cast<size_t>(s)].active_units;
            tensor_caps_.clear();
            cuda_caps_.clear();
            double tensor_sum = 0.0;
            double cuda_sum = 0.0;
            for (int uid : list) {
                const size_t i = static_cast<size_t>(uid);
                old_t_[i] = r_t_[i];
                old_c_[i] = r_c_[i];
                r_t_[i] = 0.0;
                r_c_[i] = 0.0;
                // Pacing cap, average-rate form. The oracle freezes
                // the instantaneous cap 1.1*rem_x*r_mem/rem_m and
                // re-derives it every global event; integrating those
                // dynamics gives rem_x ~ rem_m^1.1, i.e. a paced dim
                // completes exactly at the memory horizon, never
                // before. Freezing the instantaneous cap at OUR event
                // density would instead drain the dim linearly and
                // finish it 1/1.1 early, cascading spurious events.
                // So this core freezes the trajectory's average rate
                // rem_x*r_mem/rem_m — the unique constant rate that
                // reproduces the continuum completion time and the
                // exact served-work total (docs/DESIGN.md S3.2).
                double r_mem = r_mp_[i] * global_mem_scale_;
                bool paced = rem_m_[i] > kDoneEps && r_mem > 0.0;
                if (rem_t_[i] > kDoneEps) {
                    double cap = cap_t_[i];
                    if (paced) {
                        cap = std::min(
                            cap, rem_t_[i] * r_mem / rem_m_[i]);
                    }
                    tensor_caps_.emplace_back(cap, uid);
                    tensor_sum += cap;
                }
                if (rem_c_[i] > kDoneEps) {
                    double cap = cap_c_[i];
                    if (paced) {
                        cap = std::min(
                            cap, rem_c_[i] * r_mem / rem_m_[i]);
                    }
                    cuda_caps_.emplace_back(cap, uid);
                    cuda_sum += cap;
                }
            }
            if (!tensor_caps_.empty()) {
                AllocateMaxMin(tensor_caps_, tensor_sum,
                               spec_.tensor_flops_per_sm,
                               kUndersubscribedMargin,
                               [this](int uid, double rate) {
                                   r_t_[static_cast<size_t>(uid)] = rate;
                               });
            }
            if (!cuda_caps_.empty()) {
                AllocateMaxMin(cuda_caps_, cuda_sum,
                               spec_.cuda_flops_per_sm,
                               kUndersubscribedMargin,
                               [this](int uid, double rate) {
                                   r_c_[static_cast<size_t>(uid)] = rate;
                               });
            }

            double sm_ckey = kInf;
            double sm_mkey = kInf;
            for (int uid : list) {
                const size_t i = static_cast<size_t>(uid);
                // Rates identical to the previous interval: the
                // unit's stored keys (derived when those rates were
                // first frozen) still describe the same linear
                // trajectory, so keep them instead of re-deriving.
                // This is exact, not a relaxation — it only skips
                // work when the water-fill reproduced the same
                // allocation bit-for-bit.
                if (r_t_[i] != old_t_[i] || r_c_[i] != old_c_[i] ||
                    r_mp_[i] != old_mp_[i]) {
                    const size_t op = static_cast<size_t>(unit_op_[i]);
                    sum_rt_[op] += r_t_[i] - ar_t_[i];
                    sum_rc_[op] += r_c_[i] - ar_c_[i];
                    sum_mp_[op] += r_mp_[i] - ar_mp_[i];
                    ar_t_[i] = r_t_[i];
                    ar_c_[i] = r_c_[i];
                    ar_mp_[i] = r_mp_[i];

                    double tkey = kInf;
                    if (rem_t_[i] > kDoneEps && r_t_[i] > 0.0) {
                        tkey = now_ + rem_t_[i] / r_t_[i];
                    }
                    if (rem_c_[i] > kDoneEps && r_c_[i] > 0.0) {
                        tkey = std::min(tkey, now_ + rem_c_[i] / r_c_[i]);
                    }
                    double mkey =
                        rem_m_[i] > kDoneEps && r_mp_[i] > 0.0
                            ? s_time_ + rem_m_[i] / r_mp_[i]
                            : kInf;
                    if (tkey == kInf && mkey == kInf) {
                        // No dimension can progress. If every
                        // dimension already drained (a neighbour's
                        // event landed in the unit's sub-epsilon
                        // residue window), schedule an immediate
                        // completion; a live-but-rateless unit would
                        // never finish — fail loudly, exactly as the
                        // oracle's starvation assert would.
                        bool all_drained = rem_t_[i] <= kDoneEps &&
                                           rem_c_[i] <= kDoneEps &&
                                           rem_m_[i] <= kDoneEps;
                        POD_ASSERT_MSG(all_drained,
                                       "starved unit %d on SM %d at "
                                       "t=%g",
                                       uid, s, now_);
                        tkey = now_;
                    }
                    comp_key_[i] = tkey;
                    mem_key_[i] = mkey;
                }
                sm_ckey = std::min(sm_ckey, comp_key_[i]);
                sm_mkey = std::min(sm_mkey, mem_key_[i]);
            }
            comp_tree_.Set(s, sm_ckey);
            mem_tree_.Set(s, sm_mkey);
        }
        dirty_sms_.clear();

        if (++recompute_batches_ % kResumPeriod == 0) {
            ResumAggregates();
        }
    }

    /**
     * Replace the incrementally-maintained sums with exact re-sums.
     * The increments drift by one rounding step per update; at the
     * default period the drift stays far below the tolerance bands,
     * and this keeps it bounded on arbitrarily long runs.
     */
    void
    ResumAggregates()
    {
        sum_rt_.fill(0.0);
        sum_rc_.fill(0.0);
        sum_mp_.fill(0.0);
        global_want_ = 0.0;
        for (const auto& sm : sms_) {
            for (int uid : sm.active_units) {
                const size_t i = static_cast<size_t>(uid);
                const size_t op = static_cast<size_t>(unit_op_[i]);
                sum_rt_[op] += ar_t_[i];
                sum_rc_[op] += ar_c_[i];
                sum_mp_[op] += ar_mp_[i];
            }
        }
        for (double want : sm_mem_want_) {
            global_want_ += want;
        }
    }

    /**
     * Integrate all accounting over [now_, now_ + dt] at the frozen
     * rates: per-op served work and busy time, utilization integrals,
     * energy, and the memory virtual time S.
     */
    void
    AccumulateInterval(double dt)
    {
        if (dt <= 0.0) return;
        const double ds = global_mem_scale_ * dt;
        double rate_tensor = 0.0;
        double rate_cuda = 0.0;
        double rate_mem_pre = 0.0;
        for (int op = 0; op < kNumOpClasses; ++op) {
            auto& stats = result_.per_op[static_cast<size_t>(op)];
            stats.tensor_flops += sum_rt_[static_cast<size_t>(op)] * dt;
            stats.cuda_flops += sum_rc_[static_cast<size_t>(op)] * dt;
            stats.mem_bytes += sum_mp_[static_cast<size_t>(op)] * ds;
            if (op_active_[static_cast<size_t>(op)] > 0) {
                stats.busy_time += dt;
            }
            rate_tensor += sum_rt_[static_cast<size_t>(op)];
            rate_cuda += sum_rc_[static_cast<size_t>(op)];
            rate_mem_pre += sum_mp_[static_cast<size_t>(op)];
        }
        served_tensor_ += rate_tensor * dt;
        served_cuda_ += rate_cuda * dt;
        served_mem_ += rate_mem_pre * ds;

        double rate_mem = rate_mem_pre * global_mem_scale_;
        double tensor_util = rate_tensor / spec_.TotalTensorFlops();
        double cuda_util = rate_cuda / spec_.TotalCudaFlops();
        double mem_util = rate_mem / spec_.hbm_bandwidth;
        double power = spec_.idle_power_w +
                       spec_.tensor_power_w * tensor_util +
                       spec_.cuda_power_w * cuda_util +
                       spec_.hbm_power_w * mem_util;
        energy_ += power * dt;

        s_time_ += ds;
    }

    /**
     * A due unit (own key reached): materialize it and either advance
     * it past the drained phase or leave the partial drain for the
     * caller's SM recompute to re-rate and re-key.
     */
    void
    HandleUnitDue(int uid)
    {
        const size_t i = static_cast<size_t>(uid);
        comp_key_[i] = kInf;
        mem_key_[i] = kInf;
        Materialize(uid);
        if (rem_t_[i] > kDoneEps || rem_c_[i] > kDoneEps ||
            rem_m_[i] > kDoneEps) {
            // One dimension drained, others remain: the SM's demand
            // sets changed; the caller already queued the recompute
            // that zeroes the drained rate and re-keys the rest.
            return;
        }
        // Phase fully drained. Its rates leave the aggregates either
        // way: a continuing unit is re-added by the recompute
        // (possibly under a refilled op class).
        RemoveFromAggregates(uid);
        r_t_[i] = 0.0;
        r_c_[i] = 0.0;
        r_mp_[i] = 0.0;
        if (TryContinueUnit(uid, now_, rem_t_[i], rem_c_[i], rem_m_[i],
                            unit_op_[i])) {
            return;
        }
        ReleaseUnitCta(uid, now_);
    }

    /**
     * An SM's event came due: scan its residents for units whose own
     * key is due and handle each. The SM's rates are stale afterwards,
     * so both of its keys are cleared until the recompute queued below
     * re-keys it.
     */
    void
    HandleSmEvent(int s)
    {
        comp_tree_.Set(s, kInf);
        mem_tree_.Set(s, kInf);
        const auto& list = sms_[static_cast<size_t>(s)].active_units;
        due_scratch_.clear();
        for (int uid : list) {
            const size_t i = static_cast<size_t>(uid);
            if (comp_key_[i] <= now_ || mem_key_[i] <= s_time_) {
                due_scratch_.push_back(uid);
            }
        }
        // Two loops: handling a due unit can retire it, which
        // swap-erases the SM list being scanned above.
        for (int uid : due_scratch_) {
            HandleUnitDue(uid);
        }
        OnSmTouched(s);
    }

    /**
     * Handle every SM event due at (now, s_time_): all due compute
     * events first, then memory events, each in (key, sm) order.
     */
    void
    ProcessDueEvents()
    {
        for (;;) {
            if (comp_tree_.MinKey() <= now_) {
                HandleSmEvent(comp_tree_.MinSm());
            } else if (mem_tree_.MinKey() <= s_time_) {
                HandleSmEvent(mem_tree_.MinSm());
            } else {
                break;
            }
        }
    }

    /**
     * Defensive recovery: re-derive every SM's rates from scratch.
     * Runs only if the incremental state loses a pending completion
     * (an engine bug, not a workload property); counted so the
     * telemetry surfaces it.
     */
    void
    ForceGlobalRecompute()
    {
        ++result_.oracle_fallback_events;
        for (size_t s = 0; s < sms_.size(); ++s) {
            if (!sms_[s].active_units.empty()) {
                OnSmTouched(static_cast<int>(s));
            }
        }
        ResumAggregates();
        RecomputeDirty();
    }

    // ---- SoA per-unit hot state (parallel arrays indexed by uid) ----
    std::vector<double> rem_t_;
    std::vector<double> rem_c_;
    std::vector<double> rem_m_;
    /** Frozen rates for the current interval (0 for drained dims). */
    std::vector<double> r_t_;
    std::vector<double> r_c_;
    std::vector<double> r_mp_;
    /** Rates currently folded into the per-op sums (the invariant
     *  sum_* == sum of ar_* over active units backs all accounting). */
    std::vector<double> ar_t_;
    std::vector<double> ar_c_;
    std::vector<double> ar_mp_;
    /** Static caps (SoA mirror of UnitCaps). */
    std::vector<double> cap_t_;
    std::vector<double> cap_c_;
    std::vector<double> cap_m_;
    std::vector<int> unit_sm_;
    std::vector<OpClass> unit_op_;
    /** Materialization stamps: real time and S. */
    std::vector<double> last_t_;
    std::vector<double> last_s_;
    /** Previous-interval rates (keep-keys test in RecomputeDirty). */
    std::vector<double> old_t_;
    std::vector<double> old_c_;
    std::vector<double> old_mp_;
    /** Pending per-unit keys: next compute drain (time) and next
     *  memory drain (S); kInf when none. The SM trees carry only the
     *  per-SM minima of these. */
    std::vector<double> comp_key_;
    std::vector<double> mem_key_;

    // ---- per-SM rate-cache state ----
    std::vector<double> sm_mem_want_;
    std::vector<uint8_t> sm_dirty_;
    std::vector<int> dirty_sms_;
    /** Scratch for HandleSmEvent (cleared, never reallocated). */
    std::vector<int> due_scratch_;

    /** Sum of per-SM memory wants (incremental; re-summed periodically). */
    double global_want_ = 0.0;

    /** Global HBM scale factor for the current interval. */
    double global_mem_scale_ = 1.0;

    /** Memory virtual time: S(t) = integral of global_mem_scale dt. */
    double s_time_ = 0.0;

    /** Current simulation time (mirrors Run's `now` for the hooks). */
    double now_ = 0.0;

    int num_active_ = 0;

    /** Per-SM next compute-drain time and next memory-drain S. */
    SmKeyTree comp_tree_;
    SmKeyTree mem_tree_;

    // Per-op rate sums for O(op classes) interval accounting.
    std::array<double, kNumOpClasses> sum_rt_ = {};
    std::array<double, kNumOpClasses> sum_rc_ = {};
    std::array<double, kNumOpClasses> sum_mp_ = {};

    long recompute_batches_ = 0;
    static constexpr long kResumPeriod = 4096;

    // Reused per-SM water-fill scratch (cleared, never reallocated).
    std::vector<std::pair<double, int>> tensor_caps_;
    std::vector<std::pair<double, int>> cuda_caps_;
};

SimResult
AnalyticSimulation::Run()
{
    double now = 0.0;
    long events = 0;

    DispatchAll(now);
    RecomputeDirty();
    while (finished_kernels_ < kernels_.size()) {
        POD_ASSERT_MSG(++events < kMaxEvents,
                       "simulation exceeded %ld events", kMaxEvents);

        if (num_active_ == 0) {
            // Nothing resident: jump to the next kernel-ready time.
            // Zero the rate sums outright — they are all-retired
            // remainders of incremental updates, i.e. pure drift.
            sum_rt_.fill(0.0);
            sum_rc_.fill(0.0);
            sum_mp_.fill(0.0);
            global_want_ = 0.0;
            double ready = NextReadyTime();
            POD_ASSERT_MSG(ready < kInf,
                           "deadlock: no active units at t=%g", now);
            now = std::max(now, ready);
            now_ = now;
            DispatchAll(now);
            RecomputeDirty();
            continue;
        }

        double t_comp = comp_tree_.MinKey();
        double s_next = mem_tree_.MinKey();
        double t_mem = kInf;
        if (s_next < kInf) {
            t_mem = s_next <= s_time_
                        ? now
                        : now + (s_next - s_time_) / global_mem_scale_;
        }
        double t_drain = std::min(t_comp, t_mem);
        if (t_drain == kInf) {
            // Active units but no pending completion: recover with a
            // full rescan (counted), then fail loudly if still stuck.
            ForceGlobalRecompute();
            t_comp = comp_tree_.MinKey();
            s_next = mem_tree_.MinKey();
            POD_ASSERT_MSG(std::min(t_comp, s_next) < kInf,
                           "starvation: active units with zero rates "
                           "at t=%g",
                           now);
            continue;
        }

        // Stop early at the next kernel-ready boundary, but only if it
        // is strictly in the future; a kernel that is already ready
        // and merely waiting for SM resources must not stall time.
        double t = t_drain;
        double ready = NextReadyTime();
        if (ready > now + 1e-15 && t > ready) {
            t = ready;
        }
        if (t < now) t = now;

        AccumulateInterval(t - now);
        now = t;
        now_ = now;
        if (t == t_mem && s_next > s_time_) {
            // Land exactly on the memory key: the back-conversion
            // through global_mem_scale_ rounds, and snapping S to the
            // key keeps the due-entry test exact.
            s_time_ = s_next;
        }
        ++result_.analytic_fastpath_events;
        ProcessDueEvents();
        DispatchAll(now);
        RecomputeDirty();
    }

    FinalizeResult(now);
    return result_;
}

}  // namespace

SimResult
RunAnalyticSimulation(const GpuSpec& spec, const SimOptions& options,
                      const std::vector<KernelLaunch>& launches)
{
    AnalyticSimulation sim(spec, options, launches);
    return sim.Run();
}

}  // namespace detail

FluidEngine::FluidEngine(GpuSpec spec, SimOptions options)
    : spec_(std::move(spec)), options_(options)
{
    spec_.Validate();
    POD_CHECK_ARG(options_.placement_jitter >= 0.0 &&
                      options_.placement_jitter <= 1.0,
                  "placement jitter must be a probability");
    POD_CHECK_ARG(options_.kernel_launch_overhead >= 0.0,
                  "launch overhead must be >= 0");
}

SimResult
FluidEngine::Run(const std::vector<KernelLaunch>& launches)
{
    POD_CHECK_ARG(!launches.empty(), "need at least one kernel launch");
    if (options_.core == EngineCore::kExactOracle) {
        return detail::RunOracleSimulation(spec_, options_, launches);
    }
    return detail::RunAnalyticSimulation(spec_, options_, launches);
}

SimResult
FluidEngine::RunKernel(const KernelDesc& kernel)
{
    std::vector<KernelLaunch> launches;
    launches.push_back(KernelLaunch{kernel, 0});
    return Run(launches);
}

}  // namespace pod::gpusim

/**
 * @file
 * The stepwise exact-oracle event core (EngineCore::kExactOracle).
 *
 * This is the PR-3 incremental engine, kept alive verbatim as the
 * ground truth the analytic core (engine.cc) is validated against:
 * every floating-point operation runs in the same order as the seed
 * simulator, so the exact hex-literal goldens in
 * tests/gpusim/engine_regression_test.cc still pin it bit-identically.
 *
 * Why it is the slow path: compute rates are pinned to memory
 * progress through the pacing cap (a unit still streaming memory only
 * *wants* the compute rate that keeps pace with it), so any SM
 * hosting such a coupled unit must re-run its water-fill at every
 * event, and the next event is found by scanning every active unit.
 * That makes an event O(active units + coupled SMs * residents) --
 * the cost profile the analytic core exists to remove. See
 * docs/DESIGN.md S3.1/S3.2 for the full comparison.
 *
 * Only the rate model lives here; placement, dispatch, occupancy and
 * phase/refill transitions are shared with the analytic core through
 * SimulationBase (engine_internal.h), so the two cores can never
 * disagree on a discrete decision.
 */
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "gpusim/engine_internal.h"
#include "gpusim/water_fill.h"

namespace pod::gpusim::detail {

namespace {

/**
 * Safety factor for multiply-compare filters that avoid divisions:
 * `a/b < c` is decided without dividing only when `a` clears
 * `b * c * kFilterMargin`, which over-covers the at-most-4-ulp
 * relative error of the product-vs-quotient comparison. Inside the
 * band, the exact division runs, so filtered decisions are always
 * bit-identical to dividing.
 */
constexpr double kFilterMargin = 1.0 + 1e-12;

/**
 * Per-unit state touched every event: six doubles + bookkeeping in a
 * packed 56-byte record. Measured faster than padding to a full
 * 64-byte line — the per-event sweeps are bandwidth-bound, so 12%
 * less traffic beats the occasional straddled line.
 */
struct UnitHot
{
    double rem_tensor = 0.0;
    double rem_cuda = 0.0;
    double rem_mem = 0.0;
    // Rates allocated for the current interval. Rates of a drained
    // dimension may be stale; every reader gates on rem > kDoneEps.
    // The final memory rate is r_mem_pre * global_mem_scale_.
    double r_tensor = 0.0;
    double r_cuda = 0.0;
    double r_mem_pre = 0.0;
    /** Home SM (duplicated from UnitState for the hot loops). */
    int sm = -1;
    /** Op class (duplicated from UnitState for the hot loops). */
    OpClass op = OpClass::kOther;
};

/** Full oracle-core state; one instance per Run call. */
class OracleSimulation : public SimulationBase<OracleSimulation>
{
    using Base = SimulationBase<OracleSimulation>;
    friend Base;

  public:
    OracleSimulation(const GpuSpec& spec, const SimOptions& options,
                     const std::vector<KernelLaunch>& launches)
        : Base(spec, options, launches)
    {
        size_t num_sms = static_cast<size_t>(spec_.num_sms);
        sm_active_count_.assign(num_sms, 0);
        sm_mem_want_.assign(num_sms, 0.0);
        sm_mem_dirty_.assign(num_sms, 0);
        sm_compute_dirty_.assign(num_sms, 0);
        sm_coupled_.assign(num_sms, 0);
    }

    SimResult Run();

  private:
    // ---- SimulationBase hooks ----

    /** Store the hot record for a new unit; false if it has no work. */
    bool
    AddUnit(UnitState& us, const UnitCaps& caps)
    {
        UnitHot hot;
        hot.sm = us.sm;
        hot.op = us.op;
        if (!LoadNextPhase(us, hot.rem_tensor, hot.rem_cuda,
                           hot.rem_mem)) {
            // Unit with no work: completes immediately.
            return false;
        }
        int unit_id = static_cast<int>(units_.size());
        units_.push_back(us);
        hot_.push_back(hot);
        unit_caps_.push_back(caps);
        phase_done_.push_back(0);
        active_units_.push_back(unit_id);
        sms_[static_cast<size_t>(us.sm)].active_units.push_back(unit_id);
        sm_active_count_[static_cast<size_t>(us.sm)] += 1;
        return true;
    }

    /** Mark an SM's cached rates stale after a membership change. */
    void
    OnSmTouched(int sm_id)
    {
        sm_mem_dirty_[static_cast<size_t>(sm_id)] = 1;
        sm_compute_dirty_[static_cast<size_t>(sm_id)] = 1;
    }

    /** Re-derive static caps after a refill swapped the lane's work. */
    void
    SetUnitCaps(int uid, const UnitState& u)
    {
        SetStaticCaps(u, unit_caps_[static_cast<size_t>(uid)]);
    }

    void
    OnUnitRetired(int /*uid*/, int sm_id)
    {
        sm_active_count_[static_cast<size_t>(sm_id)] -= 1;
    }

    // ---- the stepwise rate model ----

    /** Refresh resource rates, recomputing only what could change. */
    void RefreshRates();

    /** Earliest completion delta at current rates (may be inf). */
    double NextEventDelta() const;

    /** Advance all active units by dt, accumulating accounting. */
    void Advance(double dt);

    /** Handle all units whose current phase just completed. */
    void ProcessCompletions(double now);

    std::vector<UnitHot> hot_;
    std::vector<UnitCaps> unit_caps_;
    /** 1 when the unit's current phase fully drained (see Advance). */
    std::vector<uint8_t> phase_done_;
    std::vector<int> active_units_;

    // ---- per-SM incremental rate-cache state (parallel to sms_,
    // kept in flat arrays so per-event sweeps stay in-cache) ----
    std::vector<int> sm_active_count_;
    std::vector<double> sm_mem_want_;
    std::vector<uint8_t> sm_mem_dirty_;
    std::vector<uint8_t> sm_compute_dirty_;
    std::vector<int> sm_coupled_;

    /** Global HBM scale factor for the current interval. */
    double global_mem_scale_ = 1.0;

    /** Units whose phase drained in the last Advance. */
    int completions_pending_ = 0;

    // Reused per-SM water-fill scratch (cleared, never reallocated).
    std::vector<std::pair<double, int>> tensor_caps_;
    std::vector<std::pair<double, int>> cuda_caps_;
};

void
OracleSimulation::RefreshRates()
{
    const size_t num_sms = sms_.size();

    // --- memory bandwidth first: per-warp cap, per-SM cap, global
    // cap. Compute allocation below is demand-aware and needs the
    // memory rates. Per-SM demands are cached; only SMs whose memory
    // demand set changed recompute, and the global sum re-accumulates
    // cached wants in SM order (bit-identical to the full rescan). ---
    double global_want = 0.0;
    for (size_t s = 0; s < num_sms; ++s) {
        if (sm_active_count_[s] == 0) continue;
        if (sm_mem_dirty_[s]) {
            sm_mem_dirty_[s] = 0;
            const SmState& sm = sms_[s];
            double sm_want = 0.0;
            for (int uid : sm.active_units) {
                UnitHot& h = hot_[static_cast<size_t>(uid)];
                if (h.rem_mem > kDoneEps) {
                    h.r_mem_pre =
                        unit_caps_[static_cast<size_t>(uid)].mem_base;
                    sm_want += h.r_mem_pre;
                } else {
                    h.r_mem_pre = 0.0;
                }
            }
            if (sm_want > spec_.sm_bandwidth_cap) {
                double scale = spec_.sm_bandwidth_cap / sm_want;
                for (int uid : sm.active_units) {
                    hot_[static_cast<size_t>(uid)].r_mem_pre *= scale;
                }
                sm_want = spec_.sm_bandwidth_cap;
            }
            sm_mem_want_[s] = sm_want;
        }
        global_want += sm_mem_want_[s];
    }
    global_mem_scale_ = global_want > spec_.hbm_bandwidth
                            ? spec_.hbm_bandwidth / global_want
                            : 1.0;

    // --- per-SM compute allocation (tensor + CUDA cores) ---
    // Demand-aware: a unit that is still streaming memory in this
    // phase only *wants* the compute rate that keeps pace with its
    // memory (its math interleaves with memory stalls); purely
    // compute-bound units want their full cap. Max-min water-fill
    // over those wants lets prefill soak the tensor cores while
    // co-located decode sips them -- the behaviour POD relies on.
    // SMs with no coupled unit and no membership change keep the
    // cached allocation.
    for (size_t s = 0; s < num_sms; ++s) {
        if (sm_active_count_[s] == 0) continue;
        if (!sm_compute_dirty_[s] && sm_coupled_[s] == 0) continue;
        sm_compute_dirty_[s] = 0;

        // One pass builds both demand lists (tensor + CUDA).
        tensor_caps_.clear();
        cuda_caps_.clear();
        double tensor_sum = 0.0;
        double cuda_sum = 0.0;
        for (int uid : sms_[s].active_units) {
            const UnitCaps& c = unit_caps_[static_cast<size_t>(uid)];
            UnitHot& h = hot_[static_cast<size_t>(uid)];
            double r_mem = h.r_mem_pre * global_mem_scale_;
            bool paced = h.rem_mem > kDoneEps && r_mem > 0.0;
            if (h.rem_tensor > kDoneEps) {
                double cap = c.tensor_cap;
                if (paced) {
                    cap = std::min(cap, kPaceHeadroom * h.rem_tensor *
                                            r_mem / h.rem_mem);
                }
                tensor_caps_.emplace_back(cap, uid);
                tensor_sum += cap;
            }
            if (h.rem_cuda > kDoneEps) {
                double cap = c.cuda_cap;
                if (paced) {
                    cap = std::min(cap, kPaceHeadroom * h.rem_cuda *
                                            r_mem / h.rem_mem);
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
                               hot_[static_cast<size_t>(uid)].r_tensor =
                                   rate;
                           });
        }
        if (!cuda_caps_.empty()) {
            AllocateMaxMin(cuda_caps_, cuda_sum, spec_.cuda_flops_per_sm,
                           kUndersubscribedMargin,
                           [this](int uid, double rate) {
                               hot_[static_cast<size_t>(uid)].r_cuda =
                                   rate;
                           });
        }
    }
}

double
OracleSimulation::NextEventDelta() const
{
    const double gscale = global_mem_scale_;
    // Two independent partial minima hide the FP-min latency chain;
    // min over doubles is exactly associative, so any grouping yields
    // the bit-identical result. Each candidate rem/r can lower the
    // minimum only if rem < dt*r; the filter margin over-covers the
    // comparison's rounding, so a division runs only for candidates
    // that may actually set the minimum -- the returned dt is the
    // bit-identical min of exact quotients.
    double dt_a = kInf;
    double dt_b = kInf;
    for (int uid : active_units_) {
        const UnitHot& h = hot_[static_cast<size_t>(uid)];
        if (h.rem_tensor > kDoneEps && h.r_tensor > 0.0 &&
            h.rem_tensor < dt_a * h.r_tensor * kFilterMargin) {
            dt_a = std::min(dt_a, h.rem_tensor / h.r_tensor);
        }
        if (h.rem_cuda > kDoneEps && h.r_cuda > 0.0 &&
            h.rem_cuda < dt_b * h.r_cuda * kFilterMargin) {
            dt_b = std::min(dt_b, h.rem_cuda / h.r_cuda);
        }
        if (h.rem_mem > kDoneEps) {
            double r_mem = h.r_mem_pre * gscale;
            if (r_mem > 0.0 &&
                h.rem_mem < dt_a * r_mem * kFilterMargin) {
                dt_a = std::min(dt_a, h.rem_mem / r_mem);
            }
        }
    }
    return std::min(dt_a, dt_b);
}

void
OracleSimulation::Advance(double dt)
{
    std::fill(sm_coupled_.begin(), sm_coupled_.end(), 0);
    const double gscale = global_mem_scale_;

    double rate_tensor = 0.0;
    double rate_cuda = 0.0;
    double rate_mem = 0.0;
    int pending = 0;
    // Local per-op accumulators keep the (order-pinned) accounting
    // adds in registers instead of store-forwarding through result_.
    double acc_tensor[kNumOpClasses];
    double acc_cuda[kNumOpClasses];
    double acc_mem[kNumOpClasses];
    for (int op = 0; op < kNumOpClasses; ++op) {
        const auto& stats = result_.per_op[static_cast<size_t>(op)];
        acc_tensor[op] = stats.tensor_flops;
        acc_cuda[op] = stats.cuda_flops;
        acc_mem[op] = stats.mem_bytes;
    }
    for (int uid : active_units_) {
        UnitHot& h = hot_[static_cast<size_t>(uid)];
        const size_t opi = static_cast<size_t>(h.op);
        const bool had_tensor = h.rem_tensor > kDoneEps;
        const bool had_cuda = h.rem_cuda > kDoneEps;
        const bool had_mem = h.rem_mem > kDoneEps;
        if (had_tensor) {
            double amount = h.r_tensor * dt;
            h.rem_tensor -= amount;
            acc_tensor[opi] += amount;
            rate_tensor += h.r_tensor;
        }
        if (had_cuda) {
            double amount = h.r_cuda * dt;
            h.rem_cuda -= amount;
            acc_cuda[opi] += amount;
            rate_cuda += h.r_cuda;
        }
        if (had_mem) {
            double r_mem = h.r_mem_pre * gscale;
            double amount = r_mem * dt;
            h.rem_mem -= amount;
            acc_mem[opi] += amount;
            rate_mem += r_mem;
        }

        // Post-advance bookkeeping for the incremental rate cache:
        // a drained dimension changes the SM's demand sets, and a
        // still-coupled unit keeps its SM's water-fill live.
        const bool has_tensor = h.rem_tensor > kDoneEps;
        const bool has_cuda = h.rem_cuda > kDoneEps;
        const bool has_mem = h.rem_mem > kDoneEps;
        const size_t s = static_cast<size_t>(h.sm);
        sm_mem_dirty_[s] |=
            static_cast<uint8_t>(had_mem && !has_mem);
        sm_compute_dirty_[s] |=
            static_cast<uint8_t>(had_tensor != has_tensor ||
                                 had_cuda != has_cuda ||
                                 had_mem != has_mem);
        sm_coupled_[s] +=
            static_cast<int>(has_mem && (has_tensor || has_cuda));
        const int done =
            static_cast<int>(!has_tensor && !has_cuda && !has_mem);
        phase_done_[static_cast<size_t>(uid)] =
            static_cast<uint8_t>(done);
        pending += done;
    }
    completions_pending_ = pending;
    for (int op = 0; op < kNumOpClasses; ++op) {
        auto& stats = result_.per_op[static_cast<size_t>(op)];
        stats.tensor_flops = acc_tensor[op];
        stats.cuda_flops = acc_cuda[op];
        stats.mem_bytes = acc_mem[op];
    }
    served_tensor_ += rate_tensor * dt;
    served_cuda_ += rate_cuda * dt;
    served_mem_ += rate_mem * dt;

    for (int op = 0; op < kNumOpClasses; ++op) {
        if (op_active_[static_cast<size_t>(op)] > 0) {
            result_.per_op[static_cast<size_t>(op)].busy_time += dt;
        }
    }

    double tensor_util = rate_tensor / spec_.TotalTensorFlops();
    double cuda_util = rate_cuda / spec_.TotalCudaFlops();
    double mem_util = rate_mem / spec_.hbm_bandwidth;
    double power = spec_.idle_power_w + spec_.tensor_power_w * tensor_util +
                   spec_.cuda_power_w * cuda_util +
                   spec_.hbm_power_w * mem_util;
    energy_ += power * dt;
}

void
OracleSimulation::ProcessCompletions(double now)
{
    if (completions_pending_ == 0) return;
    for (size_t i = 0; i < active_units_.size();) {
        int uid = active_units_[i];
        if (!phase_done_[static_cast<size_t>(uid)]) {
            ++i;
            continue;
        }
        UnitHot& h = hot_[static_cast<size_t>(uid)];
        // The stale done-flag of a continuing unit is rewritten by the
        // next Advance before ProcessCompletions reads it again.
        if (TryContinueUnit(uid, now, h.rem_tensor, h.rem_cuda,
                            h.rem_mem, h.op)) {
            ++i;
            continue;
        }
        // Remove from the global active list (swap-erase).
        active_units_[i] = active_units_.back();
        active_units_.pop_back();
        ReleaseUnitCta(uid, now);
    }
}

SimResult
OracleSimulation::Run()
{
    double now = 0.0;
    long events = 0;

    DispatchAll(now);
    while (finished_kernels_ < kernels_.size()) {
        POD_ASSERT_MSG(++events < kMaxEvents,
                       "simulation exceeded %ld events", kMaxEvents);

        if (active_units_.empty()) {
            // Nothing resident: jump to the next kernel-ready time.
            double ready = NextReadyTime();
            POD_ASSERT_MSG(ready < kInf,
                           "deadlock: no active units at t=%g", now);
            now = std::max(now, ready);
            DispatchAll(now);
            continue;
        }

        RefreshRates();
        double dt = NextEventDelta();
        POD_ASSERT_MSG(dt < kInf,
                       "starvation: active units with zero rates at t=%g",
                       now);
        // Stop early at the next kernel-ready boundary, but only if it
        // is strictly in the future; a kernel that is already ready
        // and merely waiting for SM resources must not stall time.
        double ready = NextReadyTime();
        if (ready > now + 1e-15 && now + dt > ready) {
            dt = ready - now;
        }
        Advance(dt);
        now += dt;
        result_.oracle_fallback_events += 1;
        ProcessCompletions(now);
        DispatchAll(now);
    }

    FinalizeResult(now);
    return result_;
}

}  // namespace

SimResult
RunOracleSimulation(const GpuSpec& spec, const SimOptions& options,
                    const std::vector<KernelLaunch>& launches)
{
    OracleSimulation sim(spec, options, launches);
    return sim.Run();
}

}  // namespace pod::gpusim::detail

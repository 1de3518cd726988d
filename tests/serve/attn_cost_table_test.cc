/**
 * @file
 * Tests for the attention cost identity (ServingConfig::SameAttnCost)
 * and the fleet-shared AttnCostTable (docs/DESIGN.md S5.4).
 *
 * Replicas may share simulated attention costs only when every input
 * of the simulation besides the bucketed signature is equal. Each
 * struct that feeds the simulation is perturbed one field at a time,
 * and every perturbation must break identity. A field added to one of
 * these structs later fails the field-count checks until it is given
 * a perturbation here, which in turn fails until operator== compares
 * it.
 */
#include "serve/attn_cost_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/attention.h"
#include "serve/engine.h"

namespace pod::serve {
namespace {

/** Converts to any member type, so `T{AnyField{}...}` probes how many
 * fields aggregate T has. */
struct AnyField
{
    template <class T>
    operator T() const;
};

template <class T, class... Fields>
constexpr auto
BraceInitializable(int) -> decltype(T{Fields{}...}, true)
{
    return true;
}

template <class T, class... Fields>
constexpr bool
BraceInitializable(...)
{
    return false;
}

/** Number of fields of aggregate T (none of them an aggregate that
 * brace elision could split). */
template <class T, class... Fields>
constexpr size_t
FieldCount()
{
    if constexpr (BraceInitializable<T, Fields..., AnyField>(0)) {
        return FieldCount<T, Fields..., AnyField>();
    } else {
        return sizeof...(Fields);
    }
}

template <class T>
using Perturbations =
    std::vector<std::pair<std::string, std::function<void(T&)>>>;

/** Every perturbation breaks equality; one per field. */
template <class T>
void
ExpectEachFieldCompared(const T& base, const Perturbations<T>& perturb)
{
    EXPECT_EQ(perturb.size(), FieldCount<T>())
        << "a field has no perturbation";
    EXPECT_TRUE(base == base);
    for (const auto& [field, apply] : perturb) {
        T changed = base;
        apply(changed);
        EXPECT_FALSE(base == changed) << field;
    }
}

TEST(AttnCostIdentityTest, GpuSpecComparesEveryField)
{
    ExpectEachFieldCompared<gpusim::GpuSpec>(
        gpusim::GpuSpec::A100Sxm80GB(),
        {
            {"name", [](auto& g) { g.name += "x"; }},
            {"num_sms", [](auto& g) { g.num_sms += 1; }},
            {"tensor_flops_per_sm",
             [](auto& g) { g.tensor_flops_per_sm *= 2; }},
            {"cuda_flops_per_sm", [](auto& g) { g.cuda_flops_per_sm *= 2; }},
            {"hbm_bandwidth", [](auto& g) { g.hbm_bandwidth *= 2; }},
            {"sm_bandwidth_cap", [](auto& g) { g.sm_bandwidth_cap *= 2; }},
            {"warp_bandwidth_cap", [](auto& g) { g.warp_bandwidth_cap *= 2; }},
            {"warps_per_tensor_saturation",
             [](auto& g) { g.warps_per_tensor_saturation += 1; }},
            {"warps_per_cuda_saturation",
             [](auto& g) { g.warps_per_cuda_saturation += 1; }},
            {"shared_mem_per_sm", [](auto& g) { g.shared_mem_per_sm *= 2; }},
            {"max_threads_per_sm", [](auto& g) { g.max_threads_per_sm += 32; }},
            {"max_ctas_per_sm", [](auto& g) { g.max_ctas_per_sm += 1; }},
            {"hbm_capacity", [](auto& g) { g.hbm_capacity *= 2; }},
            {"nvlink_bandwidth", [](auto& g) { g.nvlink_bandwidth *= 2; }},
            {"pcie_bandwidth", [](auto& g) { g.pcie_bandwidth *= 2; }},
            {"idle_power_w", [](auto& g) { g.idle_power_w += 1; }},
            {"tensor_power_w", [](auto& g) { g.tensor_power_w += 1; }},
            {"cuda_power_w", [](auto& g) { g.cuda_power_w += 1; }},
            {"hbm_power_w", [](auto& g) { g.hbm_power_w += 1; }},
        });
}

TEST(AttnCostIdentityTest, SimOptionsComparesEveryField)
{
    ExpectEachFieldCompared<gpusim::SimOptions>(
        gpusim::SimOptions{},
        {
            {"seed", [](auto& o) { o.seed += 1; }},
            {"record_cta_times", [](auto& o) { o.record_cta_times = true; }},
            {"placement_jitter", [](auto& o) { o.placement_jitter = 0.1; }},
            {"kernel_launch_overhead",
             [](auto& o) { o.kernel_launch_overhead *= 2; }},
            {"core",
             [](auto& o) { o.core = gpusim::EngineCore::kExactOracle; }},
        });
}

TEST(AttnCostIdentityTest, PodOptionsComparesEveryField)
{
    ExpectEachFieldCompared<core::PodOptions>(
        core::PodOptions{},
        {
            {"policy",
             [](auto& o) { o.policy = core::SchedPolicy::kFiftyFifty; }},
            {"ctas_per_sm",
             [](auto& o) { o.ctas_per_sm = core::CtasPerSm::kTwo; }},
            {"split_policy",
             [](auto& o) { o.split_policy = core::SplitPolicy::kVanilla; }},
            {"virtual_ctas_per_physical",
             [](auto& o) { o.virtual_ctas_per_physical += 1; }},
            {"persistent", [](auto& o) { o.persistent = true; }},
        });
}

TEST(AttnCostIdentityTest, AttnShapeComparesEveryField)
{
    ExpectEachFieldCompared<kernels::AttnShape>(
        kernels::AttnShape{},
        {
            {"num_q_heads", [](auto& s) { s.num_q_heads *= 2; }},
            {"num_kv_heads", [](auto& s) { s.num_kv_heads *= 2; }},
            {"head_dim", [](auto& s) { s.head_dim *= 2; }},
        });
}

ServingConfig
PodReplica()
{
    ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kPod;
    return config;
}

/**
 * Every ServingConfig field is either part of the cost identity or
 * not; the split is pinned field by field so a new field has to be
 * classified.
 */
TEST(AttnCostIdentityTest, ServingConfigFieldsAreClassified)
{
    const ServingConfig base = PodReplica();
    EXPECT_TRUE(base.SameAttnCost(base));

    const Perturbations<ServingConfig> breaks = {
        {"model (per-GPU shape)", [](auto& c) { c.model.head_dim = 64; }},
        {"gpu", [](auto& c) { c.gpu = gpusim::GpuSpec::H100Sxm80GB(); }},
        {"tensor_parallel", [](auto& c) { c.tensor_parallel = 1; }},
        {"backend", [](auto& c) { c.backend = core::Backend::kFaSerial; }},
        {"attn_options", [](auto& c) { c.attn_options.sim.seed += 1; }},
    };
    const Perturbations<ServingConfig> keeps = {
        {"kv_block_size", [](auto& c) { c.kv_block_size = 32; }},
        {"kv_policy", [](auto& c) { c.kv_policy = KvPolicy::kWatermark; }},
        {"kv_watermark", [](auto& c) { c.kv_watermark = 0.05; }},
        {"kv_preempt_mode",
         [](auto& c) { c.kv_preempt_mode = PreemptMode::kSwap; }},
        {"prefix_cache_enabled",
         [](auto& c) { c.prefix_cache_enabled = true; }},
        {"memory_fraction", [](auto& c) { c.memory_fraction = 0.8; }},
        {"chunk_bucket", [](auto& c) { c.chunk_bucket = 16; }},
        {"kv_bucket", [](auto& c) { c.kv_bucket = 16; }},
        {"decode_bs_bucket", [](auto& c) { c.decode_bs_bucket = 1; }},
        {"context_bucket", [](auto& c) { c.context_bucket = 16; }},
    };
    EXPECT_EQ(breaks.size() + keeps.size(), FieldCount<ServingConfig>())
        << "a ServingConfig field is not classified";
    for (const auto& [field, apply] : breaks) {
        ServingConfig changed = base;
        apply(changed);
        EXPECT_FALSE(base.SameAttnCost(changed)) << field;
        EXPECT_FALSE(changed.SameAttnCost(base)) << field;
    }
    for (const auto& [field, apply] : keeps) {
        ServingConfig changed = base;
        apply(changed);
        EXPECT_TRUE(base.SameAttnCost(changed)) << field;
    }
}

TEST(AttnCostIdentityTest, AttnRunOptionsPartsBreakIdentity)
{
    EXPECT_EQ(FieldCount<core::AttnRunOptions>(), 2u)
        << "SameAttnCost compares attn_options.pod and .sim only";
    const ServingConfig base = PodReplica();
    ServingConfig pod = base;
    pod.attn_options.pod.policy = core::SchedPolicy::kFiftyFifty;
    EXPECT_FALSE(base.SameAttnCost(pod));
    ServingConfig sim = base;
    sim.attn_options.sim.core = gpusim::EngineCore::kExactOracle;
    EXPECT_FALSE(base.SameAttnCost(sim));
}

TEST(AttnCostIdentityTest, IdentityIsThePerGpuShapeNotTheModel)
{
    const ServingConfig base = PodReplica();  // 16 q / 4 kv heads per GPU

    // Model fields outside the attention shape do not matter.
    ServingConfig wider = base;
    wider.model.name = "other";
    wider.model.hidden_dim *= 2;
    wider.model.num_layers += 8;
    wider.model.ffn_dim *= 2;
    wider.model.vocab_size *= 2;
    EXPECT_TRUE(base.SameAttnCost(wider));

    // Each shape-bearing model field does.
    for (int field = 0; field < 3; ++field) {
        ServingConfig changed = base;
        if (field == 0) changed.model.num_q_heads = 64;
        if (field == 1) changed.model.num_kv_heads = 4;
        if (field == 2) changed.model.head_dim = 64;
        EXPECT_FALSE(base.SameAttnCost(changed)) << "shape field " << field;
    }

    // A half-size model on one GPU has the same per-GPU heads.
    ServingConfig half = base;
    half.model.num_q_heads = 16;
    half.model.num_kv_heads = 4;
    half.tensor_parallel = 1;
    EXPECT_TRUE(base.SameAttnCost(half));
}

TEST(AttnCostTableTest, FirstInsertWins)
{
    AttnCostTable table;
    const AttnSignature key{64, 1024, 8, 2048};
    EXPECT_FALSE(table.Find(key).has_value());
    table.Insert(key, AttnCost{1.5, 10, 2});
    table.Insert(key, AttnCost{9.0, 99, 99});
    ASSERT_TRUE(table.Find(key).has_value());
    EXPECT_EQ(table.Find(key)->total_time, 1.5);
    EXPECT_EQ(table.Find(key)->analytic_fastpath_events, 10);
    EXPECT_EQ(table.Find(key)->oracle_fallback_events, 2);
    EXPECT_EQ(table.Size(), 1u);
    EXPECT_FALSE(table.Find(AttnSignature{64, 1024, 8, 1024}).has_value());
}

std::unique_ptr<Scheduler>
Sarathi()
{
    return std::make_unique<SarathiScheduler>(512);
}

std::vector<Request>
SmallTrace()
{
    std::vector<Request> trace;
    for (int i = 0; i < 12; ++i) {
        Request r;
        r.id = i;
        r.arrival_time = 0.05 * i;
        r.prefill_tokens = 300 + 400 * (i % 3);
        r.decode_tokens = 6 + 5 * (i % 4);
        trace.push_back(r);
    }
    return trace;
}

/**
 * A second engine over a warm shared table simulates nothing, yet
 * reports exactly the counters and metrics of a private-cache run:
 * table hits are local misses charged the stored sim-core events.
 */
TEST(AttnCostTableTest, SharedHitsReportPrivateCounters)
{
    ServingConfig config = PodReplica();
    ServingEngine solo(config, Sarathi());
    const MetricsReport expected = solo.Run(SmallTrace());
    ASSERT_GT(expected.attn_cache_misses, 0);
    ASSERT_GT(expected.sim_fastpath_events, 0);

    auto table = std::make_shared<AttnCostTable>();
    ServingEngine first(config, Sarathi(), table);
    first.Run(SmallTrace());
    EXPECT_EQ(table->Size(), first.AttnCacheSize());
    EXPECT_EQ(first.SharedAttnCosts(), table.get());

    ServingEngine second(config, Sarathi(), table);
    const MetricsReport got = second.Run(SmallTrace());
    EXPECT_EQ(table->Size(), first.AttnCacheSize());
    EXPECT_EQ(got.makespan, expected.makespan);
    EXPECT_EQ(got.ttft.Sum(), expected.ttft.Sum());
    EXPECT_EQ(got.tbt.Sum(), expected.tbt.Sum());
#define POD_EXPECT_SAME_COUNTER(type, field, name, kind)                     \
    EXPECT_EQ(got.field, expected.field) << #field;
    POD_ENGINE_COUNTERS(POD_EXPECT_SAME_COUNTER)
#undef POD_EXPECT_SAME_COUNTER
}

/** One layer of attention simulated for the batch `key` describes. */
double
SimulatedLayerTime(const ServingConfig& config, const AttnSignature& key)
{
    kernels::HybridBatch batch;
    batch.shape = config.model.ShapePerGpu(config.tensor_parallel);
    if (key.chunk > 0) {
        batch.prefills.push_back(
            kernels::PrefillItem{key.chunk, std::max(key.kv, key.chunk)});
    }
    if (key.decode_bs > 0) {
        batch.decode = kernels::DecodeItem::Uniform(key.decode_bs, key.context);
    }
    return core::RunAttention(config.backend, batch, config.gpu,
                              config.attn_options)
        .total_time;
}

/**
 * Only an engine given a table reaches it: a standalone engine has
 * none and simulates its own misses. Everything engines write to a
 * shared table is exactly the kernel simulation of its signature, so
 * bypassing the table and being served from it give the same costs.
 */
TEST(AttnCostTableTest, DisabledCacheBypassesTheSharedTable)
{
    const ServingConfig config = PodReplica();
    ServingEngine solo(config, Sarathi());
    solo.Run(SmallTrace());
    EXPECT_EQ(solo.SharedAttnCosts(), nullptr);
    ASSERT_GT(solo.AttnCacheSize(), 0u);

    auto table = std::make_shared<AttnCostTable>();
    ServingEngine first(config, Sarathi(), table);
    first.Run(SmallTrace());
    // The second engine is served from the warm table where the traces
    // overlap and simulates the rest.
    std::vector<Request> longer = SmallTrace();
    for (Request& r : longer) {
        r.prefill_tokens += 256;
        r.decode_tokens *= 2;
    }
    ServingEngine second(config, Sarathi(), table);
    second.Run(longer);
    ASSERT_GT(table->Size(), first.AttnCacheSize());
    size_t from_table = 0;
    for (const auto& entry : second.AttnCache()) {
        from_table += first.AttnCache().count(entry.first);
    }
    ASSERT_GT(from_table, 0u);

    std::unordered_set<AttnSignature, AttnSignatureHash> written;
    for (const ServingEngine* engine : {&first, &second}) {
        for (const auto& [key, layer_time] : engine->AttnCache()) {
            written.insert(key);
            const double simulated = SimulatedLayerTime(config, key);
            EXPECT_EQ(layer_time, simulated);
            ASSERT_TRUE(table->Find(key).has_value());
            EXPECT_EQ(table->Find(key)->total_time, simulated);
        }
    }
    EXPECT_EQ(written.size(), table->Size());
    for (const auto& [key, layer_time] : solo.AttnCache()) {
        const std::optional<AttnCost> shared = table->Find(key);
        if (shared) EXPECT_EQ(shared->total_time, layer_time);
    }
}

}  // namespace
}  // namespace pod::serve

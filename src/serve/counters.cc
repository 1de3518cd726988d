/**
 * @file
 * Implementation of the engine counter schema.
 */
#include "serve/counters.h"

#include <type_traits>

namespace pod::serve {

namespace {

using telemetry::MetricKind;

#define POD_CHECK_COUNTER(type, field, name, kind)                        \
    static_assert(MetricKind::kind != MetricKind::kCounter ||             \
                      std::is_integral_v<type>,                           \
                  #field " is published as a counter, so it must be "     \
                         "integral");
POD_ENGINE_COUNTERS(POD_CHECK_COUNTER)
#undef POD_CHECK_COUNTER

double
HitRate(long hits, long misses)
{
    long lookups = hits + misses;
    if (lookups <= 0) return 0.0;
    return static_cast<double>(hits) / static_cast<double>(lookups);
}

template <typename T>
void
Publish(telemetry::MetricRegistry& registry, const std::string& name,
        MetricKind kind, T value)
{
    if (kind == MetricKind::kCounter) {
        registry.AddCounter(name, static_cast<long>(value));
    } else {
        registry.SetGauge(name, static_cast<double>(value));
    }
}

}  // namespace

EngineCounters&
EngineCounters::operator+=(const EngineCounters& other)
{
#define POD_ADD_COUNTER(type, field, name, kind) field += other.field;
    POD_ENGINE_COUNTERS(POD_ADD_COUNTER)
#undef POD_ADD_COUNTER
    return *this;
}

double
EngineCounters::AttnCacheHitRate() const
{
    return HitRate(attn_cache_hits, attn_cache_misses);
}

double
EngineCounters::PrefixHitRate() const
{
    return HitRate(prefix_hits, prefix_misses);
}

void
FillCounters(const EngineCounters& counters,
             telemetry::MetricRegistry& registry, const std::string& prefix)
{
#define POD_PUBLISH_COUNTER(type, field, name, kind)                      \
    Publish(registry, prefix + name, MetricKind::kind, counters.field);
    POD_ENGINE_COUNTERS(POD_PUBLISH_COUNTER)
#undef POD_PUBLISH_COUNTER
    registry.SetGauge(prefix + "attn_cache.hit_rate",
                      counters.AttnCacheHitRate());
    registry.SetGauge(prefix + "kv_prefix.hit_rate",
                      counters.PrefixHitRate());
}

}  // namespace pod::serve

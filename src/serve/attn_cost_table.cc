/**
 * @file
 * Implementation of the fleet-shared attention cost table.
 */
#include "serve/attn_cost_table.h"

#include <cstdint>

namespace pod::serve {

size_t
AttnSignatureHash::operator()(const AttnSignature& sig) const
{
    // Spread the fields (SplitMix64 finalizer); hits are decided by
    // AttnSignature equality, so the key itself never aliases.
    uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(sig.chunk))
                  << 32) |
                 static_cast<uint32_t>(sig.kv);
    z = z * 0x9E3779B97F4A7C15ull ^
        ((static_cast<uint64_t>(static_cast<uint32_t>(sig.decode_bs))
          << 32) |
         static_cast<uint32_t>(sig.context));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<size_t>(z ^ (z >> 31));
}

std::optional<AttnCost>
AttnCostTable::Find(const AttnSignature& key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = costs_.find(key);
    if (it == costs_.end()) return std::nullopt;
    return it->second;
}

void
AttnCostTable::Insert(const AttnSignature& key, const AttnCost& cost)
{
    std::lock_guard<std::mutex> lock(mutex_);
    costs_.emplace(key, cost);
}

size_t
AttnCostTable::Size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return costs_.size();
}

}  // namespace pod::serve

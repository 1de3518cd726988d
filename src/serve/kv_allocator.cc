/**
 * @file
 * Implementation of the KV allocator.
 */
#include "serve/kv_allocator.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/math_util.h"
#include "serve/prefix/block_hash.h"

namespace pod::serve {

KvAllocator::KvAllocator(KvPolicy policy, long total_blocks,
                         int block_size, double watermark,
                         PreemptMode preempt_mode,
                         bool prefix_cache_enabled)
    : policy_(policy),
      preempt_mode_(policy == KvPolicy::kWatermark ? preempt_mode
                                                   : PreemptMode::kRecompute),
      watermark_(policy == KvPolicy::kWatermark ? watermark : 0.0),
      watermark_blocks_(static_cast<long>(watermark_ * total_blocks)),
      total_blocks_(total_blocks),
      block_size_(block_size)
{
    POD_CHECK_ARG(total_blocks > 0, "KV pool must be non-empty");
    POD_CHECK_ARG(block_size >= 1, "block size must be >= 1");
    // Guard the pool's token capacity against long overflow: callers
    // multiply total_blocks * block_size when sizing transfers and
    // pressure figures.
    POD_CHECK_ARG(total_blocks <=
                      std::numeric_limits<long>::max() / block_size,
                  "KV pool token capacity overflows long");
    POD_CHECK_ARG(watermark_ >= 0.0 && watermark_ < 1.0,
                  "kv_watermark must be in [0, 1)");
    if (prefix_cache_enabled) {
        // Swap would park shared blocks on the host while other live
        // requests still reference them on-device (see the file
        // comment in kv_allocator.h).
        POD_CHECK_ARG(preempt_mode_ == PreemptMode::kRecompute,
                      "prefix caching requires recompute preemption");
        cache_ = std::make_unique<prefix::PrefixCache>();
    }
}

long
KvAllocator::BlocksFor(int tokens) const
{
    // CeilDiv is only defined for non-negative operands; a negative
    // token count would silently round to a zero-block reservation.
    POD_CHECK_ARG(tokens >= 0, "token count must be >= 0");
    return CeilDiv(static_cast<long>(tokens),
                   static_cast<long>(block_size_));
}

long
KvAllocator::Held(int request_id) const
{
    auto it = records_.find(request_id);
    return it != records_.end() ? it->second.held : 0;
}

KvAllocator::Record&
KvAllocator::HashedRecord(const RequestState& state)
{
    // With the cache on, every record is made here, so an existing
    // record already carries the chain.
    auto [it, inserted] = records_.try_emplace(state.request.id);
    if (inserted) {
        it->second.hashes =
            prefix::BlockHashes(state.request, block_size_);
    }
    return it->second;
}

KvAllocator::Record&
KvAllocator::Reserved(int request_id)
{
    auto it = records_.find(request_id);
    POD_CHECK_ARG(it != records_.end() && it->second.reserved,
                  "request holds no reservation");
    return it->second;
}

void
KvAllocator::ReleaseShared(long blocks)
{
    POD_CHECK_ARG(blocks >= 0, "block count must be >= 0");
    POD_CHECK_ARG(blocks <= shared_blocks_,
                  "shared account holds fewer blocks than released");
    shared_blocks_ -= blocks;
    used_blocks_ -= blocks;
}

bool
KvAllocator::TryAdmit(const RequestState& state)
{
    const int id = state.request.id;
    last_admit_cached_tokens_ = 0;
    // Conservative reservations never grow, so nothing is ever
    // evicted and the only admissible phase is a fresh submission.
    POD_ASSERT(policy_ == KvPolicy::kWatermark ||
               state.phase == Phase::kQueued);

    // With the cache on, the record (and its hash chain) is made
    // before the gate; without it, only a swapped-out request has a
    // record before its admission succeeds.
    Record* rec = cache_ ? &HashedRecord(state) : nullptr;
    long needed;
    if (state.phase == Phase::kPreemptedSwapped) {
        // Swap-in restores the exact evicted footprint.
        auto it = records_.find(id);
        POD_ASSERT(it != records_.end());
        rec = &it->second;
        needed = rec->swapped;
    } else if (policy_ == KvPolicy::kConservative) {
        needed = BlocksFor(state.request.prefill_tokens +
                           state.request.decode_tokens);
    } else {
        // Fresh or recompute-restored context: blocks for the prompt
        // (plus any generated tokens a recompute rebuilds); decode
        // growth comes later through TryAppend().
        needed = BlocksFor(state.PrefillTarget());
    }

    const std::vector<uint64_t>* hashes = nullptr;
    long matched = 0;
    if (cache_) {
        hashes = &rec->hashes;
        // Never serve the entire prefill from cache: at least one
        // prompt token must actually run so first-token timing stays
        // defined (vLLM clamps a full hit the same way).
        long max_match = std::min<long>(
            static_cast<long>(hashes->size()),
            static_cast<long>((state.PrefillTarget() - 1) /
                              block_size_));
        if (max_match > 0) matched = cache_->MatchBlocks(*hashes, max_match);
        needed -= matched;
        POD_ASSERT(needed >= 1);  // the clamp leaves >= 1 private block
    }

    // vLLM's watermark rule: admit only if the pool stays above the
    // watermark afterwards, so short bursts of decode growth do not
    // immediately preempt what was just admitted.
    if (FreeBlocks() - needed < watermark_blocks_) {
        if (!cache_) return false;
        // Reclaim dead cache blocks before giving up. Reference the
        // matched chain first so the LRU sweep cannot eat the very
        // prefix this admission hit.
        long deficit = watermark_blocks_ + needed - FreeBlocks();
        if (matched > 0) cache_->Acquire(id, *hashes, matched);
        ReleaseShared(cache_->EvictLru(deficit));
        if (FreeBlocks() - needed < watermark_blocks_) {
            if (matched > 0) cache_->Release(id, *hashes);
            return false;
        }
    } else if (matched > 0) {
        cache_->Acquire(id, *hashes, matched);
    }

    POD_CHECK_ARG(needed >= 0, "block count must be >= 0");
    if (!rec) rec = &records_[id];
    POD_CHECK_ARG(!rec->reserved, "request already holds a reservation");
    POD_ASSERT(needed <= FreeBlocks());  // the gate check implies it fits
    rec->reserved = true;
    rec->held = needed;
    rec->swapped = 0;
    used_blocks_ += needed;
    if (!cache_) return true;

    last_admit_cached_tokens_ = static_cast<int>(matched) * block_size_;
    if (!hashes->empty()) {
        prefix::PrefixCacheStats& s = cache_->Stats();
        if (matched > 0) {
            ++s.hits;
            s.hit_blocks += matched;
            s.prefill_tokens_saved += last_admit_cached_tokens_;
        } else {
            ++s.misses;
        }
    }
    return true;
}

bool
KvAllocator::TryGrow(const RequestState& state)
{
    // Blocks the token needs beyond the held and cache-covered ones.
    const int id = state.request.id;
    const long cover = cache_ ? cache_->RefBlocks(id) : 0;
    const long need = BlocksFor(state.ContextLen() + 1) - cover - Held(id);
    if (need <= 0) return true;
    Record& rec = Reserved(id);
    const long evictable = cache_ ? cache_->EvictableBlocks() : 0;
    if (FreeBlocks() + evictable < need) return false;
    if (FreeBlocks() < need) {
        ReleaseShared(cache_->EvictLru(need - FreeBlocks()));
    }
    POD_ASSERT(need <= FreeBlocks());  // the evictable count covered it
    rec.held += need;
    used_blocks_ += need;
    return true;
}

long
KvAllocator::Evict(const RequestState& state, PreemptMode mode)
{
    if (policy_ == KvPolicy::kConservative) {
        Panic("the conservative KV policy can never need an eviction");
    }
    POD_CHECK_ARG(!cache_ || mode == PreemptMode::kRecompute,
                  "prefix caching only supports recompute preemption");
    const int id = state.request.id;
    Record& rec = Reserved(id);
    const long blocks = rec.held;
    used_blocks_ -= blocks;
    rec.reserved = false;
    rec.held = 0;
    if (mode == PreemptMode::kSwap) rec.swapped = blocks;
    // The record and its hash chain survive: a recompute re-admission
    // re-matches the same chain without recomputing it.
    if (cache_) cache_->Release(id, rec.hashes);
    return blocks;
}

void
KvAllocator::Release(int request_id)
{
    auto it = records_.find(request_id);
    POD_CHECK_ARG(it != records_.end() && it->second.reserved,
                  "request holds no reservation");
    used_blocks_ -= it->second.held;
    if (cache_) cache_->Release(request_id, it->second.hashes);
    records_.erase(it);
}

void
KvAllocator::CheckFits(const RequestState& state) const
{
    // Worst case the whole context is private (nothing shared).
    // Cached blocks never tighten the bound: any block not
    // referenced by this request alone is evictable once every other
    // holder is preempted. A request that cannot coexist with the
    // watermark would deadlock the decode-growth path.
    POD_CHECK_ARG(BlocksFor(state.request.prefill_tokens +
                            state.request.decode_tokens) +
                          watermark_blocks_ <=
                      total_blocks_,
                  "request larger than the KV pool minus the "
                  "admission watermark");
}

void
KvAllocator::OnPrefillComplete(const RequestState& state)
{
    if (!cache_) return;
    const int id = state.request.id;
    auto it = records_.find(id);
    if (it == records_.end() || it->second.hashes.empty()) return;
    const std::vector<uint64_t>& hashes = it->second.hashes;

    // Promote the prompt's blocks: newly cached runs move from the
    // request's private account into the shared account; runs some
    // earlier request already cached are duplicates, and dropping
    // the private copies is exactly the copy-on-write win. Both fit
    // inside the admission reservation because the hash chain only
    // covers full prompt blocks. Idempotent across a recompute
    // re-prefill: prior coverage keeps its references and only the
    // evicted-meanwhile remainder is re-promoted.
    prefix::PrefixCache::InsertResult result =
        cache_->InsertAndRef(id, hashes);
    if (result.new_blocks == 0 && result.dedup_blocks == 0) return;
    Record& rec = Reserved(id);
    POD_CHECK_ARG(result.new_blocks + result.dedup_blocks <= rec.held,
                  "request holds fewer blocks than transferred");
    // New blocks only change owner; duplicates return to the pool.
    rec.held -= result.new_blocks + result.dedup_blocks;
    shared_blocks_ += result.new_blocks;
    used_blocks_ -= result.dedup_blocks;
}

long
KvAllocator::SwappedBlocks(int request_id) const
{
    auto it = records_.find(request_id);
    return it != records_.end() ? it->second.swapped : 0;
}

void
KvAllocator::AuditLedger() const
{
    long held = 0;
    for (const auto& [id, rec] : records_) {
        (void)id;
        POD_ASSERT(rec.held >= 0 && (rec.reserved || rec.held == 0));
        // A swapped-out request holds nothing on-device.
        POD_ASSERT(rec.swapped >= 0 && (rec.swapped == 0 || !rec.reserved));
        POD_ASSERT(cache_ || rec.hashes.empty());
        held += rec.held;
    }
    POD_ASSERT(shared_blocks_ >= 0);
    POD_ASSERT(held + shared_blocks_ == used_blocks_);
    POD_ASSERT(used_blocks_ >= 0 && used_blocks_ <= total_blocks_);
    if (!cache_) {
        POD_ASSERT(shared_blocks_ == 0);
        return;
    }
    cache_->CheckIntegrity();
    POD_ASSERT(cache_->TotalBlocks() == shared_blocks_);
}

}  // namespace pod::serve

/**
 * @file
 * Implementation of the KV allocator.
 */
#include "serve/kv_allocator.h"

#include <algorithm>

#include "common/logging.h"
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
      pool_(total_blocks, block_size)
{
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

const std::vector<uint64_t>&
KvAllocator::HashesFor(const RequestState& state)
{
    auto it = hashes_.find(state.request.id);
    if (it == hashes_.end()) {
        it = hashes_
                 .emplace(state.request.id,
                          prefix::BlockHashes(state.request,
                                              pool_.BlockSize()))
                 .first;
    }
    return it->second;
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

    long needed;
    if (state.phase == Phase::kPreemptedSwapped) {
        // Swap-in restores the exact evicted footprint.
        auto it = swapped_out_.find(id);
        POD_ASSERT(it != swapped_out_.end());
        needed = it->second;
    } else if (policy_ == KvPolicy::kConservative) {
        needed = pool_.BlocksFor(state.request.prefill_tokens +
                                 state.request.decode_tokens);
    } else {
        // Fresh or recompute-restored context: blocks for the prompt
        // (plus any generated tokens a recompute rebuilds); decode
        // growth comes later through Append().
        needed = pool_.BlocksFor(state.PrefillTarget());
    }

    const std::vector<uint64_t>* hashes = nullptr;
    long matched = 0;
    if (cache_) {
        hashes = &HashesFor(state);
        // Never serve the entire prefill from cache: at least one
        // prompt token must actually run so first-token timing stays
        // defined (vLLM clamps a full hit the same way).
        long max_match = std::min<long>(
            static_cast<long>(hashes->size()),
            static_cast<long>((state.PrefillTarget() - 1) /
                              pool_.BlockSize()));
        if (max_match > 0) matched = cache_->MatchBlocks(*hashes, max_match);
        needed -= matched;
        POD_ASSERT(needed >= 1);  // the clamp leaves >= 1 private block
    }

    // vLLM's watermark rule: admit only if the pool stays above the
    // watermark afterwards, so short bursts of decode growth do not
    // immediately preempt what was just admitted.
    if (pool_.FreeBlocks() - needed < watermark_blocks_) {
        if (!cache_) return false;
        // Reclaim dead cache blocks before giving up. Reference the
        // matched chain first so the LRU sweep cannot eat the very
        // prefix this admission hit.
        long deficit = watermark_blocks_ + needed - pool_.FreeBlocks();
        if (matched > 0) cache_->Acquire(id, *hashes, matched);
        pool_.ReleaseShared(cache_->EvictLru(deficit));
        if (pool_.FreeBlocks() - needed < watermark_blocks_) {
            if (matched > 0) cache_->Release(id, *hashes);
            return false;
        }
    } else if (matched > 0) {
        cache_->Acquire(id, *hashes, matched);
    }

    bool ok = pool_.ReserveBlocks(id, needed);
    POD_ASSERT(ok);  // the gate check implies it fits
    if (state.phase == Phase::kPreemptedSwapped) swapped_out_.erase(id);
    if (!cache_) return true;

    last_admit_cached_tokens_ =
        static_cast<int>(matched) * pool_.BlockSize();
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

long
KvAllocator::GrowthNeed(const RequestState& state) const
{
    const int id = state.request.id;
    const long cover = cache_ ? cache_->RefBlocks(id) : 0;
    return pool_.BlocksFor(state.ContextLen() + 1) - cover -
           pool_.Held(id);
}

bool
KvAllocator::CanGrow(const RequestState& state) const
{
    // Dead cache subtrees count as headroom: Grow() reclaims them
    // first, so a block parked at refcount 0 never forces a
    // preemption.
    long need = GrowthNeed(state);
    long evictable = cache_ ? cache_->EvictableBlocks() : 0;
    return need <= 0 || pool_.FreeBlocks() + evictable >= need;
}

void
KvAllocator::Grow(const RequestState& state)
{
    long need = GrowthNeed(state);
    if (need <= 0) return;
    if (cache_ && pool_.FreeBlocks() < need) {
        pool_.ReleaseShared(cache_->EvictLru(need - pool_.FreeBlocks()));
    }
    bool ok = pool_.Grow(state.request.id, need);
    POD_ASSERT_MSG(ok, "Append() without CanAppend() on request %d",
                   state.request.id);
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
    long blocks = pool_.Free(id);
    if (mode == PreemptMode::kSwap) swapped_out_[id] = blocks;
    if (cache_) {
        // hashes_ survives: a recompute re-admission re-matches the
        // same chain without recomputing it.
        auto it = hashes_.find(id);
        if (it != hashes_.end()) cache_->Release(id, it->second);
    }
    return blocks;
}

void
KvAllocator::Release(int request_id)
{
    pool_.Free(request_id);
    if (!cache_) return;
    auto it = hashes_.find(request_id);
    if (it != hashes_.end()) {
        cache_->Release(request_id, it->second);
        hashes_.erase(it);
    }
}

void
KvAllocator::CheckFits(const RequestState& state) const
{
    // Worst case the whole context is private (nothing shared).
    // Cached blocks never tighten the bound: any block not
    // referenced by this request alone is evictable once every other
    // holder is preempted. A request that cannot coexist with the
    // watermark would deadlock the decode-growth path.
    POD_CHECK_ARG(pool_.BlocksFor(state.request.prefill_tokens +
                                  state.request.decode_tokens) +
                          watermark_blocks_ <=
                      pool_.TotalBlocks(),
                  "request larger than the KV pool minus the "
                  "admission watermark");
}

void
KvAllocator::OnPrefillComplete(const RequestState& state)
{
    if (!cache_) return;
    const int id = state.request.id;
    auto it = hashes_.find(id);
    if (it == hashes_.end() || it->second.empty()) return;
    const std::vector<uint64_t>& hashes = it->second;

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
    if (result.new_blocks > 0) pool_.TransferToShared(id, result.new_blocks);
    if (result.dedup_blocks > 0) pool_.Shrink(id, result.dedup_blocks);
}

long
KvAllocator::SwappedBlocks(int request_id) const
{
    auto it = swapped_out_.find(request_id);
    return it != swapped_out_.end() ? it->second : 0;
}

void
KvAllocator::AuditLedger() const
{
    pool_.CheckLedger();
    for (const auto& [id, blocks] : swapped_out_) {
        POD_ASSERT(blocks >= 0 && pool_.Held(id) == 0);
    }
    if (!cache_) {
        POD_ASSERT(pool_.SharedBlocks() == 0 && hashes_.empty());
        return;
    }
    cache_->CheckIntegrity();
    POD_ASSERT(cache_->TotalBlocks() == pool_.SharedBlocks());
}

}  // namespace pod::serve

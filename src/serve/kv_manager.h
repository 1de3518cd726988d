/**
 * @file
 * Block-based KV cache accounting (PagedAttention-style bookkeeping).
 *
 * BlockKvManager is the raw block ledger: it tracks which request
 * holds how many blocks and nothing else. Admission *policy* — when a
 * reservation may happen, whether requests grow incrementally, who
 * gets evicted under pressure — lives in KvAllocator
 * (serve/kv_allocator.h), the only code that should construct one
 * (docs/DESIGN.md S2).
 */
#ifndef POD_SERVE_KV_MANAGER_H
#define POD_SERVE_KV_MANAGER_H

#include <unordered_map>

#include "common/math_util.h"

namespace pod::serve {

/**
 * Tracks KV block allocation per request. Pure accounting: every
 * operation is a ledger update; misuse (double reserve, double free,
 * freeing an unknown request) is fatal rather than silently absorbed,
 * so policy bugs in the allocator surface at the call site.
 */
class BlockKvManager
{
  public:
    /**
     * @param total_blocks capacity of the device KV pool; must be
     *        >= 1 (a zero-capacity pool would make every admission
     *        path a silent no-op) and small enough that the pool's
     *        token capacity `total_blocks * block_size` fits in a
     *        long.
     * @param block_size tokens per block.
     */
    BlockKvManager(long total_blocks, int block_size);

    /** Blocks needed to hold `tokens` tokens; `tokens` must be >= 0. */
    long BlocksFor(int tokens) const;

    /** True if a reservation of `tokens` tokens would fit now. */
    bool CanReserve(int tokens) const;

    /** Reserve blocks for a request; false if out of capacity. */
    bool Reserve(int request_id, int tokens);

    /**
     * Reserve an explicit block count (swap-in restores a preempted
     * request's exact footprint). False if out of capacity.
     */
    bool ReserveBlocks(int request_id, long blocks);

    /**
     * Grow an existing reservation by `extra_blocks` (incremental
     * decode growth). False if out of capacity; fatal if the request
     * holds no reservation.
     */
    bool Grow(int request_id, long extra_blocks);

    /** Blocks currently held by a request (0 if none reserved). */
    long Held(int request_id) const;

    /**
     * Release a request's blocks and return how many were freed.
     * Fatal on double-free / freeing an unknown request.
     */
    long Free(int request_id);

    // ---- shared account (prefix cache; docs/DESIGN.md S2.6) ----
    // Cached prompt blocks are owned by no single request: they sit
    // in a shared account that counts toward UsedBlocks() like any
    // reservation. The PrefixCache tracks *which* blocks these are
    // and who references them; this ledger only guarantees the counts
    // can never leak or double-free (every transfer is guarded).

    /** Move `blocks` from the free pool into the shared account;
     * false (and no change) if they do not fit. */
    bool ReserveShared(long blocks);

    /** Return `blocks` from the shared account to the free pool.
     * Fatal if the account holds fewer (double-free guard). */
    void ReleaseShared(long blocks);

    /** Re-label `blocks` of a request's private reservation as
     * shared (a freshly prefilled prompt entering the cache). Fatal
     * if the request holds fewer (overflow guard). The request's
     * entry survives even at zero held blocks. */
    void TransferToShared(int request_id, long blocks);

    /** Give back `blocks` of a request's private reservation (its
     * prompt was already cached by someone else, so the duplicate
     * is dropped). Fatal if the request holds fewer. */
    void Shrink(int request_id, long blocks);

    /** Blocks in the shared account. */
    long SharedBlocks() const { return shared_blocks_; }

    /** Audit the ledger: per-request holdings plus the shared
     * account must exactly equal UsedBlocks(). Fatal on drift. */
    void CheckLedger() const;

    long TotalBlocks() const { return total_blocks_; }
    long UsedBlocks() const { return used_blocks_; }
    long FreeBlocks() const { return total_blocks_ - used_blocks_; }
    int BlockSize() const { return block_size_; }

    /** Fraction of the pool in use. */
    double
    Utilization() const
    {
        return total_blocks_ > 0
                   ? static_cast<double>(used_blocks_) / total_blocks_
                   : 0.0;
    }

  private:
    long total_blocks_;
    int block_size_;
    long used_blocks_ = 0;
    long shared_blocks_ = 0;
    std::unordered_map<int, long> reserved_;
};

}  // namespace pod::serve

#endif  // POD_SERVE_KV_MANAGER_H

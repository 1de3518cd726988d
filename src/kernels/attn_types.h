/**
 * @file
 * Problem descriptions for hybrid-batch attention.
 *
 * A hybrid batch (paper S2.1, Table 1) contains at most one chunked
 * prefill and any number of decode requests. Shapes are per-GPU:
 * tensor parallelism divides query and KV heads before these
 * structures are built.
 */
#ifndef POD_KERNELS_ATTN_TYPES_H
#define POD_KERNELS_ATTN_TYPES_H

#include <cstdint>
#include <string>
#include <vector>

namespace pod::kernels {

/** Bytes per stored element (FP16 KV cache and activations). */
inline constexpr double kElemBytes = 2.0;

/** Bytes per accumulator element (FP32 split-KV partials). */
inline constexpr double kAccumBytes = 4.0;

/** CUDA-core FLOPs charged per attention score element (softmax,
 * scaling, masking). */
inline constexpr double kSoftmaxFlopsPerScore = 6.0;

/** Per-GPU attention head geometry. */
struct AttnShape
{
    /** Query heads on this GPU. */
    int num_q_heads = 32;

    /** KV heads on this GPU (GQA: num_q_heads / num_kv_heads per group). */
    int num_kv_heads = 8;

    /** Head dimension. */
    int head_dim = 128;

    /** Query heads per KV head (GQA group size). */
    int
    GroupSize() const
    {
        return num_q_heads / num_kv_heads;
    }

    /** Validate; Fatal on inconsistent values. */
    void Validate() const;

    /** Field-by-field equality. */
    bool
    operator==(const AttnShape& o) const
    {
        return num_q_heads == o.num_q_heads &&
               num_kv_heads == o.num_kv_heads && head_dim == o.head_dim;
    }
};

/** One chunked prefill in a hybrid batch. */
struct PrefillItem
{
    /**
     * Number of new query tokens processed this iteration
     * (the prefill chunk size, paper S2.1).
     */
    int chunk_len = 0;

    /**
     * Total KV length visible to the chunk's last token, i.e. all
     * previously processed context plus this chunk. Queries attend
     * causally: token i of the chunk sees kv_len - chunk_len + i + 1
     * keys.
     */
    int kv_len = 0;

    /** Query position offset of the chunk's first token. */
    int QueryOffset() const { return kv_len - chunk_len; }

    void Validate() const;
};

/** The decode side of a hybrid batch. */
struct DecodeItem
{
    /** KV context length per decode request (one query token each). */
    std::vector<int> context_lens;

    /** Number of decode requests. */
    int BatchSize() const { return static_cast<int>(context_lens.size()); }

    /** Sum of all context lengths. */
    int64_t TotalContext() const;

    /** Uniform-context convenience constructor. */
    static DecodeItem Uniform(int batch_size, int context_len);

    void Validate() const;
};

/** A full hybrid batch: at most one prefill chunk plus decodes. */
struct HybridBatch
{
    AttnShape shape;

    /** Prefill chunks (usually zero or one; Sarathi-style batching). */
    std::vector<PrefillItem> prefills;

    /** Decode requests. */
    DecodeItem decode;

    bool HasPrefill() const { return !prefills.empty(); }
    bool HasDecode() const { return decode.BatchSize() > 0; }

    void Validate() const;

    /** Short human-readable description for logs and tables. */
    std::string Describe() const;

    /** Convenience: one prefill chunk + uniform decodes. */
    static HybridBatch Make(AttnShape shape, int chunk_len, int prefill_kv,
                            int decode_bs, int decode_ctx);
};

}  // namespace pod::kernels

#endif  // POD_KERNELS_ATTN_TYPES_H

/**
 * @file
 * Implementation of the radix prefix cache.
 */
#include "serve/prefix/prefix_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace pod::serve::prefix {

PrefixCache::PrefixCache() = default;

long
PrefixCache::MatchBlocks(const std::vector<uint64_t>& hashes,
                         long max_blocks) const
{
    long limit = std::min<long>(max_blocks,
                                static_cast<long>(hashes.size()));
    long matched = 0;
    const Node* n = &root_;
    while (matched < limit) {
        auto it = n->children.find(hashes[static_cast<size_t>(matched)]);
        if (it == n->children.end()) break;
        const Node* c = it->second.get();
        long m = 0;
        long cap = std::min<long>(static_cast<long>(c->run.size()),
                                  limit - matched);
        while (m < cap &&
               c->run[static_cast<size_t>(m)] ==
                   hashes[static_cast<size_t>(matched + m)]) {
            ++m;
        }
        matched += m;
        if (m < static_cast<long>(c->run.size())) break;  // divergence
        n = c;
    }
    return matched;
}

void
PrefixCache::SplitNode(Node* node, long keep)
{
    POD_ASSERT(keep >= 1 && keep < static_cast<long>(node->run.size()));
    auto rest = std::make_unique<Node>();
    rest->run.assign(node->run.begin() + keep, node->run.end());
    rest->parent = node;
    rest->refcount = node->refcount;  // every holder covered both halves
    rest->last_use = node->last_use;
    rest->children = std::move(node->children);
    for (auto& [key, child] : rest->children) {
        (void)key;
        child->parent = rest.get();
    }
    node->run.resize(static_cast<size_t>(keep));
    Node* raw = rest.get();
    node->children.clear();
    node->children.emplace(raw->run.front(), std::move(rest));
    // Gauges are invariant under a split: cached/shared/evictable all
    // count blocks, and both halves inherit the original refcount, so
    // the per-block classification is unchanged.
}

void
PrefixCache::Ref(Node* node)
{
    ++node->refcount;
    const long run_blocks = static_cast<long>(node->run.size());
    if (node->refcount == 1) evictable_blocks_ -= run_blocks;
    if (node->refcount == 2) stats_.shared_blocks += run_blocks;
}

void
PrefixCache::Unref(Node* node)
{
    POD_ASSERT(node->refcount > 0);
    --node->refcount;
    const long run_blocks = static_cast<long>(node->run.size());
    if (node->refcount == 0) evictable_blocks_ += run_blocks;
    if (node->refcount == 1) stats_.shared_blocks -= run_blocks;
}

void
PrefixCache::Acquire(int id, const std::vector<uint64_t>& hashes,
                     long blocks)
{
    POD_CHECK_ARG(blocks >= 0 &&
                      blocks <= static_cast<long>(hashes.size()),
                  "acquired blocks exceed the hash chain");
    POD_CHECK_ARG(ref_blocks_.find(id) == ref_blocks_.end(),
                  "request already holds prefix references");
    if (blocks == 0) return;
    Node* n = &root_;
    long pos = 0;
    while (pos < blocks) {
        auto it = n->children.find(hashes[static_cast<size_t>(pos)]);
        POD_ASSERT(it != n->children.end());  // caller matched first
        Node* c = it->second.get();
        long take = std::min<long>(static_cast<long>(c->run.size()),
                                   blocks - pos);
        for (long i = 0; i < take; ++i) {
            POD_ASSERT(c->run[static_cast<size_t>(i)] ==
                       hashes[static_cast<size_t>(pos + i)]);
        }
        if (take < static_cast<long>(c->run.size())) SplitNode(c, take);
        Ref(c);
        c->last_use = ++clock_;
        pos += take;
        n = c;
    }
    ref_blocks_[id] = blocks;
}

PrefixCache::InsertResult
PrefixCache::InsertAndRef(int id, const std::vector<uint64_t>& hashes)
{
    POD_CHECK_ARG(!hashes.empty(), "nothing to insert");
    long prior = 0;
    auto rit = ref_blocks_.find(id);
    if (rit != ref_blocks_.end()) prior = rit->second;
    POD_CHECK_ARG(prior <= static_cast<long>(hashes.size()),
                  "prior coverage exceeds the hash chain");

    InsertResult result;
    Node* n = &root_;
    long pos = 0;
    const long total = static_cast<long>(hashes.size());
    while (pos < total) {
        auto it = n->children.find(hashes[static_cast<size_t>(pos)]);
        if (it == n->children.end()) {
            // Unseen suffix: one path-compressed node holds it all.
            auto node = std::make_unique<Node>();
            node->run.assign(hashes.begin() + pos, hashes.end());
            node->parent = n;
            node->last_use = ++clock_;
            Node* raw = node.get();
            n->children.emplace(raw->run.front(), std::move(node));
            long run_blocks = static_cast<long>(raw->run.size());
            stats_.cached_blocks += run_blocks;
            stats_.inserted_blocks += run_blocks;
            evictable_blocks_ += run_blocks;  // born dead; Ref revives
            result.new_blocks += run_blocks;
            Ref(raw);
            pos = total;
            break;
        }
        Node* c = it->second.get();
        long m = 0;
        long cap = std::min<long>(static_cast<long>(c->run.size()),
                                  total - pos);
        while (m < cap &&
               c->run[static_cast<size_t>(m)] ==
                   hashes[static_cast<size_t>(pos + m)]) {
            ++m;
        }
        POD_ASSERT(m >= 1);  // the child key matched hashes[pos]
        if (m < static_cast<long>(c->run.size())) SplitNode(c, m);
        if (pos >= prior) {
            Ref(c);
            result.dedup_blocks += m;
        } else {
            // Nodes inside prior coverage are already referenced and
            // can never straddle its boundary (splits only refine).
            POD_ASSERT(pos + m <= prior);
        }
        c->last_use = ++clock_;
        pos += m;
        n = c;
    }
    ref_blocks_[id] = total;
    return result;
}

void
PrefixCache::Release(int id, const std::vector<uint64_t>& hashes)
{
    auto it = ref_blocks_.find(id);
    if (it == ref_blocks_.end()) return;
    long blocks = it->second;
    POD_CHECK_ARG(blocks <= static_cast<long>(hashes.size()),
                  "coverage exceeds the hash chain");
    Node* n = &root_;
    long pos = 0;
    while (pos < blocks) {
        auto cit = n->children.find(hashes[static_cast<size_t>(pos)]);
        POD_ASSERT(cit != n->children.end());
        Node* c = cit->second.get();
        // Coverage boundaries always align with node boundaries.
        POD_ASSERT(static_cast<long>(c->run.size()) <= blocks - pos);
        Unref(c);
        c->last_use = ++clock_;  // LRU reflects last activity
        pos += static_cast<long>(c->run.size());
        n = c;
    }
    ref_blocks_.erase(it);
}

long
PrefixCache::RefBlocks(int id) const
{
    auto it = ref_blocks_.find(id);
    return it != ref_blocks_.end() ? it->second : 0;
}

void
PrefixCache::EvictNode(Node* node)
{
    POD_ASSERT(node->children.empty() && !node->Live());
    long run_blocks = static_cast<long>(node->run.size());
    stats_.cached_blocks -= run_blocks;
    stats_.evicted_blocks += run_blocks;
    evictable_blocks_ -= run_blocks;
    Node* parent = node->parent;
    POD_ASSERT(parent != nullptr);  // the root is never evicted
    parent->children.erase(node->run.front());  // destroys node
}

long
PrefixCache::EvictLru(long need)
{
    POD_CHECK_ARG(need >= 0, "eviction demand must be >= 0");
    long freed = 0;
    while (freed < need) {
        // Oldest dead leaf. Parents are stamped on every walk that
        // stamps a child, so last_use is monotone along paths and
        // leaf-first scanning is oldest-subtree-first. O(tree) per
        // eviction; pressure episodes are rare relative to steps.
        Node* victim = nullptr;
        std::vector<Node*> stack;
        stack.push_back(const_cast<Node*>(&root_));
        while (!stack.empty()) {
            Node* n = stack.back();
            stack.pop_back();
            if (n != &root_ && n->children.empty() && !n->Live()) {
                if (victim == nullptr || n->last_use < victim->last_use) {
                    victim = n;
                }
            }
            for (auto& [key, child] : n->children) {
                (void)key;
                stack.push_back(child.get());
            }
        }
        if (victim == nullptr) break;  // nothing evictable left
        freed += static_cast<long>(victim->run.size());
        EvictNode(victim);
    }
    return freed;
}

void
PrefixCache::CheckIntegrity() const
{
    long cached = 0;
    long shared = 0;
    long evictable = 0;
    long ref_weight = 0;  // sum of refcount * run over all nodes

    std::vector<const Node*> stack = {&root_};
    while (!stack.empty()) {
        const Node* n = stack.back();
        stack.pop_back();
        long child_refs = 0;
        for (const auto& [key, child] : n->children) {
            POD_ASSERT(key == child->run.front());
            POD_ASSERT(child->parent == n);
            POD_ASSERT(!child->run.empty());
            child_refs += child->refcount;
            stack.push_back(child.get());
        }
        POD_ASSERT(n->refcount >= 0);
        if (n == &root_) continue;
        // Walk-based refcounts: every request referencing a child
        // also references its parent (plus requests ending here).
        // Live() reads the node's own refcount because of this.
        POD_ASSERT(n->refcount >= child_refs);
        long run_blocks = static_cast<long>(n->run.size());
        cached += run_blocks;
        if (n->refcount >= 2) shared += run_blocks;
        if (!n->Live()) evictable += run_blocks;
        ref_weight += n->refcount * run_blocks;
    }

    POD_ASSERT(cached == stats_.cached_blocks);
    POD_ASSERT(shared == stats_.shared_blocks);
    POD_ASSERT(evictable == evictable_blocks_);

    long coverage = 0;
    for (const auto& [id, blocks] : ref_blocks_) {
        (void)id;
        POD_ASSERT(blocks > 0);
        coverage += blocks;
    }
    // Each live request references exactly the nodes covering its
    // blocks, so total coverage equals refcount-weighted tree size.
    POD_ASSERT(coverage == ref_weight);
}

}  // namespace pod::serve::prefix

/**
 * @file
 * Indexed min-structure over SMs for the analytic event core
 * (docs/DESIGN.md S3.2).
 */
#ifndef POD_GPUSIM_SM_KEY_TREE_H
#define POD_GPUSIM_SM_KEY_TREE_H

#include <cstddef>
#include <limits>
#include <vector>

namespace pod::gpusim::detail {

/**
 * Fixed-size tournament tree holding one key per SM. The root is the
 * SM with the smallest (key, sm) pair -- equal keys resolve to the
 * lower SM id, so the order is deterministic. Set() re-keys one SM in
 * O(log SMs) and replaces the SM's previous key, so there are no stale
 * entries to skip; an infinite key means "no pending event".
 */
class SmKeyTree
{
  public:
    static constexpr double kNone = std::numeric_limits<double>::infinity();

    explicit SmKeyTree(int num_sms)
    {
        while (leaves_ < num_sms) leaves_ *= 2;
        nodes_.resize(2 * leaves_);
        for (int i = 0; i < leaves_; ++i) {
            nodes_[static_cast<size_t>(leaves_ + i)].sm = i;
        }
        // All keys equal: every internal node holds its leftmost leaf.
        for (int p = leaves_ - 1; p >= 1; --p) {
            nodes_[static_cast<size_t>(p)] =
                nodes_[static_cast<size_t>(2 * p)];
        }
    }

    /** Give the SM a new key (kNone clears it). */
    void
    Set(int sm, double key)
    {
        size_t p = static_cast<size_t>(leaves_ + sm);
        nodes_[p].key = key;
        for (p /= 2; p >= 1; p /= 2) {
            const Node& left = nodes_[2 * p];
            const Node& right = nodes_[2 * p + 1];
            // Every SM under `left` has a lower id than every SM under
            // `right`, so a tie goes left.
            const Node& win = right.key < left.key ? right : left;
            Node& node = nodes_[p];
            // An unchanged node leaves every ancestor unchanged too.
            if (node.key == win.key && node.sm == win.sm) break;
            node = win;
        }
    }

    /** Smallest key (kNone if every SM is clear). */
    double MinKey() const { return nodes_[1].key; }

    /** SM holding MinKey() (lowest id on ties). */
    int MinSm() const { return nodes_[1].sm; }

  private:
    struct Node
    {
        double key = kNone;
        int sm = 0;
    };

    int leaves_ = 1;
    /** Root at 1, children of p at 2p and 2p + 1, leaves from
     *  leaves_ (SM i at leaves_ + i). */
    std::vector<Node> nodes_;
};

}  // namespace pod::gpusim::detail

#endif  // POD_GPUSIM_SM_KEY_TREE_H

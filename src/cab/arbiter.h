// ArbQueue: the CAB's DMA request arbiter.
//
// The SDMA engine and the MDMA transmit engine are single resources that
// every connection on the host shares (§2.1: one TURBOchannel, one media
// transmitter). With one flow a plain FIFO is the hardware's command queue;
// with many flows the service discipline decides who makes progress. Three
// policies:
//
//  * kFifo — strict arrival order, the seed behaviour. One bulk flow that
//    keeps the queue full starves nobody outright (the queue is bounded and
//    the driver backs off), but bursts serialize behind each other.
//  * kRoundRobin — one request per flow per turn, in flow-id order. A flow
//    that posts many requests waits for every other backlogged flow between
//    its own; this is what keeps the Jain index high at 64+ flows.
//  * kWeightedFair — credit-based weighted round robin. Each flow carries an
//    integer weight (default 1, set_flow_weight); between credit recharges a
//    continuously-backlogged flow is served exactly `weight` times, so over
//    any window in which a set of flows stays backlogged the service shares
//    match the weight ratios to within one recharge round (max weight
//    requests) — the provable bound the property test asserts. Flows whose
//    queue drains forfeit their remaining credit (DRR-style), so a flow
//    cannot bank service by oscillating between idle and backlogged.
//
// All policies are deterministic: ties break by arrival order (kFifo) or
// flow id (kRoundRobin/kWeightedFair); nothing consults wall-clock or
// hashes.
//
// R must expose a `std::uint32_t flow` member (0 = unattributed; flow 0 is
// just another queue, so control traffic is arbitrated too).
//
// Cost. One record per flow id lives in a vector indexed by the id, so ids
// should be dense (NetStack numbers them from 1 per host). Queued requests
// are nodes of per-flow FIFOs in one slab with a free list, and the ids of
// the backlogged flows are kept sorted in a vector no longer than the queue.
// Once the slab and the vectors have grown to the host's high-water marks,
// push and pop allocate nothing. No operation depends on how many flows
// have ever existed: push is O(1), plus a sorted insert into the backlogged
// set when a flow's queue refills from empty; pop is O(backlogged flows)
// under kFifo and kWeightedFair and O(log) plus the erase of a drained flow
// under kRoundRobin. The backlogged set is bounded by the command queue's
// depth (64 for SDMA), so every pick stays small.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace nectar::cab {

enum class ArbPolicy { kFifo, kRoundRobin, kWeightedFair };

// The single name<->enum map. Every config string and every stats dump goes
// through these two functions, so a typo'd policy name is a hard error at
// the parse site instead of a silent fifo fallback.
inline constexpr struct {
  ArbPolicy policy;
  const char* name;
} kArbPolicyNames[] = {
    {ArbPolicy::kFifo, "fifo"},
    {ArbPolicy::kRoundRobin, "round_robin"},
    {ArbPolicy::kWeightedFair, "weighted_fair"},
};

[[nodiscard]] constexpr const char* arb_policy_name(ArbPolicy p) noexcept {
  for (const auto& e : kArbPolicyNames) {
    if (e.policy == p) return e.name;
  }
  return "fifo";  // unreachable for in-range enum values
}

[[nodiscard]] constexpr std::optional<ArbPolicy> arb_policy_from_name(
    std::string_view name) noexcept {
  for (const auto& e : kArbPolicyNames) {
    if (name == e.name) return e.policy;
  }
  return std::nullopt;
}

template <typename R>
class ArbQueue {
 public:
  explicit ArbQueue(ArbPolicy p = ArbPolicy::kFifo) : policy_(p) {}

  void set_policy(ArbPolicy p) noexcept { policy_ = p; }
  [[nodiscard]] ArbPolicy policy() const noexcept { return policy_; }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(R r) {
    const std::uint32_t flow = r.flow;
    Flow& f = flow_record(flow);
    const std::uint32_t idx = take_item(std::move(r));
    if (f.len == 0) {
      f.head = idx;
      backlogged_.insert(
          std::lower_bound(backlogged_.begin(), backlogged_.end(), flow), flow);
    } else {
      items_[f.tail].next = idx;
    }
    f.tail = idx;
    ++f.len;
    ++size_;
    ++stats_.pushes;
    stats_.max_depth = std::max(stats_.max_depth, size_);
    stats_.max_flows = std::max<std::uint64_t>(stats_.max_flows, backlogged_.size());
    ++f.stats.pushes;
    f.stats.max_depth = std::max<std::uint64_t>(f.stats.max_depth, f.len);
  }

  // Remove and return the next request under the current policy. Precondition:
  // !empty().
  R pop() {
    std::size_t pos = 0;
    switch (policy_) {
      case ArbPolicy::kRoundRobin: pos = next_after_last(); break;
      case ArbPolicy::kWeightedFair: pos = pick_weighted(); break;
      default: pos = pick_fifo(); break;
    }
    const std::uint32_t flow = backlogged_[pos];
    Flow& f = flows_[flow];
    const std::uint32_t idx = f.head;
    Item& item = items_[idx];
    R r = std::move(item.req);
    f.head = item.next;
    item.next = free_;
    free_ = idx;
    --f.len;
    last_flow_ = flow;
    ++f.stats.pops;
    if (f.len == 0) {
      f.credit = 0;  // drained flows forfeit residual credit
      backlogged_.erase(backlogged_.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    --size_;
    ++stats_.pops;
    return r;
  }

  // Weighted-fair class weight for `flow` (>= 1; requests beyond the weight
  // wait for the next credit recharge). Ignored by kFifo/kRoundRobin.
  void set_flow_weight(std::uint32_t flow, std::uint32_t weight) {
    flow_record(flow).weight = std::max<std::uint32_t>(weight, 1);
  }
  [[nodiscard]] std::uint32_t flow_weight(std::uint32_t flow) const noexcept {
    return flow < flows_.size() ? flows_[flow].weight : 1;
  }

  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t max_depth = 0;  // high-water of queued requests
    std::uint64_t max_flows = 0;  // high-water of flows queued at once
    std::uint64_t credit_recharges = 0;  // kWeightedFair rounds completed
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Per-flow service accounting. It persists after a flow drains so post-run
  // stats cover every flow that ever queued here.
  struct FlowStats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t max_depth = 0;  // high-water of this flow's own queue
  };
  // Calls fn(flow, const FlowStats&) for every flow that ever queued here
  // (pushes > 0), in ascending flow id, so dumps stay deterministic.
  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    for (std::size_t id = 0; id < flows_.size(); ++id) {
      if (flows_[id].stats.pushes > 0)
        fn(static_cast<std::uint32_t>(id), flows_[id].stats);
    }
  }
  // Requests of `flow` queued right now.
  [[nodiscard]] std::size_t flow_depth(std::uint32_t flow) const noexcept {
    return flow < flows_.size() ? flows_[flow].len : 0;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // A queued request: a node of its flow's FIFO in the item slab.
  struct Item {
    std::uint64_t seq;  // global arrival order
    std::uint32_t next;  // next item of the same flow, or of the free list
    R req;
  };
  // Everything the arbiter knows about one flow id.
  struct Flow {
    std::uint32_t head = kNil;  // oldest queued item (valid while len > 0)
    std::uint32_t tail = kNil;  // newest queued item (valid while len > 0)
    std::uint32_t len = 0;
    std::uint32_t weight = 1;
    std::uint32_t credit = 0;  // kWeightedFair; nonzero only while backlogged
    FlowStats stats;
  };

  Flow& flow_record(std::uint32_t flow) {
    if (flow >= flows_.size()) flows_.resize(std::size_t{flow} + 1);
    return flows_[flow];
  }

  // Slab slot for a new request, reusing a freed one when there is one.
  std::uint32_t take_item(R&& r) {
    if (free_ != kNil) {
      const std::uint32_t idx = free_;
      Item& item = items_[idx];
      free_ = item.next;
      item.seq = next_seq_++;
      item.next = kNil;
      item.req = std::move(r);
      return idx;
    }
    items_.push_back(Item{next_seq_++, kNil, std::move(r)});
    return static_cast<std::uint32_t>(items_.size() - 1);
  }

  [[nodiscard]] std::uint64_t head_seq(std::uint32_t flow) const noexcept {
    return items_[flows_[flow].head].seq;
  }

  // Oldest request overall: the least head seq over the backlogged flows.
  std::size_t pick_fifo() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < backlogged_.size(); ++i) {
      if (head_seq(backlogged_[i]) < head_seq(backlogged_[best])) best = i;
    }
    return best;
  }

  // Position of the first backlogged flow after the last one served,
  // wrapping in flow-id order: kRoundRobin's pick.
  std::size_t next_after_last() const noexcept {
    const auto it =
        std::upper_bound(backlogged_.begin(), backlogged_.end(), last_flow_);
    return it == backlogged_.end()
               ? 0
               : static_cast<std::size_t>(it - backlogged_.begin());
  }

  // Credit-based weighted round robin. Serve the first backlogged flow after
  // the last one served (wrapping, flow-id order) that still holds credit;
  // when every backlogged flow's credit is spent, recharge each to its
  // weight and take the next flow in rotation. A flow that joins mid-round
  // starts at zero credit and waits for the recharge, so arrival timing
  // cannot buy extra service.
  std::size_t pick_weighted() {
    for (int pass = 0; pass < 2; ++pass) {
      std::size_t pos = next_after_last();
      for (std::size_t n = 0; n < backlogged_.size(); ++n) {
        if (pos == backlogged_.size()) pos = 0;
        Flow& f = flows_[backlogged_[pos]];
        if (f.credit > 0) {
          --f.credit;
          return pos;
        }
        ++pos;
      }
      // All backlogged flows are out of credit: recharge and rescan.
      for (const std::uint32_t flow : backlogged_)
        flows_[flow].credit = flows_[flow].weight;
      ++stats_.credit_recharges;
    }
    return 0;  // unreachable: recharge gives every flow credit
  }

  ArbPolicy policy_;
  std::vector<Flow> flows_;  // indexed by flow id
  std::vector<Item> items_;  // slab of queued (and freed) requests
  std::uint32_t free_ = kNil;  // head of the slab's free list
  // Ids of the flows with queued requests, ascending. At most one entry per
  // queued request, so its length is bounded by the queue depth.
  std::vector<std::uint32_t> backlogged_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint32_t last_flow_ = 0;
  Stats stats_;
};

}  // namespace nectar::cab

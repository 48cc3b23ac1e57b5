// Overload-survival subsystem: the ArbPolicy name map, the kWeightedFair
// service-share property (with fifo/round-robin regression oracles), the
// OverloadManager watermark hysteresis, and end-to-end admission control and
// ECN backpressure over a real two-host transfer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "cab/arbiter.h"
#include "core/netstat.h"
#include "core/testbed.h"
#include "net/ip.h"
#include "overload/ops_console.h"
#include "overload/overload.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

using core::Testbed;
using core::TestbedOptions;
using overload::OverloadConfig;
using overload::OverloadManager;
using overload::Resource;

// ---------------------------------------------------------------- name map

TEST(ArbPolicyNames, RoundTripsEveryPolicy) {
  for (const auto& e : cab::kArbPolicyNames) {
    EXPECT_STREQ(cab::arb_policy_name(e.policy), e.name);
    const auto back = cab::arb_policy_from_name(e.name);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, e.policy);
  }
}

TEST(ArbPolicyNames, UnknownNameIsAnError) {
  EXPECT_FALSE(cab::arb_policy_from_name("fastest").has_value());
  EXPECT_FALSE(cab::arb_policy_from_name("").has_value());
  EXPECT_FALSE(cab::arb_policy_from_name("FIFO").has_value());
}

// ------------------------------------------------------------ weighted fair

struct Req {
  std::uint32_t flow = 0;
  std::uint64_t tag = 0;
};

// Deterministic adversarial arrival schedule: bursty, uneven, flows topped
// up just before they would drain — the pattern that defeats naive DRR.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

TEST(WeightedFair, SharesMatchWeightsWithinOneRechargeRound) {
  // Claim (arbiter.h): between credit recharges, each continuously-backlogged
  // flow is served exactly `weight` times. So after any number of pops with
  // all flows backlogged throughout, flow i's service count differs from the
  // exact proportional share by at most its own weight (one partial round).
  const std::map<std::uint32_t, std::uint32_t> weights = {
      {1, 1}, {2, 2}, {3, 4}, {4, 8}};
  std::uint32_t wsum = 0;
  for (const auto& [f, w] : weights) wsum += w;

  cab::ArbQueue<Req> q(cab::ArbPolicy::kWeightedFair);
  for (const auto& [f, w] : weights) q.set_flow_weight(f, w);

  Lcg rng{2026};
  std::map<std::uint32_t, std::uint64_t> served;
  // Keep every flow backlogged (adversarial arrivals: uneven burst sizes,
  // arbitrary interleave), pop a long service sequence.
  const std::size_t kPops = 6000;
  std::size_t pops = 0;
  while (pops < kPops) {
    for (const auto& [f, w] : weights) {
      const std::size_t burst = 1 + rng.next() % 7;
      for (std::size_t b = 0; b < burst; ++b) q.push(Req{f, pops});
    }
    const std::size_t drain = 1 + rng.next() % 9;
    for (std::size_t d = 0; d < drain && pops < kPops; ++d) {
      // Never let a flow fully drain: backlog continuity is the premise.
      bool all_backlogged = true;
      for (const auto& [f, w] : weights)
        if (q.flow_depth(f) == 0) all_backlogged = false;
      if (!all_backlogged) break;
      ++served[q.pop().flow];
      ++pops;
    }
  }
  ASSERT_EQ(pops, kPops);
  for (const auto& [f, w] : weights) {
    const double exact = static_cast<double>(kPops) * w / wsum;
    EXPECT_LE(std::abs(static_cast<double>(served[f]) - exact),
              static_cast<double>(w) + 1.0)
        << "flow " << f << " served " << served[f] << " expected ~" << exact;
  }
  EXPECT_GT(q.stats().credit_recharges, 0u);
}

TEST(WeightedFair, DrainedFlowForfeitsCredit) {
  // A flow that oscillates idle/backlogged cannot bank service: weight 4
  // flow drains mid-round, rejoins, and must wait for the next recharge
  // behind the backlogged flow's remaining credit.
  cab::ArbQueue<Req> q(cab::ArbPolicy::kWeightedFair);
  q.set_flow_weight(1, 4);
  q.set_flow_weight(2, 4);
  q.push(Req{1, 0});  // flow 1: one request only
  for (int i = 0; i < 8; ++i) q.push(Req{2, 0});
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 9; ++i) order.push_back(q.pop().flow);
  // Flow 1 served once (then drains, forfeiting 3 credits); flow 2 gets the
  // rest without interruption.
  EXPECT_EQ(order[0], 1u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_EQ(order[i], 2u);
}

TEST(WeightedFair, DefaultWeightIsOneAndEqualsRoundRobinShares) {
  // Unweighted flows under kWeightedFair get equal service, like round robin.
  cab::ArbQueue<Req> q(cab::ArbPolicy::kWeightedFair);
  std::map<std::uint32_t, std::uint64_t> served;
  for (int round = 0; round < 50; ++round)
    for (std::uint32_t f = 1; f <= 3; ++f) q.push(Req{f, 0});
  while (!q.empty()) ++served[q.pop().flow];
  EXPECT_EQ(served[1], 50u);
  EXPECT_EQ(served[2], 50u);
  EXPECT_EQ(served[3], 50u);
}

// Regression oracles: the two seed policies must be untouched by the
// weighted-fair machinery (same arrivals, same service order as always).
TEST(WeightedFair, FifoOracleServesArrivalOrder) {
  cab::ArbQueue<Req> q(cab::ArbPolicy::kFifo);
  q.set_flow_weight(2, 100);  // must be ignored under fifo
  Lcg rng{7};
  std::uint64_t tag = 0;
  std::vector<std::uint64_t> popped;
  for (int burst = 0; burst < 40; ++burst) {
    const std::size_t n = 1 + rng.next() % 5;
    for (std::size_t i = 0; i < n; ++i)
      q.push(Req{static_cast<std::uint32_t>(1 + rng.next() % 4), tag++});
    const std::size_t d = rng.next() % (q.size() + 1);
    for (std::size_t i = 0; i < d; ++i) popped.push_back(q.pop().tag);
  }
  while (!q.empty()) popped.push_back(q.pop().tag);
  for (std::size_t i = 0; i < popped.size(); ++i)
    ASSERT_EQ(popped[i], i) << "fifo broke arrival order at pop " << i;
}

TEST(WeightedFair, RoundRobinOracleCyclesFlows) {
  cab::ArbQueue<Req> q(cab::ArbPolicy::kRoundRobin);
  q.set_flow_weight(1, 100);  // must be ignored under round robin
  for (int i = 0; i < 30; ++i)
    for (std::uint32_t f = 1; f <= 3; ++f) q.push(Req{f, 0});
  std::uint32_t expect = 1;
  while (!q.empty()) {
    EXPECT_EQ(q.pop().flow, expect);
    expect = expect == 3 ? 1 : expect + 1;
  }
}

// ------------------------------------------------------ differential oracle

// The arbiter as it was built on ordered maps: one std::deque per backlogged
// flow, credits and weights in maps keyed by flow id. Kept here only as the
// oracle for ArbQueue's slab-and-vector layout, which must make every pick
// this one makes.
template <typename R>
class MapArbQueue {
 public:
  explicit MapArbQueue(cab::ArbPolicy p) : policy_(p) {}
  void set_policy(cab::ArbPolicy p) { policy_ = p; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push(R r) {
    const std::uint32_t flow = r.flow;
    auto& fq = flows_[flow];
    fq.push_back(Item{next_seq_++, std::move(r)});
    ++size_;
    ++stats_.pushes;
    stats_.max_depth = std::max(stats_.max_depth, size_);
    stats_.max_flows = std::max<std::uint64_t>(stats_.max_flows, flows_.size());
    auto& fs = flow_stats_[flow];
    ++fs.pushes;
    fs.max_depth = std::max<std::uint64_t>(fs.max_depth, fq.size());
  }

  R pop() {
    typename FlowMap::iterator it;
    switch (policy_) {
      case cab::ArbPolicy::kRoundRobin: it = pick_round_robin(); break;
      case cab::ArbPolicy::kWeightedFair: it = pick_weighted(); break;
      default: it = pick_fifo(); break;
    }
    R r = std::move(it->second.front().req);
    it->second.pop_front();
    last_flow_ = it->first;
    ++flow_stats_[it->first].pops;
    if (it->second.empty()) {
      credits_.erase(it->first);
      flows_.erase(it);
    }
    --size_;
    ++stats_.pops;
    return r;
  }

  void set_flow_weight(std::uint32_t flow, std::uint32_t weight) {
    weights_[flow] = std::max<std::uint32_t>(weight, 1);
  }
  [[nodiscard]] std::uint32_t flow_weight(std::uint32_t flow) const {
    auto it = weights_.find(flow);
    return it == weights_.end() ? 1 : it->second;
  }
  [[nodiscard]] std::size_t flow_depth(std::uint32_t flow) const {
    auto it = flows_.find(flow);
    return it == flows_.end() ? 0 : it->second.size();
  }

  typename cab::ArbQueue<R>::Stats stats_;
  std::map<std::uint32_t, typename cab::ArbQueue<R>::FlowStats> flow_stats_;

 private:
  struct Item {
    std::uint64_t seq;
    R req;
  };
  using FlowMap = std::map<std::uint32_t, std::deque<Item>>;

  typename FlowMap::iterator pick_fifo() {
    auto best = flows_.begin();
    for (auto it = std::next(flows_.begin()); it != flows_.end(); ++it) {
      if (it->second.front().seq < best->second.front().seq) best = it;
    }
    return best;
  }
  typename FlowMap::iterator pick_round_robin() {
    auto it = flows_.upper_bound(last_flow_);
    if (it == flows_.end()) it = flows_.begin();
    return it;
  }
  typename FlowMap::iterator pick_weighted() {
    for (int pass = 0; pass < 2; ++pass) {
      auto it = flows_.upper_bound(last_flow_);
      for (std::size_t n = 0; n < flows_.size(); ++n) {
        if (it == flows_.end()) it = flows_.begin();
        auto c = credits_.find(it->first);
        if (c != credits_.end() && c->second > 0) {
          --c->second;
          return it;
        }
        ++it;
      }
      for (const auto& [flow, q] : flows_) credits_[flow] = flow_weight(flow);
      ++stats_.credit_recharges;
    }
    return flows_.begin();
  }

  cab::ArbPolicy policy_;
  FlowMap flows_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint32_t last_flow_ = 0;
  std::map<std::uint32_t, std::uint32_t> weights_;
  std::map<std::uint32_t, std::uint64_t> credits_;
};

TEST(ArbQueue, MatchesMapReferenceUnderRandomTraffic) {
  using Q = cab::ArbQueue<Req>;
  constexpr std::uint32_t kFlows = 12;  // ids 0..11, 0 = control traffic
  constexpr std::uint32_t kProbeFlows = kFlows + 4;  // also never-used ids
  const cab::ArbPolicy kPolicies[] = {cab::ArbPolicy::kFifo,
                                      cab::ArbPolicy::kRoundRobin,
                                      cab::ArbPolicy::kWeightedFair};
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 2026ull}) {
    for (const cab::ArbPolicy start : kPolicies) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " start policy "
                                      << cab::arb_policy_name(start));
      Q q(start);
      MapArbQueue<Req> ref(start);
      Lcg rng{seed};
      std::uint64_t tag = 0;
      // A weight set before the flow's first push, another set after it.
      q.set_flow_weight(3, 3);
      ref.set_flow_weight(3, 3);

      const auto check = [&](int step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        const Q::Stats& a = q.stats();
        const Q::Stats& b = ref.stats_;
        ASSERT_EQ(a.pushes, b.pushes);
        ASSERT_EQ(a.pops, b.pops);
        ASSERT_EQ(a.max_depth, b.max_depth);
        ASSERT_EQ(a.max_flows, b.max_flows);
        ASSERT_EQ(a.credit_recharges, b.credit_recharges);
        ASSERT_EQ(q.empty(), ref.empty());
        std::vector<std::uint32_t> visited;
        q.for_each_flow([&](std::uint32_t flow, const Q::FlowStats& fs) {
          visited.push_back(flow);
          const auto it = ref.flow_stats_.find(flow);
          ASSERT_NE(it, ref.flow_stats_.end()) << "flow " << flow;
          EXPECT_EQ(fs.pushes, it->second.pushes) << "flow " << flow;
          EXPECT_EQ(fs.pops, it->second.pops) << "flow " << flow;
          EXPECT_EQ(fs.max_depth, it->second.max_depth) << "flow " << flow;
        });
        std::vector<std::uint32_t> expected;
        for (const auto& [flow, fs] : ref.flow_stats_) expected.push_back(flow);
        ASSERT_EQ(visited, expected);
        for (std::uint32_t f = 0; f < kProbeFlows; ++f) {
          ASSERT_EQ(q.flow_depth(f), ref.flow_depth(f)) << "flow " << f;
          ASSERT_EQ(q.flow_weight(f), ref.flow_weight(f)) << "flow " << f;
        }
      };

      for (int step = 0; step < 3000; ++step) {
        const std::uint64_t op = rng.next() >> 33;
        switch (op % 16) {
          case 0:  // weight change, on a flow that may or may not have queued
          case 1: {
            const auto f = static_cast<std::uint32_t>((rng.next() >> 33) % kProbeFlows);
            const auto w = static_cast<std::uint32_t>((rng.next() >> 33) % 6);  // 0 -> 1
            q.set_flow_weight(f, w);
            ref.set_flow_weight(f, w);
            break;
          }
          case 2: {  // switch policy mid-stream
            const cab::ArbPolicy p = kPolicies[(rng.next() >> 33) % 3];
            q.set_policy(p);
            ref.set_policy(p);
            break;
          }
          case 3: {  // drain everything: every flow leaves and later rejoins
            while (!ref.empty()) {
              const Req a = q.pop();
              const Req b = ref.pop();
              ASSERT_EQ(a.flow, b.flow) << "step " << step;
              ASSERT_EQ(a.tag, b.tag) << "step " << step;
            }
            break;
          }
          default:
            if (op % 2 == 0) {  // burst of pushes over a few flows
              const std::size_t n = 1 + (rng.next() >> 33) % 6;
              for (std::size_t i = 0; i < n; ++i) {
                const auto f = static_cast<std::uint32_t>((rng.next() >> 33) % kFlows);
                q.push(Req{f, tag});
                ref.push(Req{f, tag});
                ++tag;
              }
            } else {  // a few pops
              const std::size_t n = 1 + (rng.next() >> 33) % 5;
              for (std::size_t i = 0; i < n && !ref.empty(); ++i) {
                const Req a = q.pop();
                const Req b = ref.pop();
                ASSERT_EQ(a.flow, b.flow) << "step " << step;
                ASSERT_EQ(a.tag, b.tag) << "step " << step;
              }
            }
            break;
        }
        check(step);
        if (HasFatalFailure()) return;
      }
      // The random policy switches reached weighted fair and its recharges.
      EXPECT_GT(q.stats().credit_recharges, 0u);
    }
  }
}

// ----------------------------------------------------------- watermark core

TEST(OverloadManager, HysteresisTripsHighClearsLow) {
  OverloadManager m;  // nm watermark: high 0.85, low 0.70
  std::uint64_t used = 0;
  m.add_sampler(Resource::kNetMem, [&used] {
    return std::pair<std::uint64_t, std::uint64_t>(used, 100);
  });

  used = 80;  // below high: not overloaded
  m.poll();
  EXPECT_FALSE(m.overloaded());
  used = 90;  // trips
  m.poll();
  EXPECT_TRUE(m.overloaded(Resource::kNetMem));
  used = 75;  // between low and high: hysteresis holds the trip
  m.poll();
  EXPECT_TRUE(m.overloaded(Resource::kNetMem));
  used = 70;  // at low: clears
  m.poll();
  EXPECT_FALSE(m.overloaded());
  EXPECT_EQ(m.stats().enters[1], 1u);
  EXPECT_EQ(m.stats().exits[1], 1u);
}

TEST(OverloadManager, HooksFollowOverloadState) {
  OverloadManager m;
  std::uint64_t used = 0;
  m.add_sampler(Resource::kArbQueue, [&used] {
    return std::pair<std::uint64_t, std::uint64_t>(used, 100);
  });
  EXPECT_TRUE(m.admit_syn());
  EXPECT_TRUE(m.admit_single_copy());
  EXPECT_FALSE(m.mark_ecn());
  used = 100;
  EXPECT_FALSE(m.admit_syn());
  EXPECT_FALSE(m.admit_single_copy());
  EXPECT_TRUE(m.mark_ecn());
  const auto& s = m.stats();
  EXPECT_EQ(s.syn_checks, 2u);
  EXPECT_EQ(s.syn_deferred, 1u);
  EXPECT_EQ(s.sc_deferred, 1u);
  EXPECT_EQ(s.ecn_marked, 1u);
}

TEST(OverloadManager, WorstSamplerWinsAndZeroCapacityIsSkipped) {
  OverloadManager m;
  m.add_sampler(Resource::kNetMem, [] {
    return std::pair<std::uint64_t, std::uint64_t>(10, 100);  // 10%
  });
  m.add_sampler(Resource::kNetMem, [] {
    return std::pair<std::uint64_t, std::uint64_t>(95, 100);  // 95% -> worst
  });
  m.add_sampler(Resource::kNetMem, [] {
    return std::pair<std::uint64_t, std::uint64_t>(7, 0);  // skipped
  });
  m.poll();
  EXPECT_TRUE(m.overloaded(Resource::kNetMem));
  EXPECT_DOUBLE_EQ(m.occupancy(Resource::kNetMem), 0.95);
}

TEST(OverloadManager, DisabledKnobsNeverDeferOrMark) {
  OverloadConfig cfg;
  cfg.admission = false;
  cfg.ecn = false;
  OverloadManager m(cfg);
  m.add_sampler(Resource::kMbufPool, [] {
    return std::pair<std::uint64_t, std::uint64_t>(100, 100);
  });
  EXPECT_TRUE(m.admit_syn());
  EXPECT_TRUE(m.admit_single_copy());
  EXPECT_FALSE(m.mark_ecn());
  EXPECT_EQ(m.stats().syn_deferred, 0u);
  EXPECT_EQ(m.stats().ecn_marked, 0u);
}

// ------------------------------------------------------ end-to-end datapath

// Force permanent mbuf-pool "pressure" (cap 1: any live mbuf is 100%+) so
// the deterministic two-host transfer exercises the hooks without needing a
// real 10x overload (bench/overload does that).
TestbedOptions overloaded_opts(bool admission, bool ecn) {
  TestbedOptions to;
  to.overload = true;
  to.overload_cfg.admission = admission;
  to.overload_cfg.ecn = ecn;
  to.overload_cfg.mbuf_cap = 1;
  return to;
}

TEST(OverloadEndToEnd, EcnMarksEchoAndHalveTheWindow) {
  Testbed tb(overloaded_opts(/*admission=*/false, /*ecn=*/true));
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);

  const std::size_t total = 256 * 1024;
  bool done = false;
  std::size_t got = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, total);
    src.fill_pattern(7);
    (void)co_await c.send(ctx, src.as_uio());
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);

  // Data path: every departing packet was CE-marked at IP output...
  EXPECT_GT(tb.a->stack().ip().stats().ecn_marked, 0u);
  // ...the receiver saw CE on data and echoed ECE on its ACKs...
  EXPECT_GT(s.tcp().stats().ecn_ce_rcvd, 0u);
  // ...and the sender reacted: ECE received, window cut, CWR sent.
  EXPECT_GT(c.tcp().stats().ecn_ece_rcvd, 0u);
  EXPECT_GT(c.tcp().stats().ecn_cwnd_cuts, 0u);
  EXPECT_GT(c.tcp().stats().ecn_cwr_sent, 0u);
  // At most one cut per window in flight: never more cuts than ECE ACKs
  // (equality is legal when ECE episodes arrive more than a window apart).
  EXPECT_LE(c.tcp().stats().ecn_cwnd_cuts, c.tcp().stats().ecn_ece_rcvd);
  // `done` flips while the client is still closing, with mbufs still owned
  // by in-flight DMA completions. Let the teardown finish so nothing is
  // abandoned with the testbed.
  tb.sim.run_until(tb.sim.now() + 5 * sim::kSecond);
  EXPECT_EQ(tb.a->stack().env().pool.in_use(), 0);
  EXPECT_EQ(tb.b->stack().env().pool.in_use(), 0);
}

TEST(OverloadEndToEnd, AdmissionGateDefersSyns) {
  Testbed tb(overloaded_opts(/*admission=*/true, /*ecn=*/false));
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);
  // B's pool is quiet until traffic arrives, so prime its "pressure" with
  // one allocated mbuf (cap is 1).
  mbuf::Mbuf* hold = tb.b->pool().get();

  bool attempted = false;
  bool connected = false;
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    connected = co_await c.connect(ctx, Testbed::kIpB, 9000);
    attempted = true;
  };
  sim::spawn(client());
  tb.run_until_done(attempted, tb.sim.now() + 300 * sim::kSecond);
  ASSERT_TRUE(attempted);
  // Every SYN (first and retransmitted) was deferred at B's gate: the
  // connection never established and the deferrals were counted.
  EXPECT_FALSE(connected);
  EXPECT_GT(tb.b->stack().stats().syn_admission_deferred, 0u);
  EXPECT_EQ(tb.ovl_b->stats().syn_deferred,
            tb.b->stack().stats().syn_admission_deferred);
  EXPECT_EQ(tb.b->stack().tcp_connections().size(), 0u);
  tb.b->pool().free_one(hold);
}

TEST(OverloadEndToEnd, DescriptorGateForcesCopyPath) {
  // Single-copy eligible write under outboard-memory pressure: the
  // descriptor gate must divert chunks to the copy path (sendbuf pushback)
  // instead of staging more outboard data, and the transfer still completes
  // intact. Pressure comes from pinning ~86% of the sender's NetworkMemory
  // (above the 0.85 high watermark, hysteresis clear at 0.70 unreachable),
  // the nm analogue of the held mbuf above — the gate deliberately ignores
  // mbuf pressure, so mbuf_cap stays at its default here.
  TestbedOptions to;
  to.overload = true;
  to.overload_cfg.admission = true;
  to.overload_cfg.ecn = false;
  Testbed tb(to);
  const std::optional<cab::Handle> pin =
      tb.cab_a->device().nm().alloc(3600 * 1024);
  ASSERT_TRUE(pin.has_value());
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::SocketOptions so;
  so.policy = socket::CopyPolicy::kAlwaysSingleCopy;
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp, so);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);

  const std::size_t total = 128 * 1024;
  bool done = false;
  std::size_t got = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, total);
    src.fill_pattern(9);
    (void)co_await c.send(ctx, src.as_uio());
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);
  EXPECT_GT(c.sock_stats().overload_copy_fallbacks, 0u);
  // With nm pinned above the watermark for the whole run, every chunk that
  // asked to stage outboard was diverted, and the manager and the socket
  // layer agree on the count.
  EXPECT_EQ(tb.ovl_a->stats().sc_deferred, c.sock_stats().overload_copy_fallbacks);
  tb.cab_a->device().nm().release(*pin);
}

TEST(OverloadEndToEnd, WeightPlumbsFromSocketOptionsToArbiter) {
  TestbedOptions to;
  to.params_a.cab.sdma.arb = cab::ArbPolicy::kWeightedFair;
  to.params_a.cab.mdma.arb = cab::ArbPolicy::kWeightedFair;
  Testbed tb(to);
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::SocketOptions so;
  so.tcp.arb_weight = 6;
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp, so);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);
  bool done = false;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    (void)co_await s.accept(ctx);
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    (void)co_await c.connect(ctx, Testbed::kIpB, 9000);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 30 * sim::kSecond);
  ASSERT_TRUE(done);
  const std::uint32_t flow = c.tcp().flow_id();
  ASSERT_NE(flow, 0u);
  EXPECT_EQ(tb.cab_a->device().sdma().arb().flow_weight(flow), 6u);
  EXPECT_EQ(tb.cab_a->device().mdma_xmit().arb().flow_weight(flow), 6u);
}

// --------------------------------------------------------------- ops console

TEST(OpsConsole, StreamsDeltasAndWatermarkState) {
  Testbed tb(overloaded_opts(/*admission=*/false, /*ecn=*/true));
  core::OpsConsoleOptions oc;
  oc.period = sim::msec(1.0);
  core::OpsConsole console(tb.sim, oc);
  console.watch(*tb.a);
  console.watch(*tb.b);
  console.start();

  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);
  const std::size_t total = 64 * 1024;
  bool done = false;
  std::size_t got = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, total);
    src.fill_pattern(3);
    (void)co_await c.send(ctx, src.as_uio());
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
  console.stop();
  ASSERT_TRUE(done);

  ASSERT_GT(console.ticks(), 0u);
  ASSERT_EQ(console.json_lines().size(), console.ticks());
  // Every line parses; at least one carries goodput and ECN activity.
  std::int64_t bytes_seen = 0, marks_seen = 0;
  for (const std::string& line : console.json_lines()) {
    const core::Json j = core::Json::parse(line);
    ASSERT_TRUE(j.has("hosts"));
    for (const auto& jh : j.find("hosts")->items()) {
      for (const auto& jc : jh.find("classes")->items())
        bytes_seen += jc.find("bytes_out")->as_int();
      if (const core::Json* jo = jh.find("overload"))
        marks_seen += jo->find("ecn_marked")->as_int();
    }
  }
  EXPECT_GT(bytes_seen, 0);
  EXPECT_GT(marks_seen, 0);
  EXPECT_FALSE(console.last_table().empty());
  EXPECT_NE(console.last_table().find("ops console"), std::string::npos);
}

// --------------------------------------------------------------- reporting

TEST(OverloadNetstat, SectionOnlyWhenEnabledAndCountersExported) {
  Testbed plain;
  EXPECT_FALSE(core::Netstat(*plain.a).json().has("overload"));

  Testbed tb(overloaded_opts(/*admission=*/true, /*ecn=*/true));
  const core::Json j = core::Netstat(*tb.a).json();
  ASSERT_TRUE(j.has("overload"));
  const core::Json* jo = j.find("overload");
  EXPECT_TRUE(jo->has("syn_deferred"));
  EXPECT_TRUE(jo->has("ecn_marked"));
  ASSERT_TRUE(jo->has("resources"));
  EXPECT_EQ(jo->find("resources")->items().size(), 3u);
  // IP/demux/TCP counters appear unconditionally.
  EXPECT_TRUE(j.find("ip")->has("ecn_marked"));
  EXPECT_TRUE(j.find("demux")->has("syn_admission_deferred"));
}

}  // namespace
}  // namespace nectar

// Workload frontend: POSIX-style shim programs (echo, HTTP/1.0, RPC fan-out)
// over the simulated stack, the user-population generator, and pcap trace
// replay. The recurring assertion shape is a byte-conservation identity:
// what one side sent is exactly what the other side counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "apps/ttcp.h"
#include "core/multi_testbed.h"
#include "core/netstat.h"
#include "core/testbed.h"
#include "sim/rng.h"
#include "wload/population.h"
#include "wload/trace_replay.h"
#include "wload/wapps.h"

namespace nectar {
namespace {

// Advance simulated time until `ctl.exited && ctl.active == 0` (bounded).
template <typename Ctl>
void drain_server(core::Testbed& tb, Ctl& ctl) {
  for (int i = 0; i < 1000 && (!ctl.exited || ctl.active != 0); ++i)
    tb.sim.run_until(tb.sim.now() + sim::msec(1.0));
  EXPECT_TRUE(ctl.exited);
  EXPECT_EQ(ctl.active, 0u);
}

TEST(Wload, EchoConservation) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  wload::EchoServerCtl ctl;
  sim::spawn(wload::echo_server(sb, 7, 4, ctl));

  wload::EchoClientResult res;
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    co_await wload::echo_client(sa, core::Testbed::kIpB, 7, 8 * 1024, 4, res);
    ctl.stop = true;
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, 60 * sim::kSecond));

  EXPECT_TRUE(res.ok) << wload::werr_name(res.err);
  EXPECT_EQ(res.bytes_sent, 4u * 8 * 1024);
  // The conservation identity, both ends: client sent == server read,
  // server wrote == client got back, and every byte matched the pattern.
  EXPECT_EQ(res.bytes_echoed, res.bytes_sent);
  EXPECT_EQ(res.mismatches, 0u);
  drain_server(tb, ctl);
  EXPECT_EQ(ctl.conns, 1u);
  EXPECT_EQ(ctl.bytes_in, res.bytes_sent);
  EXPECT_EQ(ctl.bytes_out, res.bytes_echoed);
  // Both shims released every descriptor.
  EXPECT_EQ(sa.open_fds(), 0u);
  EXPECT_EQ(sb.open_fds(), 0u);
}

TEST(Wload, HttpFetchConservation) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  wload::HttpServerCtl ctl;
  const std::vector<std::size_t> sizes{1000, 200 * 1024, 0};
  sim::spawn(wload::http_server(sb, 80, 4, sizes, ctl));

  wload::HttpFetchResult res;
  const std::vector<std::string> paths{"/f0", "/f1", "/f2", "/missing"};
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    co_await wload::http_fetch(sa, core::Testbed::kIpB, 80, paths, res);
    ctl.stop = true;
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, 60 * sim::kSecond));

  EXPECT_EQ(res.requests, 4u);
  EXPECT_EQ(res.ok_200, 3u);  // /f2 is a 200 with an empty body
  EXPECT_EQ(res.not_found, 1u);
  EXPECT_TRUE(res.conserved());
  EXPECT_EQ(res.content_length_sum, 1000u + 200 * 1024 + 0);
  drain_server(tb, ctl);
  EXPECT_EQ(ctl.requests, 4u);
  EXPECT_EQ(ctl.responses_200, 3u);
  EXPECT_EQ(ctl.responses_404, 1u);
  EXPECT_EQ(ctl.body_bytes_out, res.body_bytes);
}

TEST(Wload, RpcFanoutConservation) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  wload::RpcServerCtl ctl;
  sim::spawn(wload::rpc_server(sb, 8100, 8, ctl));

  std::vector<wload::RpcCall> calls;
  std::uint64_t expected = 0;
  for (int k = 0; k < 8; ++k) {
    const std::uint64_t len = 1024u << k;  // 1 KB .. 128 KB
    calls.push_back(wload::RpcCall{core::Testbed::kIpB, 8100, len});
    expected += len;
  }
  wload::RpcFanoutResult res;
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    co_await wload::rpc_fanout(sa, calls, res);
    ctl.stop = true;
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, 120 * sim::kSecond));

  EXPECT_EQ(res.issued, 8u);
  EXPECT_EQ(res.completed, 8u);
  EXPECT_TRUE(res.conserved(expected));
  EXPECT_GT(res.max_latency, 0);
  drain_server(tb, ctl);
  EXPECT_EQ(ctl.calls, 8u);
  EXPECT_EQ(ctl.bad_requests, 0u);
  EXPECT_EQ(ctl.bytes_out, expected);
}

TEST(Wload, WpollTimeoutAndBadFd) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    // A bad fd reports WPOLLNVAL immediately, without consuming the timeout.
    wload::WPollFd bad{42, wload::WPOLLIN, 0};
    const sim::Time t0 = tb.sim.now();
    EXPECT_EQ(co_await sa.wpoll(&bad, 1, sim::msec(10.0)), 1);
    EXPECT_EQ(bad.revents, wload::WPOLLNVAL);
    EXPECT_EQ(tb.sim.now(), t0);

    // An open-but-unconnected fd is never ready: the full timeout elapses.
    const int fd = sa.wsocket();
    EXPECT_GE(fd, 0);
    wload::WPollFd idle{fd, wload::WPOLLIN, 0};
    const sim::Time t1 = tb.sim.now();
    EXPECT_EQ(co_await sa.wpoll(&idle, 1, sim::msec(10.0)), 0);
    EXPECT_GE(tb.sim.now() - t1, sim::msec(10.0));
    EXPECT_EQ(sa.stats().poll_timeouts, 1u);
    co_await sa.wclose(fd);
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, sim::kSecond));
}

TEST(Wload, EphemeralPortExhaustionIsAnError) {
  core::Testbed tb;
  auto& stack = tb.a->stack();
  const net::IpAddr laddr = stack.source_addr_for(core::Testbed::kIpB);

  // Occupy every ephemeral (laddr, lport, faddr, fport) tuple toward the
  // target service, so both the fast per-port pass and the full-tuple
  // fallback come up empty. One idle socket's connection stands in for all
  // 55k bindings — the allocator only consults the table, never the peer.
  socket::Socket placeholder(stack, socket::Socket::Proto::kTcp);
  for (std::uint32_t p = 10000; p < 65536; ++p) {
    stack.tcp_bind(net::ConnKey{laddr, static_cast<std::uint16_t>(p),
                                core::Testbed::kIpB, 9999},
                   &placeholder.tcp());
  }
  EXPECT_EQ(stack.alloc_ephemeral_port(laddr, core::Testbed::kIpB, 9999), 0);
  EXPECT_EQ(stack.stats().eph_port_exhausted, 1u);

  // Through the shim the failure surfaces as EADDRNOTAVAIL, distinct from
  // a refused/unreachable peer, and wconnect never blocks on it.
  wload::Shim sa(*tb.a);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    const int fd = sa.wsocket();
    EXPECT_EQ(co_await sa.wconnect(fd, core::Testbed::kIpB, 9999),
              wload::W_EADDRNOTAVAIL);
    co_await sa.wclose(fd);
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, sim::kSecond));
  EXPECT_EQ(sa.stats().connect_eaddrnotavail, 1u);
  EXPECT_EQ(stack.stats().eph_port_exhausted, 2u);

  // Release the tuples and verify the exhaustion counter persists into
  // netstat's JSON export (run after unbinding so netstat's per-connection
  // walk does not enumerate 55k aliases of the placeholder), and
  // that the allocator recovers once tuples are free again.
  for (std::uint32_t p = 10000; p < 65536; ++p) {
    stack.tcp_unbind(net::ConnKey{laddr, static_cast<std::uint16_t>(p),
                                  core::Testbed::kIpB, 9999});
  }
  const std::string js = core::Netstat(*tb.a).to_json();
  EXPECT_NE(js.find("\"eph_port_exhausted\": 2"), std::string::npos);
  EXPECT_NE(stack.alloc_ephemeral_port(laddr, core::Testbed::kIpB, 9999), 0);
}

TEST(Wload, ConcurrentConnectsNeverShareTheLastFreeTuple) {
  core::Testbed tb;
  auto& stack = tb.a->stack();
  const net::IpAddr laddr = stack.source_addr_for(core::Testbed::kIpB);

  // Occupy every ephemeral tuple toward the service but one, as in
  // EphemeralPortExhaustionIsAnError.
  constexpr std::uint16_t kFree = 40000;
  socket::Socket placeholder(stack, socket::Socket::Proto::kTcp);
  const auto taken = [&](std::uint32_t p) {
    return net::ConnKey{laddr, static_cast<std::uint16_t>(p),
                        core::Testbed::kIpB, 9999};
  };
  for (std::uint32_t p = 10000; p < 65536; ++p)
    if (p != kFree) stack.tcp_bind(taken(p), &placeholder.tcp());

  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  const int lfd = sb.wsocket();
  ASSERT_EQ(sb.wbind(lfd, 9999), 0);
  ASSERT_EQ(sb.wlisten(lfd, 4), 0);

  // Two connects start in the same tick. The free port is reserved only
  // once bound, so exactly one connect may get it; the other finds no tuple
  // left instead of binding the same one twice.
  int rc[2] = {1, 1};
  int finished = 0;
  bool done = false;
  auto conn = [&](int i) -> sim::Task<void> {
    const int fd = sa.wsocket();
    rc[i] = co_await sa.wconnect(fd, core::Testbed::kIpB, 9999);
    co_await sa.wclose(fd);
    done = ++finished == 2;
  };
  sim::spawn(conn(0));
  sim::spawn(conn(1));
  ASSERT_TRUE(tb.run_until_done(done, sim::kSecond));
  EXPECT_EQ(rc[0] + rc[1], wload::W_EADDRNOTAVAIL);
  EXPECT_TRUE(rc[0] == 0 || rc[1] == 0);
  EXPECT_EQ(sa.stats().connect_eaddrnotavail, 1u);
  EXPECT_EQ(sa.stats().connect_refused, 0u);
  EXPECT_EQ(stack.stats().eph_port_exhausted, 1u);

  for (std::uint32_t p = 10000; p < 65536; ++p)
    if (p != kFree) stack.tcp_unbind(taken(p));
  tb.sim.run();  // drain, so no suspended process outlives the testbed
}

// The ephemeral allocator as a naive rotation scan over its own copy of the
// bindings: the port sequence NetStack::alloc_ephemeral_port must reproduce
// exactly, next-port state included.
struct RotationScan {
  std::vector<std::uint32_t> use = std::vector<std::uint32_t>(65536, 0);
  std::set<net::ConnKey> bound;
  std::uint16_t next = 10000;
  std::uint64_t exhausted = 0;

  void bind(const net::ConnKey& k) {
    bound.insert(k);
    ++use[k.lport];
  }
  void unbind(const net::ConnKey& k) {
    if (bound.erase(k) != 0 && use[k.lport] > 0) --use[k.lport];
  }
  std::uint16_t alloc(net::IpAddr laddr, net::IpAddr faddr, std::uint16_t fport) {
    for (int pass = 0; pass < 2; ++pass) {
      for (int tries = 0; tries < 65536 - 10000; ++tries) {
        const std::uint16_t p = next++;
        if (next < 10000) next = 10000;
        if (pass == 0 ? use[p] == 0 : !bound.contains({laddr, p, faddr, fport}))
          return p;
      }
    }
    ++exhausted;
    return 0;
  }
};

TEST(EphemeralPort, BitmapMatchesRotationScan) {
  core::Testbed tb;
  auto& stack = tb.a->stack();
  const net::IpAddr laddr = stack.source_addr_for(core::Testbed::kIpB);
  const net::IpAddr faddr = core::Testbed::kIpB;
  // One idle socket's connection stands in for every binding: the allocator
  // consults only the tables, never the connection.
  socket::Socket placeholder(stack, socket::Socket::Proto::kTcp);
  RotationScan ref;
  sim::Rng rng(99);
  const auto key = [&](std::uint32_t port, std::uint16_t fport) {
    return net::ConnKey{laddr, static_cast<std::uint16_t>(port), faddr, fport};
  };
  const auto bind = [&](const net::ConnKey& k) {
    if (ref.bound.contains(k)) return;
    stack.tcp_bind(k, &placeholder.tcp());
    ref.bind(k);
  };
  const auto unbind = [&](const net::ConnKey& k) {
    stack.tcp_unbind(k);
    ref.unbind(k);
  };
  // Each answer and the one after it match the scan; a nonzero answer is
  // never below the ephemeral range. Returns the first answer.
  std::vector<std::uint16_t> answers;
  const auto alloc_twice = [&](std::uint16_t fport) {
    const std::uint16_t p = stack.alloc_ephemeral_port(laddr, faddr, fport);
    EXPECT_EQ(p, ref.alloc(laddr, faddr, fport));
    const std::uint16_t q = stack.alloc_ephemeral_port(laddr, faddr, fport);
    EXPECT_EQ(q, ref.alloc(laddr, faddr, fport));
    answers.push_back(p);
    answers.push_back(q);
    EXPECT_TRUE(p == 0 || p >= 10000) << p;
    EXPECT_EQ(stack.stats().eph_port_exhausted, ref.exhausted);
    return p;
  };

  // Ports below the range bound by hand (a listener-side tuple) are never
  // handed out, bound or not.
  bind(key(5001, 80));
  bind(key(9999, 80));

  // Sparse random traffic: connects bind what they get, closes unbind.
  std::vector<net::ConnKey> live;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next() % 8;
    if (op < 3) {
      const auto fport = static_cast<std::uint16_t>(80 + rng.next() % 3);
      const std::uint16_t p = alloc_twice(fport);
      ASSERT_NE(p, 0);
      live.push_back(key(p, fport));
      bind(live.back());
    } else if (op < 5) {  // a hand-bound tuple anywhere in the range
      const auto port = static_cast<std::uint32_t>(9990 + rng.next() % 55546);
      live.push_back(key(port, 80));
      bind(live.back());
    } else if (!live.empty()) {
      const std::size_t i = rng.next() % live.size();
      unbind(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (HasFailure()) return;
  }
  unbind(key(9999, 80));
  for (const auto& k : live) unbind(k);
  live.clear();

  // Every port of the range bound toward fport 1 but a few, including the
  // top one: the fast pass hands those out in rotation order and wraps from
  // 65535 to 10000.
  const std::uint32_t kHoles[] = {10000, 10001, 30000, 65534, 65535};
  for (std::uint32_t p = 10000; p < 65536; ++p)
    if (std::find(std::begin(kHoles), std::end(kHoles), p) == std::end(kHoles))
      bind(key(p, 1));
  answers.clear();
  for (int i = 0; i < 10; ++i) {
    const std::uint16_t p = alloc_twice(2);
    if (ref.use[p] != 0) break;  // the fallback answered: no vacancy left
    bind(key(p, 2));
  }
  bool wrapped = false;
  for (std::size_t i = 1; i < answers.size(); ++i)
    wrapped = wrapped || (answers[i - 1] == 65535 && answers[i] < 30000);
  EXPECT_TRUE(wrapped);
  // Now every port carries a binding: the fallback finds free tuples toward
  // a fresh endpoint, then one unbind makes its port the fast pass's answer.
  ASSERT_EQ(ref.bound.size(), 55536u + 1);  // + the hand-bound 5001
  alloc_twice(3);
  unbind(key(20000, 1));
  EXPECT_EQ(alloc_twice(3), 20000);
  bind(key(20000, 1));

  // Seeded churn at the edge: ports come and go while the vacancy count
  // crosses 0, so answers alternate between the two passes.
  for (int step = 0; step < 60; ++step) {
    const auto port = static_cast<std::uint32_t>(10000 + rng.next() % 55536);
    if (step % 3 == 0) {
      unbind(key(port, 1));
    } else {
      const std::uint16_t p = alloc_twice(1);
      if (p != 0) bind(key(p, 1));
    }
    if (HasFailure()) return;
  }

  // True exhaustion toward (faddr, 1): every tuple of the range is taken.
  for (std::uint32_t p = 10000; p < 65536; ++p) bind(key(p, 1));
  const std::uint64_t before = stack.stats().eph_port_exhausted;
  EXPECT_EQ(alloc_twice(1), 0);
  EXPECT_EQ(stack.stats().eph_port_exhausted, before + 2);

  for (const net::ConnKey& k : std::vector<net::ConnKey>(ref.bound.begin(),
                                                          ref.bound.end()))
    unbind(k);
}

wload::PopulationConfig small_population(std::uint64_t seed) {
  wload::PopulationConfig cfg;
  cfg.seed = seed;
  wload::CohortConfig web;
  web.name = "web";
  web.users = 6;
  web.requests_per_user = 3;
  web.pareto_xm = 1024;
  web.size_cap = 64 * 1024;
  web.think_mean = sim::msec(1.0);
  wload::CohortConfig bulk;
  bulk.name = "bulk";
  bulk.users = 2;
  bulk.requests_per_user = 2;
  bulk.pareto_xm = 32 * 1024;
  bulk.size_cap = 256 * 1024;
  bulk.think_mean = sim::msec(2.0);
  cfg.cohorts = {web, bulk};
  // A ramp that loads the "evening" bins, to exercise the diurnal table.
  cfg.diurnal_weights = {1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3,
                         4, 4, 4, 5, 5, 6, 8, 8, 6, 4, 2, 1};
  cfg.arrival_window = sim::msec(5.0);
  return cfg;
}

TEST(Wload, PopulationConservesAndIsSeedStable) {
  core::MultiTestbedOptions mopts;
  mopts.num_pairs = 2;
  mopts.telemetry = true;

  auto run_one = [&]() -> wload::PopulationResult {
    core::MultiTestbed tb(mopts);
    return wload::run_population(tb, small_population(77));
  };
  const wload::PopulationResult r1 = run_one();
  ASSERT_TRUE(r1.completed);
  EXPECT_TRUE(r1.conserved());
  ASSERT_EQ(r1.cohorts.size(), 2u);
  for (const auto& c : r1.cohorts) {
    EXPECT_EQ(c.requests_done,
              static_cast<std::uint64_t>(c.users) * (c.name == "web" ? 3 : 2));
    EXPECT_EQ(c.requests_failed, 0u);
    EXPECT_EQ(c.resp_ns.count(), c.requests_done);
    EXPECT_GT(c.goodput_mbps, 0.0);
    EXPECT_GE(c.resp_ns.percentile(99.9), c.resp_ns.percentile(50));
  }
  EXPECT_EQ(r1.conns_total, 6u * 3 + 2u * 2);
  EXPECT_EQ(r1.eph_port_exhausted, 0u);

  // Same seed, fresh world: byte-identical traffic.
  const wload::PopulationResult r2 = run_one();
  ASSERT_TRUE(r2.completed);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(r1.cohorts[c].bytes_received, r2.cohorts[c].bytes_received);
    EXPECT_EQ(r1.cohorts[c].bytes_expected, r2.cohorts[c].bytes_expected);
    EXPECT_EQ(r1.cohorts[c].resp_ns.sum(), r2.cohorts[c].resp_ns.sum());
  }

  // Different seed: the heavy-tailed sizes actually vary.
  core::MultiTestbed tb3(mopts);
  const wload::PopulationResult r3 =
      wload::run_population(tb3, small_population(78));
  ASSERT_TRUE(r3.completed);
  EXPECT_NE(r1.cohorts[0].bytes_expected, r3.cohorts[0].bytes_expected);
}

TEST(Wload, TraceReplayClosesTheLoop) {
  const std::string path = "wload_replay_roundtrip.pcap";
  std::uint64_t captured_payload = 0;
  {
    core::TestbedOptions opts;
    opts.trace_packets = true;
    core::Testbed tb(opts);
    tb.trace->enable_capture(96);  // deliberately truncating: MSS >> 96
    apps::TtcpConfig cfg;
    cfg.total_bytes = 512 * 1024;
    cfg.write_size = 64 * 1024;
    auto r = apps::run_ttcp(tb, cfg);
    ASSERT_TRUE(r.completed);
    for (const auto& e : tb.trace->entries())
      if (e.proto == net::kProtoTcp && e.payload > 0 && !e.fragment)
        captured_payload += e.payload;
    ASSERT_TRUE(tb.trace->write_pcap(path));
  }

  wload::TraceWorkload wl;
  ASSERT_TRUE(wload::TraceWorkload::from_pcap(path, wl));
  EXPECT_GT(wl.truncated, 0u);  // snaplen 96 cut the data segments
  EXPECT_EQ(wl.undecodable, 0u);  // ...but headers always survived
  ASSERT_EQ(wl.flows.size(), 1u);  // one data-bearing direction (ACKs carry 0)
  EXPECT_EQ(wl.flows[0].bytes, captured_payload);
  EXPECT_GE(wl.flows[0].bytes, 512u * 1024);

  // Re-offer the captured flow over a fresh testbed: every captured payload
  // byte is delivered to the sink, despite the truncated capture.
  core::Testbed tb2;
  const wload::TraceReplayResult rr = wload::run_trace_replay(tb2, wl);
  EXPECT_TRUE(rr.conserved());
  EXPECT_EQ(rr.bytes_delivered, captured_payload);
  EXPECT_GT(rr.makespan, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nectar

// Flow-matrix conformance: the many-flow engine must be exactly
// deterministic (same seed twice → byte-identical per-flow delivery), its
// per-flow counters must be exactly predictable on an unimpaired wire, the
// flows must share the fabric fairly (Jain index), and a SYN storm deeper
// than a Listener's backlog must be counted as listen_overflows and
// recovered by retransmission.
#include <gtest/gtest.h>

#include "apps/flow_matrix.h"
#include "core/netstat.h"
#include "core/testbed.h"
#include "mem/user_buffer.h"
#include "socket/listener.h"

namespace nectar {
namespace {

using apps::FlowMatrixConfig;
using apps::FlowMatrixResult;
using core::MultiTestbed;
using core::MultiTestbedOptions;

FlowMatrixResult run_matrix(std::size_t flows, cab::ArbPolicy arb,
                            std::uint64_t bytes_per_flow = 128 * 1024) {
  MultiTestbedOptions mo;
  mo.num_pairs = std::min<std::size_t>(4, flows);
  mo.arb = arb;
  MultiTestbed tb(mo);
  FlowMatrixConfig cfg;
  cfg.num_flows = flows;
  cfg.bytes_per_flow = bytes_per_flow;
  cfg.verify_data = true;
  return apps::run_flow_matrix(tb, cfg);
}

TEST(FlowMatrix, JainIndexFormula) {
  EXPECT_DOUBLE_EQ(apps::jain_index({}), 0.0);
  EXPECT_DOUBLE_EQ(apps::jain_index({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(apps::jain_index({3.0, 3.0, 3.0, 3.0}), 1.0);
  // One flow took everything: index collapses to 1/n.
  EXPECT_DOUBLE_EQ(apps::jain_index({8.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(FlowMatrix, ExactPerFlowCountersUnimpaired) {
  const std::size_t kFlows = 8;
  const std::uint64_t kBytes = 256 * 1024;
  const auto r = run_matrix(kFlows, cab::ArbPolicy::kFifo, kBytes);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.flows.size(), kFlows);
  EXPECT_EQ(r.total_bytes, kFlows * kBytes);
  for (const auto& f : r.flows) {
    EXPECT_TRUE(f.completed) << "flow " << f.flow;
    EXPECT_EQ(f.bytes, kBytes) << "flow " << f.flow;
    EXPECT_EQ(f.data_errors, 0u) << "flow " << f.flow;
    EXPECT_GT(f.finished, f.established) << "flow " << f.flow;
    EXPECT_GT(f.goodput_mbps, 0.0) << "flow " << f.flow;
    // Clean wire: nothing to retransmit, nothing fails a checksum.
    EXPECT_EQ(f.tx_tcp.rexmt_segs, 0u) << "flow " << f.flow;
    EXPECT_EQ(f.rx_tcp.bad_checksum, 0u) << "flow " << f.flow;
  }
}

TEST(FlowMatrix, SameSeedTwiceIsByteIdentical) {
  for (const std::size_t flows : {std::size_t{2}, std::size_t{16},
                                  std::size_t{64}}) {
    const auto a = run_matrix(flows, cab::ArbPolicy::kRoundRobin, 64 * 1024);
    const auto b = run_matrix(flows, cab::ArbPolicy::kRoundRobin, 64 * 1024);
    ASSERT_TRUE(a.completed) << flows << " flows";
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t i = 0; i < a.flows.size(); ++i) {
      EXPECT_EQ(a.flows[i].bytes, b.flows[i].bytes) << "flow " << i;
      EXPECT_EQ(a.flows[i].established, b.flows[i].established) << "flow " << i;
      EXPECT_EQ(a.flows[i].finished, b.flows[i].finished) << "flow " << i;
      EXPECT_EQ(a.flows[i].tx_tcp.rexmt_segs, b.flows[i].tx_tcp.rexmt_segs)
          << "flow " << i;
    }
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_DOUBLE_EQ(a.jain, b.jain);
  }
}

TEST(FlowMatrix, FairShareOnCleanWire) {
  for (const cab::ArbPolicy arb :
       {cab::ArbPolicy::kFifo, cab::ArbPolicy::kRoundRobin}) {
    const auto r = run_matrix(16, arb, 128 * 1024);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.jain, 0.95) << "policy " << cab::arb_policy_name(arb);
  }
}

TEST(FlowMatrix, ArbitrationQueuesSawEveryFlow) {
  // The round-robin arbiter's own accounting: with 16 flows over 2 pairs,
  // each client CAB's SDMA queue must have served multiple distinct flows.
  MultiTestbedOptions mo;
  mo.num_pairs = 2;
  mo.arb = cab::ArbPolicy::kRoundRobin;
  MultiTestbed tb(mo);
  FlowMatrixConfig cfg;
  cfg.num_flows = 16;
  cfg.bytes_per_flow = 128 * 1024;
  const auto r = apps::run_flow_matrix(tb, cfg);
  ASSERT_TRUE(r.completed);
  for (std::size_t i = 0; i < tb.num_pairs(); ++i) {
    const auto& st = tb.cab_clients[i]->device().sdma().arb().stats();
    EXPECT_GT(st.pushes, 0u) << "client " << i;
    EXPECT_EQ(st.pushes, st.pops) << "client " << i;  // queue drained
    EXPECT_GE(st.max_flows, 2u) << "client " << i;
  }
  // Demux gauges on a server stack: multiple live connections existed and
  // the lookups were overwhelmingly hits.
  const auto& dt = tb.servers[0]->stack().tcp_demux();
  EXPECT_GT(dt.stats().lookups, 0u);
  EXPECT_GT(dt.stats().inserts, 1u);
}

TEST(FlowMatrix, ListenBacklogOverflowIsCountedAndRecovered) {
  // Three simultaneous connects against a backlog-1 Listener: the SYNs that
  // find no armed embryonic socket are dropped as listen_overflows (not
  // no_port) and recovered by SYN retransmission, so all three clients
  // eventually establish and deliver their payload.
  core::Testbed tb;
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  constexpr std::size_t kConns = 3;
  constexpr std::size_t kBytes = 4 * 1024;

  socket::Listener ls(tb.b->stack(), 9000, {}, /*backlog=*/1);
  std::size_t served = 0;
  std::uint64_t got_bytes = 0;
  bool done = false;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    for (std::size_t c = 0; c < kConns; ++c) {
      auto sock = co_await ls.accept();
      if (!sock) co_return;
      mem::UserBuffer dst(pb.as, kBytes);
      std::size_t got = 0;
      while (got < kBytes) {
        const std::size_t n = co_await sock->recv(ctx, dst.as_uio(got));
        if (n == 0) break;
        got += n;
      }
      got_bytes += got;
      ++served;
    }
    done = true;
  };
  std::vector<std::unique_ptr<socket::Socket>> clients;
  auto client = [&](socket::Socket& s) -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await s.connect(ctx, core::Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, kBytes);
    src.fill_pattern(5);
    std::size_t sent = 0;
    while (sent < kBytes) {
      const std::size_t n = co_await s.send(ctx, src.as_uio(sent));
      if (n == 0) break;
      sent += n;
    }
    co_await s.close(ctx);
  };
  sim::spawn(server());
  for (std::size_t c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<socket::Socket>(
        tb.a->stack(), socket::Socket::Proto::kTcp, socket::SocketOptions{}));
    sim::spawn(client(*clients.back()));
  }
  tb.run_until_done(done, 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(served, kConns);
  EXPECT_EQ(got_bytes, kConns * kBytes);
  const auto& st = tb.b->stack().stats();
  // The storm was deeper than the backlog: at least one SYN overflowed, and
  // none of them was misdiagnosed as "no such port".
  EXPECT_GT(st.listen_overflows, 0u);
  EXPECT_EQ(st.no_port, 0u);
  // `done` flips while the clients are still closing and the server's last
  // segment sits in its SDMA engine, whose completion closure owns the mbuf.
  // The server drops its accepted sockets without closing them, so a
  // client's FIN may never be acknowledged; that client gives up after 12
  // retransmissions. The simulator must then drain: nothing re-arms for ever
  // and nothing is abandoned with the testbed.
  tb.sim.run();
  EXPECT_EQ(tb.b->stack().env().pool.in_use(), 0);
  // The client that gave up still holds its unacknowledged bytes until its
  // socket goes; once the sockets are dropped and their zombies reaped, the
  // client's pool is empty too.
  clients.clear();
  tb.sim.run();
  EXPECT_EQ(tb.a->stack().env().pool.in_use(), 0);
}

}  // namespace
}  // namespace nectar

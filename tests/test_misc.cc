// Odds and ends: CPU account reset, netstat sections, kernapp pattern
// helpers, and the wiring invariants every testbed topology shares.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/netstat.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "kernapp/kernel_socket.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

TEST(CpuAccounts, ResetZeroesEverything) {
  sim::Simulator simu;
  sim::Cpu cpu(simu);
  auto a = cpu.make_account("a");
  testutil::run_task_void(simu, cpu.run(sim::usec(50), a));
  EXPECT_GT(cpu.total_busy(), 0);
  cpu.reset_accounts();
  EXPECT_EQ(cpu.busy(a), 0);
  EXPECT_EQ(cpu.total_busy(), 0);
}

TEST(KernappHelpers, PatternChainRoundTrip) {
  sim::Simulator simu;
  mbuf::MbufPool pool(simu);
  mbuf::Mbuf* m = kernapp::make_pattern_chain(pool, 20000, 9, 100);
  EXPECT_EQ(mbuf::m_length(m), 20000);
  EXPECT_EQ(kernapp::verify_pattern_chain(m, 9, 100), 0u);
  EXPECT_GT(kernapp::verify_pattern_chain(m, 9, 101), 0u);  // wrong position
  EXPECT_GT(kernapp::verify_pattern_chain(m, 8, 100), 0u);  // wrong seed
  pool.free_chain(m);
}

TEST(Netstat, SectionsRenderOnFreshHost) {
  sim::Simulator simu;
  core::Host h(simu, core::HostParams::alpha3000_400(), "fresh");
  EXPECT_NE(core::netstat_protocols(h).find("IP:"), std::string::npos);
  EXPECT_NE(core::netstat_memory(h).find("mbufs:"), std::string::npos);
  EXPECT_NE(core::netstat_cpu(h).find("total busy"), std::string::npos);
  EXPECT_NE(core::netstat(h).find("fresh"), std::string::npos);
}

TEST(Testbed, FabricSelectionLayersCorrectly) {
  {
    core::Testbed plain;
    EXPECT_EQ(&plain.fabric(), plain.wire.get());
  }
  {
    core::TestbedOptions o;
    o.loss_rate = 0.1;
    core::Testbed lossy(o);
    EXPECT_EQ(&lossy.fabric(), lossy.lossy.get());
  }
  {
    core::TestbedOptions o;
    o.trace_packets = true;
    o.loss_rate = 0.1;
    core::Testbed both(o);
    EXPECT_EQ(&both.fabric(), both.trace.get());  // trace outermost
  }
  {
    core::TestbedOptions o;
    o.use_switch = true;
    core::Testbed sw(o);
    EXPECT_EQ(&sw.fabric(), sw.sw.get());
  }
  // Every topology stacks the same impairment options into the same chain,
  // and fabric() is its outermost layer. with_partition alone (no windows)
  // still builds the partition layer, for runtime link flaps.
  auto impair = [](core::ImpairmentSpec& o) {
    o.loss_rate = 0.1;
    o.reorder_rate = 0.1;
    o.corrupt_rate = 0.1;
    o.dup_rate = 0.1;
    o.rate_limit_bps = 1e9;
    o.with_partition = true;
  };
  auto check = [](core::FabricChain& tb) {
    std::vector<std::string> kinds;
    for (const hippi::ImpairedFabric* f : tb.impairments())
      kinds.emplace_back(f->kind());
    EXPECT_EQ(kinds, (std::vector<std::string>{"rate_limit", "partition", "loss",
                                               "dup", "reorder", "corrupt"}));
    ASSERT_FALSE(tb.impairments().empty());
    EXPECT_EQ(&tb.fabric(), tb.impairments().front());
  };
  core::TestbedOptions to;
  impair(to);
  core::Testbed t(to);
  check(t);
  core::MultiTestbedOptions mo;
  mo.num_pairs = 1;
  impair(mo);
  core::MultiTestbed m(mo);
  check(m);
  core::ShardedTestbedOptions so;
  so.num_pairs = 1;
  impair(so);
  core::ShardedTestbed s(so);
  check(s);
}

TEST(Testbed, HostsRouteToEachOther) {
  core::Testbed tb;
  auto ra = tb.a->stack().routes().lookup(core::Testbed::kIpB);
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->ifp, tb.cab_a);
  EXPECT_EQ(tb.a->stack().source_addr_for(core::Testbed::kIpB),
            core::Testbed::kIpA);
}

TEST(HostAssembly, ProcessAccountsAreDistinct) {
  sim::Simulator simu;
  core::Host h(simu, core::HostParams::alpha3000_400(), "h");
  auto& p1 = h.create_process("one");
  auto& p2 = h.create_process("two");
  EXPECT_NE(p1.user_acct, p2.user_acct);
  EXPECT_NE(p1.sys_acct, p2.sys_acct);
  EXPECT_EQ(h.cpu().account_name(p1.user_acct), "one.user");
  EXPECT_EQ(h.cpu().account_name(p2.sys_acct), "two.sys");
  // Distinct address spaces with guard semantics.
  const mem::VAddr a1 = p1.as.allocate(64);
  EXPECT_TRUE(p1.as.valid(a1, 64));
  EXPECT_FALSE(p2.as.valid(a1, 64));
}

}  // namespace
}  // namespace nectar

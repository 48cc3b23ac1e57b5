// Table 1's API dimension, measured: copy semantics (user sockets) vs share
// semantics (in-kernel mbuf chains) over the same CAB.
//
// §5: "since the communication API of in-kernel applications often has share
// semantics, with the mbufs being the shared buffers, we automatically get
// single-copy communication with the CAB". Share semantics additionally
// avoids the user-space VM work (pin/unpin/map) and the per-write syscall +
// copy-semantics drain, so its sender efficiency approaches the pure
// per-packet limit — the Shared/Outboard/DMA+C cell of Table 1.
#include <cstdio>

#include "apps/ttcp.h"
#include "harness.h"
#include "kernapp/kernel_socket.h"
#include "socket/listener.h"

using namespace nectar;

namespace {

struct Res {
  double tput = 0, util = 0, eff = 0;
};

Res run_share(std::size_t total) {
  core::Testbed tb;
  auto& pk = tb.a->create_process("kern_tx");  // accounting bucket
  bool done = false;
  core::CpuSnapshot t0, t1;
  std::uint64_t received = 0;

  auto server = [&]() -> sim::Task<void> {
    net::KernCtx ctx{tb.b->intr_acct(), sim::Priority::Kernel};
    socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
    s.listen(5151);
    if (!co_await s.tcp().wait_established()) co_return;
    while (received < total) {
      mbuf::Mbuf* m = co_await s.recv_mbufs(ctx, 256 * 1024);
      if (m == nullptr) break;
      received += static_cast<std::uint64_t>(mbuf::m_length(m));
      tb.b->pool().free_chain(m);  // a sink: drop without conversion
    }
    t1 = core::CpuSnapshot::take(*tb.a);
    done = true;
  };
  auto sender = [&]() -> sim::Task<void> {
    net::KernCtx ctx{pk.sys_acct, sim::Priority::Kernel};
    socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp);
    if (!co_await c.tcp().connect(ctx, core::Testbed::kIpB, 5151)) co_return;
    t0 = core::CpuSnapshot::take(*tb.a);
    std::size_t sent = 0;
    while (sent < total) {
      const std::size_t n = std::min<std::size_t>(64 * 1024, total - sent);
      // Share semantics: the chain IS the buffer; no copy, no VM work.
      mbuf::Mbuf* chain = kernapp::make_pattern_chain(tb.a->pool(), n, 1, sent);
      co_await c.send_mbufs(ctx, chain);
      sent += n;
    }
    co_await c.tcp().close(ctx);
  };
  sim::spawn(server());
  sim::spawn(sender());
  tb.run_until_done(done, 600 * sim::kSecond);

  Res r;
  const auto rep = core::utilization_between(*tb.a, pk, t0, t1);
  r.util = rep.utilization;
  r.tput = sim::throughput_mbps(static_cast<std::int64_t>(received),
                                t1.when - t0.when);
  r.eff = r.util > 0 ? r.tput / r.util : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  nectar::bench::parse(argc, argv, 0);
  const std::size_t total = 16 * 1024 * 1024;
  std::printf("Table 1's API dimension over the CAB (64 KB writes, 16 MB)\n\n");
  std::printf("%-34s %10s %8s %12s\n", "API", "Mbit/s", "util", "efficiency");

  {
    core::Testbed tb;
    apps::TtcpConfig cfg;
    cfg.policy = socket::CopyPolicy::kNeverSingleCopy;
    cfg.write_size = 64 * 1024;
    cfg.total_bytes = total;
    auto r = apps::run_ttcp(tb, cfg);
    std::printf("%-34s %10.1f %8.2f %12.1f\n",
                "copy, no outboard use (Copy_C DMA)", r.throughput_mbps,
                r.sender.utilization, r.sender.efficiency_mbps());
  }
  {
    core::Testbed tb;
    apps::TtcpConfig cfg;
    cfg.policy = socket::CopyPolicy::kAlwaysSingleCopy;
    cfg.write_size = 64 * 1024;
    cfg.total_bytes = total;
    auto r = apps::run_ttcp(tb, cfg);
    std::printf("%-34s %10.1f %8.2f %12.1f\n",
                "copy + outboard (DMA_C + VM work)", r.throughput_mbps,
                r.sender.utilization, r.sender.efficiency_mbps());
  }
  {
    const Res r = run_share(total);
    std::printf("%-34s %10.1f %8.2f %12.1f\n",
                "share, in-kernel (pure DMA_C)", r.tput, r.util, r.eff);
  }

  std::printf("\nEach row strips one cost layer: the software copy+checksum, then\n"
              "the user-space VM work and copy-semantics synchronization. The\n"
              "share row is the efficiency bound of Table 1's Shared column.\n");
  return 0;
}

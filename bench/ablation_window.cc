// Ablation (paper §7.1/§7.2): TCP window size. The paper runs 512 KB windows
// via RFC 1323 window scaling; this sweep shows why — without scaling the
// 64 KB ceiling caps the bandwidth-delay product and with small windows the
// sender idles between ACK clocks. (The paper also observed that *reducing*
// the window slightly increased efficiency via cache effects; our model has
// no cache, so efficiency stays flat — noted in EXPERIMENTS.md.)
#include <cstdio>

#include "apps/experiment.h"
#include "harness.h"

using namespace nectar;

int main(int argc, char** argv) {
  nectar::bench::parse(argc, argv, 0);
  const auto params = core::HostParams::alpha3000_400();
  std::printf("Ablation: TCP window size (single-copy stack, 256 KB writes)\n\n");
  std::printf("%10s %10s %12s %12s\n", "window", "Mbit/s", "utilization",
              "efficiency");
  for (std::size_t kb : {32, 64, 128, 256, 512, 1024}) {
    auto r = apps::run_cell(params, 256 * 1024, 16 * 1024 * 1024,
                            socket::CopyPolicy::kAlwaysSingleCopy, 0, 16 * 1024,
                            kb * 1024);
    std::printf("%8zuKB %10.1f %12.2f %12.1f%s\n", kb, r.throughput_mbps,
                r.sender.utilization, r.sender.efficiency_mbps(),
                r.completed ? "" : "  [INCOMPLETE]");
  }
  std::printf("\nThroughput saturates once the window covers the pipe; window\n"
              "scaling (RFC 1323) is what makes the >64 KB rows possible.\n");
  return 0;
}

// Ablation (paper §2.2, §4.4.3): the auto-DMA threshold L. The CAB DMAs the
// first L words of each arriving packet into preallocated host buffers; a
// packet that fits entirely arrives as plain host data (no copy-out DMA
// needed later), one that doesn't leaves its tail outboard as M_WCAB. L
// therefore sets the receive-side small-packet cutoff: too small and header
// parsing still works but every packet pays a copy-out; too large and small
// packets burn TURBOchannel bandwidth on data the application may not want
// yet. The paper used L = 176 words (704 bytes).
#include <cstdio>

#include "apps/ttcp.h"
#include "harness.h"

using namespace nectar;

int main(int argc, char** argv) {
  nectar::bench::parse(argc, argv, 0);
  std::printf("Ablation: receive auto-DMA threshold L "
              "(single-copy stack, Alpha 3000/400)\n\n");
  std::printf("%10s | %19s | %19s\n", "L (words)", "4 KB writes", "64 KB writes");
  std::printf("%10s | %9s %9s | %9s %9s\n", "", "Mb/s", "rx util", "Mb/s",
              "rx util");
  std::printf("--------------------------------------------------------\n");

  for (std::uint32_t words : {32u, 64u, 176u, 512u, 2048u}) {
    double tput[2], util[2];
    int i = 0;
    for (std::size_t wsize : {4 * 1024, 64 * 1024}) {
      core::Testbed tb;
      tb.cab_a->device().mdma_recv().set_autodma_words(words);
      tb.cab_b->device().mdma_recv().set_autodma_words(words);
      apps::TtcpConfig cfg;
      cfg.policy = socket::CopyPolicy::kAlwaysSingleCopy;
      cfg.write_size = wsize;
      cfg.total_bytes = 4 * 1024 * 1024;
      auto r = apps::run_ttcp(tb, cfg);
      tput[i] = r.throughput_mbps;
      util[i] = r.receiver.utilization;
      ++i;
    }
    std::printf("%10u | %9.1f %9.2f | %9.1f %9.2f%s\n", words, tput[0], util[0],
                tput[1], util[1], words == 176 ? "   <- paper's value" : "");
  }
  std::printf("\nSmall L keeps the auto-DMA cheap but forces copy-out DMAs even\n"
              "for small packets; large L turns small packets into plain host\n"
              "data (the regular-mbuf receive path, SS4.2) at the cost of moving\n"
              "header-only bytes twice for large ones.\n");
  return 0;
}

// Table 1 (paper §6): the host-interface taxonomy of [19] — the per-byte
// operation composition for every (API x checksum placement x adaptor
// architecture) combination, regenerated from the paper's three rules (see
// taxonomy/taxonomy.h).
#include <cstdio>

#include "harness.h"
#include "taxonomy/taxonomy.h"

int main(int argc, char** argv) {
  nectar::bench::parse(argc, argv, 0);
  using namespace nectar::taxonomy;

  std::printf("Table 1: host interface taxonomy — transmit path\n\n");
  std::printf("%s\n", render_table(/*transmit=*/true).c_str());

  std::printf("\nReceive path (verification has no insertion constraint):\n\n");
  std::printf("%s\n", render_table(/*transmit=*/false).c_str());

  // The paper's focus cell: copy-semantics sockets over an adaptor with
  // outboard buffering, DMA, and checksum hardware (the CAB).
  Config cab;
  cab.api = Api::kCopy;
  cab.place = CsumPlace::kHeader;
  cab.movement = Movement::kDma;
  cab.hw_checksum = true;
  cab.buffering = Buffering::kOutboard;
  const Analysis a = analyze(cab);
  std::printf(
      "\nThe paper's cell (copy API, header checksum, outboard DMA+checksum):\n"
      "  transmit: %s   receive: %s\n"
      "  CPU touches per byte: tx=%d rx=%d (single copy: %s/%s)\n",
      ops_string(a.transmit).c_str(), ops_string(a.receive).c_str(),
      a.cpu_touches_tx, a.cpu_touches_rx, a.single_copy_tx ? "yes" : "no",
      a.single_copy_rx ? "yes" : "no");

  // Contrast with the unmodified-BSD cell (no buffering, plain DMA).
  Config bsd = cab;
  bsd.hw_checksum = false;
  bsd.buffering = Buffering::kNone;
  const Analysis b = analyze(bsd);
  std::printf(
      "The unmodified-BSD cell (copy API, header checksum, plain DMA):\n"
      "  transmit: %s   receive: %s\n"
      "  CPU touches per byte: tx=%d rx=%d\n",
      ops_string(b.transmit).c_str(), ops_string(b.receive).c_str(),
      b.cpu_touches_tx, b.cpu_touches_rx);
  return 0;
}

// The vocabulary every testbed shares. Testbed, MultiTestbed and
// ShardedTestbed take the same wire-impairment knobs (ImpairmentSpec) and
// the same per-host features (HostFeatures) as bases of their options, own
// their fabric through one FabricChain, and assemble each host with the same
// two calls (make_host, then attach_host). What stays per topology is the
// host layout and the executor: one sim::Simulator, or a sim::ParallelEngine
// whose hosts reach the fabric shard through ShardUplinks.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/host.h"
#include "hippi/impairment.h"
#include "hippi/link.h"
#include "hippi/switch.h"

namespace nectar::core {

// Wire impairments, layered by FabricChain in one inside-out order:
// corruption innermost (damage happens "on the wire", after loss/dup
// decisions), rate limiting outermost (the bottleneck serializes everything
// submitted to it).
struct ImpairmentSpec {
  double loss_rate = 0.0;       // packet loss on the HIPPI fabric
  std::uint64_t loss_seed = 42;
  double reorder_rate = 0.0;    // fraction of frames held back
  sim::Duration reorder_hold = sim::usec(50.0);
  std::uint64_t reorder_seed = 43;
  double corrupt_rate = 0.0;    // fraction of frames with one bit flipped
  std::uint64_t corrupt_seed = 44;
  double dup_rate = 0.0;        // fraction of frames duplicated
  std::uint64_t dup_seed = 45;
  double rate_limit_bps = 0.0;  // bytes/s bottleneck; 0 = unlimited
  std::size_t rate_limit_burst = 64 * 1024;
  // Blackhole windows [start, end) applied by a PartitionFabric.
  std::vector<std::pair<sim::Time, sim::Time>> partition_windows;
  // Create the PartitionFabric even with no windows, so a FaultInjector can
  // flap the link at runtime (fault::FaultKind::kLinkFlap).
  bool with_partition = false;
};

// Opt-in features of every host in a topology.
struct HostFeatures {
  // Observability: a telemetry::Telemetry registry wired through every host
  // (each host is its own trace process), gauges sampled every tick.
  bool telemetry = false;
  sim::Duration telemetry_tick = sim::usec(100.0);
  // Large-segment offload (TSO/GRO analogue) on every CAB driver.
  bool offload = false;
  drivers::OffloadConfig offload_cfg = {};
  // Overload-survival subsystem (admission control + ECN backpressure): one
  // OverloadManager per host — pressure on one host must not mark or defer
  // another host's traffic.
  bool overload = false;
  overload::OverloadConfig overload_cfg = {};
};

// Owner of a topology's fabric: the inner wire or switch, then one layer per
// enabled impairment. Tests reach into the layers (tb.lossy, tb.corrupt, ...)
// for per-impairment counters.
class FabricChain {
 public:
  std::unique_ptr<hippi::DirectWire> wire;       // inner fabric: a wire...
  std::unique_ptr<hippi::Switch> sw;             // ...or a switch
  std::unique_ptr<hippi::CorruptFabric> corrupt; // when corrupt_rate > 0
  std::unique_ptr<hippi::ReorderFabric> reorder; // when reorder_rate > 0
  std::unique_ptr<hippi::DupFabric> dup;         // when dup_rate > 0
  std::unique_ptr<hippi::LossyFabric> lossy;     // when loss_rate > 0
  std::unique_ptr<hippi::PartitionFabric> partition;  // windows or with_partition
  std::unique_ptr<hippi::RateLimitFabric> rate_limit; // when rate_limit_bps > 0

  // The outermost layer: what the hosts attach to.
  [[nodiscard]] hippi::Fabric& fabric() noexcept { return *outer_; }
  // The active impairments, outermost first (for the JSON stats exporter).
  [[nodiscard]] std::vector<hippi::ImpairedFabric*> impairments() const;

 protected:
  // Create the inner fabric on `sim` (a switch when `use_switch`, else a
  // direct wire) and stack the enabled impairments of `spec` around it.
  void build_impairment_chain(sim::Simulator& sim, bool use_switch,
                              hippi::MacMode mac_mode,
                              const ImpairmentSpec& spec);

  hippi::Fabric* outer_ = nullptr;
};

// Host assembly, in two steps because a topology may register its own
// telemetry (the wire's trace process, the gauge ticker) between them:
// registration order fixes trace process ids and gauge series.
//
// make_host creates the host on `sim` and wires in what must precede its
// devices: telemetry into `tel` (when non-null) and, when f.overload, a new
// OverloadManager returned through `ovl`.
std::unique_ptr<Host> make_host(sim::Simulator& sim, const HostParams& params,
                                std::string name, const HostFeatures& f,
                                telemetry::Telemetry* tel,
                                std::unique_ptr<overload::OverloadManager>& ovl);
// attach_host gives `h` a CAB on `fabric` at (ha, ip), enables offload when
// f.offload, and routes route_net/route_len through it.
drivers::CabDriver& attach_host(Host& h, hippi::Fabric& fabric, hippi::Addr ha,
                                net::IpAddr ip, net::IpAddr route_net,
                                int route_len, const HostFeatures& f,
                                std::size_t mtu = 32 * 1024);

// Register trace process `process` on `tel` with a gauge `gauge` of `sim`'s
// pending events, then start sampling every gauge each `tick`. Returns the
// process id.
int start_sim_gauge(telemetry::Telemetry& tel, sim::Simulator& sim,
                    std::string process, std::string gauge, sim::Duration tick);

// Drive `sim` until `done` is true or `deadline` passes. Returns whether
// `done` fired.
bool run_until_done(sim::Simulator& sim, const bool& done, sim::Time deadline);

}  // namespace nectar::core

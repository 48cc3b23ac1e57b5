// MultiTestbed: the many-flow experiment topology — P client/server host
// pairs on one HIPPI switch, with the same impairment chain Testbed builds.
//
//   client 0 (10.1.0.1) --CAB--+                 +--CAB-- server 0 (10.2.0.1)
//   client 1 (10.1.0.2) --CAB--+--[switch+imps]--+--CAB-- server 1 (10.2.0.2)
//   ...                        +                 +        ...
//
// Flows are multiplexed across the pairs (flow i talks over pair i mod P),
// so "1024 flows" does not mean 1024 hosts: many connections share each
// host's one CAB — its network memory, its SDMA engine, its MDMA
// transmitter — which is exactly the contention this topology exists to
// create. Host count stays small (each CAB carries 4 MB of simulated
// outboard memory).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/topology.h"

namespace nectar::core {

struct MultiTestbedOptions : ImpairmentSpec, HostFeatures {
  std::size_t num_pairs = 4;  // client/server host pairs on the switch
  HostParams params = HostParams::alpha3000_400();
  hippi::MacMode mac_mode = hippi::MacMode::kLogicalChannels;
  // DMA service discipline for every CAB (overrides params.cab.*.arb).
  cab::ArbPolicy arb = cab::ArbPolicy::kFifo;
};

// The client/server host pairs of the many-flow topologies: client i is
// 10.1.x.y at HIPPI address 0x200 + i, server i is 10.2.x.y at 0x400 + i,
// and every CAB knows every peer (flows are usually pairwise, but nothing
// stops an experiment from crossing pairs).
class HostPairs {
 public:
  [[nodiscard]] static net::IpAddr client_ip(std::size_t i) noexcept {
    return net::make_ip(10, 1, static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>((i & 0xff) + 1));
  }
  [[nodiscard]] static net::IpAddr server_ip(std::size_t i) noexcept {
    return net::make_ip(10, 2, static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>((i & 0xff) + 1));
  }

  // Per-host overload managers (when overload): client i, server i, ...
  std::vector<std::unique_ptr<overload::OverloadManager>> overload_mgrs;
  std::vector<std::unique_ptr<Host>> clients;
  std::vector<std::unique_ptr<Host>> servers;
  std::vector<drivers::CabDriver*> cab_clients;
  std::vector<drivers::CabDriver*> cab_servers;

  [[nodiscard]] std::size_t num_pairs() const noexcept { return clients.size(); }

 protected:
  // Where one host lives: its simulator, telemetry registry (or null) and
  // the fabric its CAB attaches to.
  struct Site {
    sim::Simulator& sim;
    telemetry::Telemetry* tel;
    hippi::Fabric& fabric;
  };
  // Build opts.num_pairs pairs; site(server, i) places each host.
  void build_pairs(const MultiTestbedOptions& opts,
                   const std::function<Site(bool server, std::size_t i)>& site);
  // The hosts schedule on the derived testbed's executor, so its destructor
  // calls this while the executor is still alive.
  void destroy_hosts() noexcept;
};

// P client/server pairs on one switch, all on one simulator.
class MultiTestbed : public FabricChain, public HostPairs {
 public:
  explicit MultiTestbed(MultiTestbedOptions opts = {});
  ~MultiTestbed() { destroy_hosts(); }

  sim::Simulator sim;
  MultiTestbedOptions opts;
  std::unique_ptr<telemetry::Telemetry> tel;  // when opts.telemetry

  bool run_until_done(const bool& done, sim::Time deadline) {
    return core::run_until_done(sim, done, deadline);
  }
};

}  // namespace nectar::core

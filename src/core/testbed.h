// Testbed: the standard two-host experiment topology used by the tests,
// benchmarks, and examples.
//
//   host A (10.0.0.1) --CAB-- [HIPPI wire or switch, optional loss] --CAB-- host B (10.0.0.2)
//        \--Ethernet (192.168.1.1) ---- shared segment ---- (192.168.1.2)--/
//
// The Ethernet side (optional) exists to exercise the §5 interop paths: the
// same sockets and the same stack reach both interfaces, chosen by routing.
#pragma once

#include <memory>

#include "core/packet_trace.h"
#include "core/stats.h"
#include "core/topology.h"

namespace nectar::core {

struct TestbedOptions : ImpairmentSpec, HostFeatures {
  HostParams params_a = HostParams::alpha3000_400();
  bool trace_packets = false;  // interpose a PacketTrace on the HIPPI fabric
  HostParams params_b = HostParams::alpha3000_400();
  bool use_switch = false;
  hippi::MacMode mac_mode = hippi::MacMode::kLogicalChannels;
  bool with_ethernet = false;
  double ether_bandwidth_bps = 10e6 / 8.0;  // classic 10 Mbit/s Ethernet
  // Wire MTU of both CAB interfaces (0 = the attach_cab default, 32 KB).
  std::size_t cab_mtu = 0;
};

class Testbed : public FabricChain {
 public:
  explicit Testbed(TestbedOptions opts = {});

  static constexpr net::IpAddr kIpA = net::make_ip(10, 0, 0, 1);
  static constexpr net::IpAddr kIpB = net::make_ip(10, 0, 0, 2);
  static constexpr net::IpAddr kEthA = net::make_ip(192, 168, 1, 1);
  static constexpr net::IpAddr kEthB = net::make_ip(192, 168, 1, 2);
  static constexpr hippi::Addr kHaA = 0x101;
  static constexpr hippi::Addr kHaB = 0x102;

  sim::Simulator sim;
  TestbedOptions opts;

  // Outermost fabric layer when trace_packets (fabric() returns it).
  std::unique_ptr<PacketTrace> trace;
  std::unique_ptr<drivers::EtherSegment> ether;

  std::unique_ptr<telemetry::Telemetry> tel;  // when opts.telemetry
  // Per-host overload managers (when opts.overload).
  std::unique_ptr<overload::OverloadManager> ovl_a;
  std::unique_ptr<overload::OverloadManager> ovl_b;

  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
  drivers::CabDriver* cab_a = nullptr;
  drivers::CabDriver* cab_b = nullptr;
  drivers::EtherDriver* eth_a = nullptr;
  drivers::EtherDriver* eth_b = nullptr;

  bool run_until_done(const bool& done, sim::Time deadline) {
    return core::run_until_done(sim, done, deadline);
  }
};

}  // namespace nectar::core

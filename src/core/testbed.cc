#include "core/testbed.h"

namespace nectar::core {

Testbed::Testbed(TestbedOptions o) : opts(std::move(o)) {
  build_impairment_chain(sim, opts.use_switch, opts.mac_mode, opts);
  if (opts.trace_packets) {
    trace = std::make_unique<PacketTrace>(sim, fabric());
    outer_ = trace.get();
  }

  if (opts.telemetry) tel = std::make_unique<telemetry::Telemetry>(sim);
  a = make_host(sim, opts.params_a, "hostA", opts, tel.get(), ovl_a);
  b = make_host(sim, opts.params_b, "hostB", opts, tel.get(), ovl_b);
  if (tel) {
    const int wire_pid = start_sim_gauge(*tel, sim, "wire",
                                         "sim.pending_events",
                                         opts.telemetry_tick);
    if (wire) wire->set_telemetry(tel.get(), wire_pid);
  }

  const std::size_t mtu = opts.cab_mtu != 0 ? opts.cab_mtu : 32 * 1024;
  const net::IpAddr net10 = net::make_ip(10, 0, 0, 0);
  cab_a = &attach_host(*a, fabric(), kHaA, kIpA, net10, 24, opts, mtu);
  cab_b = &attach_host(*b, fabric(), kHaB, kIpB, net10, 24, opts, mtu);
  cab_a->add_neighbor(kIpB, kHaB);
  cab_b->add_neighbor(kIpA, kHaA);

  if (opts.with_ethernet) {
    ether = std::make_unique<drivers::EtherSegment>(sim, opts.ether_bandwidth_bps);
    eth_a = &a->attach_ether(*ether, kEthA);
    eth_b = &b->attach_ether(*ether, kEthB);
    a->stack().routes().add(net::make_ip(192, 168, 1, 0), 24, eth_a);
    b->stack().routes().add(net::make_ip(192, 168, 1, 0), 24, eth_b);
  }
}

}  // namespace nectar::core

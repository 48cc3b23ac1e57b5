#include "core/multi_testbed.h"

#include <string>

namespace nectar::core {

namespace {
constexpr hippi::Addr kHaClientBase = 0x200;
constexpr hippi::Addr kHaServerBase = 0x400;
}  // namespace

void HostPairs::build_pairs(
    const MultiTestbedOptions& opts,
    const std::function<Site(bool server, std::size_t i)>& site) {
  HostParams hp = opts.params;
  hp.cab.sdma.arb = opts.arb;
  hp.cab.mdma.arb = opts.arb;
  auto make = [&](const Site& s, const std::string& name) {
    std::unique_ptr<overload::OverloadManager> ovl;
    auto h = make_host(s.sim, hp, name, opts, s.tel, ovl);
    if (ovl) overload_mgrs.push_back(std::move(ovl));
    return h;
  };
  for (std::size_t i = 0; i < opts.num_pairs; ++i) {
    const Site cs = site(false, i);
    clients.push_back(make(cs, "client" + std::to_string(i)));
    const Site ss = site(true, i);
    servers.push_back(make(ss, "server" + std::to_string(i)));
    cab_clients.push_back(&attach_host(
        *clients[i], cs.fabric, static_cast<hippi::Addr>(kHaClientBase + i),
        client_ip(i), net::make_ip(10, 2, 0, 0), 16, opts));
    cab_servers.push_back(&attach_host(
        *servers[i], ss.fabric, static_cast<hippi::Addr>(kHaServerBase + i),
        server_ip(i), net::make_ip(10, 1, 0, 0), 16, opts));
  }
  for (std::size_t i = 0; i < opts.num_pairs; ++i) {
    for (std::size_t j = 0; j < opts.num_pairs; ++j) {
      cab_clients[i]->add_neighbor(server_ip(j),
                                   static_cast<hippi::Addr>(kHaServerBase + j));
      cab_servers[i]->add_neighbor(client_ip(j),
                                   static_cast<hippi::Addr>(kHaClientBase + j));
    }
  }
}

void HostPairs::destroy_hosts() noexcept {
  servers.clear();
  clients.clear();
}

MultiTestbed::MultiTestbed(MultiTestbedOptions o) : opts(std::move(o)) {
  if (opts.num_pairs == 0) opts.num_pairs = 1;
  build_impairment_chain(sim, true, opts.mac_mode, opts);
  if (opts.telemetry) tel = std::make_unique<telemetry::Telemetry>(sim);
  build_pairs(opts, [this](bool, std::size_t) {
    return Site{sim, tel.get(), fabric()};
  });
  if (tel) {
    start_sim_gauge(*tel, sim, "sim", "sim.pending_events",
                    opts.telemetry_tick);
  }
}

}  // namespace nectar::core

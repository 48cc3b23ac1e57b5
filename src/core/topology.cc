#include "core/topology.h"

namespace nectar::core {

void FabricChain::build_impairment_chain(sim::Simulator& sim, bool use_switch,
                                         hippi::MacMode mac_mode,
                                         const ImpairmentSpec& spec) {
  if (use_switch) {
    sw = std::make_unique<hippi::Switch>(sim, mac_mode);
    outer_ = sw.get();
  } else {
    wire = std::make_unique<hippi::DirectWire>(sim);
    outer_ = wire.get();
  }
  if (spec.corrupt_rate > 0.0) {
    corrupt = std::make_unique<hippi::CorruptFabric>(
        *outer_, spec.corrupt_rate, spec.corrupt_seed);
    outer_ = corrupt.get();
  }
  if (spec.reorder_rate > 0.0) {
    reorder = std::make_unique<hippi::ReorderFabric>(
        sim, *outer_, spec.reorder_rate, spec.reorder_hold, spec.reorder_seed);
    outer_ = reorder.get();
  }
  if (spec.dup_rate > 0.0) {
    dup = std::make_unique<hippi::DupFabric>(*outer_, spec.dup_rate,
                                             spec.dup_seed);
    outer_ = dup.get();
  }
  if (spec.loss_rate > 0.0) {
    lossy = std::make_unique<hippi::LossyFabric>(*outer_, spec.loss_rate,
                                                 spec.loss_seed);
    outer_ = lossy.get();
  }
  if (!spec.partition_windows.empty() || spec.with_partition) {
    partition = std::make_unique<hippi::PartitionFabric>(sim, *outer_);
    for (const auto& [start, end] : spec.partition_windows)
      partition->add_window(start, end);
    outer_ = partition.get();
  }
  if (spec.rate_limit_bps > 0.0) {
    rate_limit = std::make_unique<hippi::RateLimitFabric>(
        sim, *outer_, spec.rate_limit_bps, spec.rate_limit_burst);
    outer_ = rate_limit.get();
  }
}

std::vector<hippi::ImpairedFabric*> FabricChain::impairments() const {
  std::vector<hippi::ImpairedFabric*> out;
  if (rate_limit) out.push_back(rate_limit.get());
  if (partition) out.push_back(partition.get());
  if (lossy) out.push_back(lossy.get());
  if (dup) out.push_back(dup.get());
  if (reorder) out.push_back(reorder.get());
  if (corrupt) out.push_back(corrupt.get());
  return out;
}

std::unique_ptr<Host> make_host(sim::Simulator& sim, const HostParams& params,
                                std::string name, const HostFeatures& f,
                                telemetry::Telemetry* tel,
                                std::unique_ptr<overload::OverloadManager>& ovl) {
  auto h = std::make_unique<Host>(sim, params, std::move(name));
  if (tel != nullptr) h->set_telemetry(tel);
  if (f.overload) {
    // Before attach_cab: the host registers CAB samplers as devices appear.
    ovl = std::make_unique<overload::OverloadManager>(f.overload_cfg);
    h->set_overload(ovl.get());
  }
  return h;
}

drivers::CabDriver& attach_host(Host& h, hippi::Fabric& fabric, hippi::Addr ha,
                                net::IpAddr ip, net::IpAddr route_net,
                                int route_len, const HostFeatures& f,
                                std::size_t mtu) {
  drivers::CabDriver& cab = h.attach_cab(fabric, ha, ip, mtu);
  if (f.offload) cab.enable_offload(f.offload_cfg);
  h.stack().routes().add(route_net, route_len, &cab);
  return cab;
}

int start_sim_gauge(telemetry::Telemetry& tel, sim::Simulator& sim,
                    std::string process, std::string gauge, sim::Duration tick) {
  const int pid = tel.register_process(std::move(process));
  tel.register_gauge(std::move(gauge), pid, [&sim] {
    return static_cast<double>(sim.pending());
  });
  tel.start_ticker(tick);
  return pid;
}

bool run_until_done(sim::Simulator& sim, const bool& done, sim::Time deadline) {
  while (!done && sim.now() < deadline) {
    if (!sim.step()) break;
    if (sim.now() > deadline) break;
  }
  return done;
}

}  // namespace nectar::core

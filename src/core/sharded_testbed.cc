#include "core/sharded_testbed.h"

#include <string>

namespace nectar::core {

ShardedTestbed::ShardedTestbed(ShardedTestbedOptions o)
    : engine(1 + 2 * (o.num_pairs == 0 ? 1 : o.num_pairs),
             o.wire_hop > 0 ? o.wire_hop : sim::usec(1.0), o.seed),
      opts(std::move(o)) {
  if (opts.num_pairs == 0) opts.num_pairs = 1;
  if (opts.wire_hop <= 0) opts.wire_hop = sim::usec(1.0);
  engine.set_workers(opts.workers);

  build_impairment_chain(engine.sim(kFabricShard), true, opts.mac_mode, opts);

  if (opts.telemetry) {
    tels.resize(engine.num_shards());
    for (std::size_t s = 0; s < engine.num_shards(); ++s) {
      tels[s] = std::make_unique<telemetry::Telemetry>(engine.sim(s));
      // Per-shard queue-depth gauge: epoch imbalance shows up as one shard's
      // pending-events series running hot.
      start_sim_gauge(*tels[s], engine.sim(s), "shard" + std::to_string(s),
                      "shard.pending_events", opts.telemetry_tick);
    }
  }

  build_pairs(opts, [this](bool server, std::size_t i) {
    const std::size_t shard = server ? server_shard(i) : client_shard(i);
    uplinks.push_back(std::make_unique<hippi::ShardUplink>(
        engine, shard, kFabricShard, opts.wire_hop, fabric()));
    return Site{engine.sim(shard), tels.empty() ? nullptr : tels[shard].get(),
                *uplinks.back()};
  });
}

std::vector<const telemetry::Telemetry*> ShardedTestbed::telemetries() const {
  std::vector<const telemetry::Telemetry*> out;
  out.reserve(tels.size());
  for (const auto& t : tels) out.push_back(t.get());
  return out;
}

}  // namespace nectar::core

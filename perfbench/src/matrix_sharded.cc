// matrix_sharded: a flow matrix on core::ShardedTestbed — 32 client/server
// pairs (64 hosts, 65 shards) on one HIPPI switch, 2048 concurrent
// verify_data flows, a seeded 2e-4 frame loss on the fabric, and the
// sim::ParallelEngine on 2 worker threads.
#include <algorithm>
#include <cstdio>

#include "apps/flow_matrix.h"
#include "bench.h"
#include "core/sharded_testbed.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace {

struct MatrixInputs {
  core::ShardedTestbedOptions tb;
  apps::FlowMatrixConfig cfg;
};

MatrixInputs make_inputs(const Options& o) {
  const bool quick = o.scale == Scale::kQuick;
  Gen g(o.seed);
  MatrixInputs in;
  in.tb.num_pairs = quick ? 4 : 32;
  in.tb.workers = o.workers;
  in.tb.arb = cab::ArbPolicy::kRoundRobin;
  in.tb.loss_rate = 2e-4;
  in.tb.loss_seed = g.next();
  in.tb.seed = g.next();
  in.cfg.num_flows = quick ? 64 : 2048;
  // The seed lengthens every flow by 0-768 B (whole 256 B steps). Flow
  // lengths in some other 256 B steps of 60-62 KB land in a different
  // segment-batching regime that shifts every completion time by ~15%, so
  // the band is kept to one regime: the seed changes the inputs without
  // changing what the workload measures.
  in.cfg.bytes_per_flow = (quick ? 24 * 1024 : 60 * 1024) + g.range(0, 3) * 256;
  in.cfg.verify_data = true;
  in.cfg.pattern_seed = static_cast<std::uint32_t>(g.next());
  // Provision the CABs for the flow multiplex, as the flow-scaling bench
  // does: DMA request slots and outboard memory for every flow a pair
  // carries (a refused DMA post is a driver error, not backpressure).
  const std::size_t per_pair =
      (in.cfg.num_flows + in.tb.num_pairs - 1) / in.tb.num_pairs;
  in.tb.params.cab.sdma.queue_depth =
      std::max(in.tb.params.cab.sdma.queue_depth, 8 * per_pair);
  in.tb.params.cab.memory_bytes =
      std::max(in.tb.params.cab.memory_bytes, per_pair * 256 * 1024);
  return in;
}

// Engine counters of one round, summed over shards.
struct EngineCounters {
  double epochs = 0, events = 0, cancelled = 0, compactions = 0;
  double posts_out = 0, posts_in = 0, busy_epochs = 0, max_pending = 0;
  double shards = 0;
};

EngineCounters engine_counters(const sim::ParallelEngine& eng) {
  EngineCounters e;
  e.epochs = static_cast<double>(eng.epochs());
  e.events = static_cast<double>(eng.total_events());
  e.shards = static_cast<double>(eng.num_shards());
  for (std::size_t s = 0; s < eng.num_shards(); ++s) {
    const sim::Shard& sh = eng.shard(s);
    e.cancelled += static_cast<double>(sh.sim.events_cancelled());
    e.compactions += static_cast<double>(sh.sim.compactions());
    e.posts_out += static_cast<double>(sh.posts_out);
    e.posts_in += static_cast<double>(sh.posts_in);
    e.busy_epochs += static_cast<double>(sh.busy_epochs);
    e.max_pending = std::max(e.max_pending, static_cast<double>(sh.max_pending));
  }
  return e;
}

}  // namespace

void run_matrix_sharded(const Options& o, Report& rep) {
  const MatrixInputs in = make_inputs(o);
  Tracer tracer;

  apps::FlowMatrixResult first;
  bool have_first = false;
  bool counted = false;
  bool staged = false;
  LayerCounters layers;
  StageHists stages;
  EngineCounters eng;
  std::vector<double> netstat_ms;
  double loss_drops = 0, timewait_peak = 0, rexmt = 0;

  const RoundLog log = run_rounds(o, rep, tracer, o.workers, RefShare::kBetween, [&](Tracer* tr) {
    const bool traced = tr != nullptr;
    const Scope round(tr, "round", Tracer::kNone);
    const bool count = !traced && !counted;
    RoundResult res;

    core::ShardedTestbedOptions to = in.tb;
    to.telemetry = traced;
    const auto b0 = cold_start();
    std::unique_ptr<core::ShardedTestbed> tb;
    {
      const Scope s(tr, "testbed_build", round.id());
      tb = std::make_unique<core::ShardedTestbed>(to);
    }
    res.setup_s.push_back(seconds_since(b0));
    for (auto& t : tb->tels) t->set_max_events(0);  // stage histograms only

    const CostMeter meter;
    apps::FlowMatrixResult r;
    {
      const Scope s(tr, "run_flow_matrix", round.id());
      r = apps::run_flow_matrix(*tb, in.cfg);
    }
    res.cost = meter.stop();

    std::uint64_t failed = 0;
    double round_rexmt = 0;
    core::Json fct = core::Json::array();
    for (const apps::FlowStats& f : r.flows) {
      if (!f.completed || f.data_errors != 0 || f.bytes != in.cfg.bytes_per_flow)
        ++failed;
      round_rexmt += static_cast<double>(f.tx_tcp.rexmt_segs + f.rx_tcp.rexmt_segs);
      fct.push_back(static_cast<std::int64_t>(f.finished - f.established));
    }
    if (r.flows.size() != in.cfg.num_flows) {
      failed = in.cfg.num_flows;
      rep.fail("flow matrix returned " + std::to_string(r.flows.size()) + " flows");
    }
    if (failed != 0) {
      rep.fail(std::to_string(failed) + " of " + std::to_string(in.cfg.num_flows) +
               " flows incomplete or corrupted");
    }
    rep.ops(in.cfg.num_flows, failed);

    const EngineCounters e = engine_counters(tb->engine);
    if (e.posts_out != e.posts_in) {
      rep.fail("engine lost cross-shard messages: " + std::to_string(e.posts_out) +
               " posted, " + std::to_string(e.posts_in) + " received");
    }
    double drops = 0;
    if (tb->lossy) {
      for (const auto& [name, v] : tb->lossy->counters())
        if (name == "dropped") drops += static_cast<double>(v);
    }

    if (count) {
      eng = e;
      loss_drops = drops;
      rexmt = round_rexmt;
      for (std::size_t p = 0; p < tb->num_pairs(); ++p) {
        for (core::Host* h : {tb->clients[p].get(), tb->servers[p].get()}) {
          timewait_peak += static_cast<double>(h->stack().timewait_count());
          layers.add_host(*h, netstat_ms);
        }
      }
      counted = true;
    } else if (traced) {
      const Scope s(tr, "netstat_json", round.id());
      for (std::size_t p = 0; p < tb->num_pairs(); ++p) {  // timed only
        LayerCounters().add_host(*tb->clients[p], netstat_ms);
        LayerCounters().add_host(*tb->servers[p], netstat_ms);
      }
    }
    if (traced && !staged) {
      for (const telemetry::Telemetry* t : tb->telemetries()) stages.add(*t);
      staged = true;
    }

    res.sim.set("completed", r.completed);
    res.sim.set("total_bytes", r.total_bytes);
    res.sim.set("elapsed_ns", static_cast<std::int64_t>(r.elapsed));
    res.sim.set("aggregate_mbps", r.aggregate_mbps);
    res.sim.set("jain", r.jain);
    res.sim.set("rexmt", round_rexmt);
    res.sim.set("loss_drops", drops);
    res.sim.set("flow_completion_ns", std::move(fct));
    if (!have_first) {
      first = std::move(r);
      have_first = true;
    }
    {
      const Scope s(tr, "testbed_teardown", round.id());
      tb.reset();
    }
    return res;
  });

  // --- end to end -----------------------------------------------------------
  emit_host_metrics(rep, log);
  // Goodput and fairness are taken over flow lifetimes, so a lost frame that
  // stalls one flow for a retransmission timeout moves them by its share of
  // the flows, not by the whole makespan.
  std::vector<double> fct_ms;
  std::vector<sim::Time> established;
  std::vector<double> pair_bytes(in.tb.num_pairs, 0), pair_s(in.tb.num_pairs, 0);
  double bytes = 0, lifetime_s = 0;
  for (const apps::FlowStats& f : first.flows) {
    const double s = sim::to_seconds(f.finished - f.established);
    fct_ms.push_back(s * 1e3);
    established.push_back(f.established);
    bytes += static_cast<double>(f.bytes);
    lifetime_s += s;
    pair_bytes[f.flow % in.tb.num_pairs] += static_cast<double>(f.bytes);
    pair_s[f.flow % in.tb.num_pairs] += s;
  }
  std::vector<double> pair_goodput;
  for (std::size_t p = 0; p < in.tb.num_pairs; ++p)
    pair_goodput.push_back(ratio(pair_bytes[p], pair_s[p]));
  rep.set("sim_goodput_mbps", ratio(bytes * 8.0, lifetime_s) * 1e-6);
  // Every host runs the same stack, so there is no second stack to compare.
  rep.set("sim_efficiency_ratio", 1.0);
  rep.set("sim_jain", apps::jain_index(pair_goodput));
  rep.set("sim_op_p50_ms", percentile(fct_ms, 0.50));
  rep.set("sim_op_p99_ms", percentile(fct_ms, 0.99));
  rep.set("ops.sim_op_samples", static_cast<double>(fct_ms.size()));
  rep.set("sim_conns_per_s", conn_rate_p99(std::move(established)));

  // --- per layer ------------------------------------------------------------
  const double wall = median(log.wall_untraced);
  const double cpu = median(log.cpu_untraced);
  const double shard_epochs = eng.shards * eng.epochs;
  emit_layer_counters(rep, layers);
  emit_stage_metrics(rep, stages);
  rep.set("sim.events", eng.events);
  rep.set("sim.wall_ns_per_event", ratio(wall * 1e9, eng.events));
  rep.set("sim.events_cancelled", eng.cancelled);
  rep.set("sim.event_compactions", eng.compactions);
  rep.set("engine.workers", static_cast<double>(in.tb.workers));
  rep.set("engine.epochs", eng.epochs);
  rep.set("engine.events_per_epoch", ratio(eng.events, eng.epochs));
  rep.set("engine.shard_epochs", shard_epochs);
  rep.set("engine.busy_shard_epochs", eng.busy_epochs);
  rep.set("engine.busy_shard_frac", ratio(eng.busy_epochs, shard_epochs));
  rep.set("engine.cross_msgs", eng.posts_out);
  rep.set("engine.msgs_per_epoch", ratio(eng.posts_out, eng.epochs));
  rep.set("engine.max_shard_pending", eng.max_pending);
  rep.set("engine.wall_us_per_epoch", ratio(wall * 1e6, eng.epochs));
  rep.set("engine.cpu_over_wall", ratio(cpu, wall));
  rep.set("net.tcp_rexmt", rexmt);
  rep.set("net.timewait_peak", timewait_peak);
  rep.set("hippi.loss_drops", loss_drops);
  rep.set("core.build_s", median(log.setup_s));
  rep.set("core.netstat_json_ms", median(netstat_ms));
  rep.set("core.netstat_exports", static_cast<double>(netstat_ms.size()));
  finish_trace(o, rep, tracer);
}

}  // namespace perfbench

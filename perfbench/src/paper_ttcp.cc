// paper_ttcp: the paper's Figure 5 sweep. One ttcp transfer per cell on a
// fresh two-host core::Testbed, write sizes 1 KB .. 256 KB, the unmodified
// (kNeverSingleCopy) and single-copy (kAlwaysSingleCopy) stacks alternating.
// One connection at a time, no parallel engine; every received byte is
// pattern-checked.
#include <algorithm>
#include <cstdio>

#include "apps/ttcp.h"
#include "bench.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace {

struct Cell {
  std::size_t write_size;
  bool single_copy;
  std::uint64_t total_bytes;
  std::uint32_t pattern_seed;
};

std::vector<Cell> make_cells(const Options& o) {
  const std::uint64_t base = o.scale == Scale::kQuick ? (1u << 20) : (8u << 20);
  Gen g(o.seed);
  std::vector<Cell> cells;
  for (std::size_t kb = 1; kb <= 256; kb *= 4) {
    for (const bool single : {false, true}) {
      // The seed lengthens each transfer by up to 1/64 (whole KB) and picks
      // its data pattern.
      const std::uint64_t extra = g.range(0, base / 64 / 1024) * 1024;
      cells.push_back(Cell{kb * 1024, single, base + extra,
                           static_cast<std::uint32_t>(g.next())});
    }
  }
  return cells;
}

// What one cell simulated; identical in every round.
struct CellOut {
  std::uint64_t bytes = 0;
  sim::Duration elapsed = 0;
  double efficiency = 0.0;  // sender Mb/s per unit of CPU utilization
};

}  // namespace

void run_paper_ttcp(const Options& o, Report& rep) {
  const std::vector<Cell> cells = make_cells(o);
  Tracer tracer;
  const std::uint32_t ttcp_span = tracer.intern("run_ttcp");

  std::vector<CellOut> out(cells.size());
  bool counted = false;  // per-layer counters come from the first untraced round
  bool staged = false;   // stage latencies from the first traced round
  LayerCounters layers;
  StageHists stages;
  std::vector<double> netstat_ms, copy_wall, single_wall;
  double events = 0, cancelled = 0, compactions = 0, rexmt = 0;
  double copy_writes = 0, single_writes = 0, timewait_peak = 0;

  const RoundLog log = run_rounds(o, rep, tracer, 1, RefShare::kBetween, [&](Tracer* tr) {
    const bool traced = tr != nullptr;
    const Scope round(tr, "round", Tracer::kNone);
    const bool count = !traced && !counted;
    RoundResult res;
    core::Json sim_cells = core::Json::array();
    double stack_wall[2] = {0, 0};
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      core::TestbedOptions to;
      to.telemetry = traced;
      const auto b0 = cold_start();
      std::unique_ptr<core::Testbed> tb;
      {
        const Scope s(tr, "testbed_build", round.id(), i);
        tb = std::make_unique<core::Testbed>(to);
      }
      res.setup_s.push_back(seconds_since(b0));
      if (tb->tel) tb->tel->set_max_events(0);  // stage histograms only

      apps::TtcpConfig cfg;
      cfg.write_size = c.write_size;
      cfg.total_bytes = c.total_bytes;
      cfg.policy = c.single_copy ? socket::CopyPolicy::kAlwaysSingleCopy
                                 : socket::CopyPolicy::kNeverSingleCopy;
      cfg.verify_data = true;
      cfg.pattern_seed = c.pattern_seed;
      cfg.tcp.sndbuf = 512 * 1024;  // the paper's 512 KB window
      cfg.tcp.rcvbuf = 512 * 1024;

      const CostMeter meter;
      const std::uint32_t span =
          tr != nullptr ? tr->begin(ttcp_span, round.id(), i, tb->sim.now()) : 0;
      const apps::TtcpResult r = apps::run_ttcp(*tb, cfg);
      if (tr != nullptr) tr->end(span, tb->sim.now());
      const RoundCost cost = meter.stop();
      res.cost.wall_s += cost.wall_s;
      res.cost.cpu_s += cost.cpu_s;
      stack_wall[c.single_copy ? 1 : 0] += cost.wall_s;

      if (!r.completed || r.data_errors != 0 || r.bytes != c.total_bytes) {
        ++failed;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "cell %zu (write %zu, %s): completed=%d bytes=%llu/%llu "
                      "data_errors=%llu",
                      i, c.write_size, c.single_copy ? "single-copy" : "unmodified",
                      r.completed ? 1 : 0, static_cast<unsigned long long>(r.bytes),
                      static_cast<unsigned long long>(c.total_bytes),
                      static_cast<unsigned long long>(r.data_errors));
        rep.fail(buf);
      }
      out[i] = CellOut{r.bytes, r.elapsed, r.sender.efficiency_mbps()};

      core::Json jc = core::Json::object();
      jc.set("write_size", static_cast<std::uint64_t>(c.write_size));
      jc.set("single_copy", c.single_copy);
      jc.set("bytes", r.bytes);
      jc.set("elapsed_ns", static_cast<std::int64_t>(r.elapsed));
      jc.set("mbps", r.throughput_mbps);
      jc.set("sender_util", r.sender.utilization);
      jc.set("rexmt", r.sender_tcp.rexmt_segs);
      sim_cells.push_back(std::move(jc));

      if (count) {
        events += static_cast<double>(tb->sim.events_processed());
        cancelled += static_cast<double>(tb->sim.events_cancelled());
        compactions += static_cast<double>(tb->sim.compactions());
        rexmt += static_cast<double>(r.sender_tcp.rexmt_segs +
                                     r.receiver_tcp.rexmt_segs);
        copy_writes += static_cast<double>(r.sender_sock.copy_writes);
        single_writes += static_cast<double>(r.sender_sock.single_copy_writes);
        timewait_peak = std::max(
            timewait_peak, static_cast<double>(tb->a->stack().timewait_count() +
                                               tb->b->stack().timewait_count()));
        layers.add_host(*tb->a, netstat_ms);
        layers.add_host(*tb->b, netstat_ms);
      } else if (traced) {
        const Scope s(tr, "netstat_json", round.id(), i);
        LayerCounters().add_host(*tb->a, netstat_ms);  // timed only
        LayerCounters().add_host(*tb->b, netstat_ms);
      }
      if (traced && !staged) stages.add(*tb->tel);
    }
    if (traced) staged = true;
    if (count) counted = true;
    if (!traced) {
      copy_wall.push_back(stack_wall[0]);
      single_wall.push_back(stack_wall[1]);
    }
    rep.ops(cells.size(), failed);
    res.sim.set("cells", std::move(sim_cells));
    return res;
  });

  // --- end to end -----------------------------------------------------------
  emit_host_metrics(rep, log);
  std::uint64_t bytes = 0;
  sim::Duration elapsed = 0;
  std::vector<double> cell_ms;
  double eff_unmod = 0, eff_single = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bytes += out[i].bytes;
    elapsed += out[i].elapsed;
    cell_ms.push_back(sim::to_seconds(out[i].elapsed) * 1e3);
    if (cells[i].write_size == 256 * 1024)
      (cells[i].single_copy ? eff_single : eff_unmod) = out[i].efficiency;
  }
  rep.set("sim_goodput_mbps",
          sim::throughput_mbps(static_cast<std::int64_t>(bytes), elapsed));
  rep.set("sim_efficiency_ratio", ratio(eff_single, eff_unmod));
  // One connection per cell: nothing shares the wire, so the index is 1.
  rep.set("sim_jain", 1.0);
  rep.set("sim_op_p50_ms", percentile(cell_ms, 0.50));
  rep.set("sim_op_p99_ms", percentile(cell_ms, 0.99));
  rep.set("ops.sim_op_samples", static_cast<double>(cell_ms.size()));
  rep.set("sim_conns_per_s",
          ratio(static_cast<double>(cells.size()), sim::to_seconds(elapsed)));

  // --- per layer ------------------------------------------------------------
  emit_layer_counters(rep, layers);
  emit_stage_metrics(rep, stages);
  rep.set("sim.events", events);
  rep.set("sim.wall_ns_per_event", ratio(median(log.wall_untraced) * 1e9, events));
  rep.set("sim.events_cancelled", cancelled);
  rep.set("sim.event_compactions", compactions);
  rep.set("socket.copy_writes", copy_writes);
  rep.set("socket.single_copy_writes", single_writes);
  rep.set("socket.copy_stack_wall_s", median(copy_wall));
  rep.set("socket.single_copy_stack_wall_s", median(single_wall));
  rep.set("net.tcp_rexmt", rexmt);
  rep.set("net.timewait_peak", timewait_peak);
  rep.set("core.build_s", median(log.setup_s));
  rep.set("core.netstat_json_ms", median(netstat_ms));
  rep.set("core.netstat_exports", static_cast<double>(netstat_ms.size()));
  finish_trace(o, rep, tracer);
}

}  // namespace perfbench

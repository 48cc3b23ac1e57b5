// conn_churn: the control plane under connection churn on core::Testbed.
// One client IP ramps more than 55 536 concurrent connections across a few
// server ports — past the ephemeral-port allocator's fast pass — then every
// connection does one small request/response exchange while all are open,
// then all close and TIME-WAIT drains. Almost no bytes, no engine.
//
// The connectors allocate their local ports themselves
// (net::NetStack::alloc_ephemeral_port) and pass them to Socket::connect, so
// the allocator is timed from outside, call by call, in traced rounds.
#include <algorithm>
#include <cstdio>

#include "apps/flow_matrix.h"
#include "bench.h"
#include "core/testbed.h"
#include "socket/listener.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace {

constexpr std::uint16_t kPortBase = 6001;
// Host seconds between reference-kernel runs inside an untraced round.
constexpr double kRefInterval_s = 0.2;

struct ChurnInputs {
  std::size_t conns = 0;
  std::size_t nports = 4;
  std::size_t concurrency = 32;  // connector / exchanger / closer coroutines each
  int backlog = 256;
  std::vector<std::uint8_t> port_idx;  // server port of each connection
  std::vector<std::uint16_t> req, resp;  // exchange sizes, bytes
  std::uint32_t pattern_seed = 0;
};

ChurnInputs make_inputs(const Options& o) {
  ChurnInputs in;
  // 66 000 > 55 536 ephemeral ports: the last 10 464 connects need the
  // allocator's full-tuple fallback.
  in.conns = o.scale == Scale::kQuick ? 2000 : 66000;
  Gen g(o.seed);
  in.pattern_seed = static_cast<std::uint32_t>(g.next());
  in.port_idx.resize(in.conns);
  in.req.resize(in.conns);
  in.resp.resize(in.conns);
  for (std::size_t i = 0; i < in.conns; ++i) {
    in.port_idx[i] = static_cast<std::uint8_t>(g.range(0, in.nports - 1));
    in.req[i] = static_cast<std::uint16_t>(g.range(48, 80));     // ~64 B in
    in.resp[i] = static_cast<std::uint16_t>(g.range(896, 1152));  // ~1 KB out
  }
  return in;
}

// Everything one round's coroutines share.
struct Churn {
  Churn(const ChurnInputs& in, core::Testbed& tb, Tracer* tr)
      : in(in), tb(tb), tr(tr), tx(in.conns), rx(in.conns), lport(in.conns, 0),
        failed(in.conns, 0), latency(in.conns, 0),
        established(in.conns, 0), unbound(in.nports * 65536u, 0),
        alloc_span(tr != nullptr ? tr->intern("alloc_ephemeral_port") : 0),
        connect_span(tr != nullptr ? tr->intern("connect") : 0),
        exchange_span(tr != nullptr ? tr->intern("exchange") : 0),
        close_span(tr != nullptr ? tr->intern("close") : 0),
        close_peer_span(tr != nullptr ? tr->intern("close_peer") : 0) {}

  const ChurnInputs& in;
  core::Testbed& tb;
  Tracer* tr;
  RefSampler* ref = nullptr;  // untraced rounds: the reference kernel, spread out
  std::uint32_t phase = Tracer::kNone;  // parent span of the current phase

  std::vector<std::unique_ptr<socket::Socket>> tx;  // client side, by connection
  std::vector<std::unique_ptr<socket::Socket>> rx;  // server side, by connection
  std::vector<std::unique_ptr<socket::Socket>> accepted;  // in accept order
  std::vector<std::uint16_t> lport;
  std::vector<std::uint8_t> failed;
  std::vector<sim::Duration> latency;  // exchange, simulated
  std::vector<sim::Time> established;  // connect() returned
  // (server port index, local port) tuples allocated but not yet bound.
  std::vector<std::uint8_t> unbound;
  std::uint64_t alloc_unbound_dups = 0;

  std::size_t pending = 0;  // coroutines still running in the current phase
  bool done = false;
  std::uint64_t accept_failures = 0;

  std::uint32_t alloc_span, connect_span, exchange_span, close_span,
      close_peer_span;

  void finished() {
    if (--pending == 0) done = true;
  }
  void poll_ref() {
    if (ref != nullptr) ref->poll();
  }
  std::uint32_t begin(std::uint32_t name, std::size_t i) {
    return tr != nullptr ? tr->begin(name, phase, i, tb.sim.now()) : 0;
  }
  void end(std::uint32_t id) {
    if (tr != nullptr) tr->end(id, tb.sim.now());
  }
  // Run the spawned phase to completion.
  bool run_phase() {
    done = pending == 0;
    return tb.run_until_done(done, tb.sim.now() + 600 * sim::kSecond);
  }
};

sim::Task<void> connector(Churn& c, core::Host::Process& proc, std::size_t w) {
  auto ctx = proc.ctx();
  net::NetStack& stack = c.tb.a->stack();
  const net::IpAddr laddr = stack.source_addr_for(core::Testbed::kIpB);
  for (std::size_t i = w; i < c.in.conns; i += c.in.concurrency) {
    c.poll_ref();
    const auto port = static_cast<std::uint16_t>(kPortBase + c.in.port_idx[i]);
    const std::size_t base = c.in.port_idx[i] * 65536u;
    std::uint16_t lp = 0;
    // A port stays free until connect() binds it, one simulated syscall
    // later. Once the allocator's fast pass wraps (the last free ports), it
    // hands a port another connector holds unbound to this one too, and
    // that tuple would collide at bind. Count such answers, let the holder
    // bind, and ask again.
    for (int tries = 0; tries < 64; ++tries) {
      const auto t0 = Clock::now();
      lp = stack.alloc_ephemeral_port(laddr, core::Testbed::kIpB, port);
      if (c.tr != nullptr) c.tr->record(c.alloc_span, c.phase, i, t0, Clock::now());
      if (lp == 0 || c.unbound[base + lp] == 0) break;
      ++c.alloc_unbound_dups;
      lp = 0;
      co_await sim::delay(c.tb.sim, sim::usec(10.0));
    }
    if (lp == 0) {
      c.failed[i] = 1;
      continue;
    }
    c.unbound[base + lp] = 1;
    c.tx[i] = std::make_unique<socket::Socket>(stack, socket::Socket::Proto::kTcp);
    const std::uint32_t span = c.begin(c.connect_span, i);
    const bool ok = co_await c.tx[i]->connect(ctx, core::Testbed::kIpB, port, lp);
    c.end(span);
    c.unbound[base + lp] = 0;
    if (ok) {
      c.lport[i] = lp;
      c.established[i] = c.tb.sim.now();
    } else {
      c.failed[i] = 1;
    }
  }
  c.finished();
}

sim::Task<void> acceptor(Churn& c, socket::Listener& ln, std::size_t expected) {
  for (std::size_t k = 0; k < expected; ++k) {
    auto s = co_await ln.accept();
    if (s == nullptr) {
      ++c.accept_failures;
      continue;
    }
    c.accepted.push_back(std::move(s));
  }
  c.finished();
}

bool pattern_ok(const mem::UserBuffer& buf, std::uint32_t seed, std::size_t n) {
  const auto v = buf.view();
  for (std::size_t k = 0; k < n; ++k)
    if (v[k] != mem::UserBuffer::pattern_byte(seed, k)) return false;
  return true;
}

// Receive exactly n bytes into buf; returns the count actually received.
sim::Task<std::size_t> recv_exact(socket::Socket& s, socket::ProcCtx& ctx,
                                  mem::UserBuffer& buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const std::size_t k = co_await s.recv(ctx, buf.as_uio(got, n - got));
    if (k == 0) break;
    got += k;
  }
  co_return got;
}

// Client side of the exchange: request out, response back, timed.
sim::Task<void> exchanger(Churn& c, core::Host::Process& proc, std::size_t w) {
  auto ctx = proc.ctx();
  mem::UserBuffer out(proc.as, 128);
  mem::UserBuffer in(proc.as, 2048);
  for (std::size_t i = w; i < c.in.conns; i += c.in.concurrency) {
    if (c.failed[i] != 0) continue;
    c.poll_ref();
    const std::uint32_t seed = c.in.pattern_seed + static_cast<std::uint32_t>(i);
    out.fill_pattern(seed);
    const std::uint32_t span = c.begin(c.exchange_span, i);
    const sim::Time t0 = c.tb.sim.now();
    const std::size_t sent = co_await c.tx[i]->send(ctx, out.as_uio(0, c.in.req[i]));
    const std::size_t got = co_await recv_exact(*c.tx[i], ctx, in, c.in.resp[i]);
    c.latency[i] = c.tb.sim.now() - t0;
    c.end(span);
    if (sent != c.in.req[i] || got != c.in.resp[i] ||
        !pattern_ok(in, ~seed, got))
      c.failed[i] = 1;
  }
  c.finished();
}

// Server side: read the request, check it, answer.
sim::Task<void> responder(Churn& c, core::Host::Process& proc, std::size_t w) {
  auto ctx = proc.ctx();
  mem::UserBuffer in(proc.as, 128);
  mem::UserBuffer out(proc.as, 2048);
  for (std::size_t i = w; i < c.in.conns; i += c.in.concurrency) {
    if (c.failed[i] != 0) continue;
    const std::uint32_t seed = c.in.pattern_seed + static_cast<std::uint32_t>(i);
    const std::size_t got = co_await recv_exact(*c.rx[i], ctx, in, c.in.req[i]);
    if (got != c.in.req[i] || !pattern_ok(in, seed, got)) c.failed[i] = 1;
    out.fill_pattern(~seed);
    const std::size_t sent = co_await c.rx[i]->send(ctx, out.as_uio(0, c.in.resp[i]));
    if (sent != c.in.resp[i]) c.failed[i] = 1;
  }
  c.finished();
}

sim::Task<void> closer(Churn& c, std::vector<std::unique_ptr<socket::Socket>>& socks,
                       core::Host::Process& proc, std::uint32_t name, std::size_t w) {
  auto ctx = proc.ctx();
  for (std::size_t i = w; i < socks.size(); i += c.in.concurrency) {
    if (socks[i] == nullptr) continue;
    c.poll_ref();
    const std::uint32_t span = c.begin(name, i);
    co_await socks[i]->close(ctx);
    c.end(span);
  }
  c.finished();
}

// What one round simulated; identical in every round.
struct ChurnOut {
  std::uint64_t connected = 0;
  sim::Duration ramp = 0, exchange = 0, close = 0;
  std::uint64_t exchange_bytes = 0;
  double latency_s = 0;  // summed over connections
  std::vector<double> latency_ms;
  std::vector<double> rate;  // per-connection exchange bytes per simulated second
  std::vector<sim::Time> established;
  double rexmt = 0;
  double timewait_peak = 0;
  double alloc_unbound_dups = 0;
};

}  // namespace

void run_conn_churn(const Options& o, Report& rep) {
  const ChurnInputs in = make_inputs(o);
  Tracer tracer;

  ChurnOut first;
  bool have_first = false;
  bool counted = false;
  bool staged = false;
  LayerCounters layers;
  StageHists stages;
  std::vector<double> build_s, listen_s, netstat_ms, setup_s;
  double events = 0, cancelled = 0, compactions = 0;

  // The topology: the two-host testbed plus one listener per server port
  // (declared after the testbed, so destroyed before the stack it uses).
  struct Topology {
    std::unique_ptr<core::Testbed> tb;
    std::vector<std::unique_ptr<socket::Listener>> listeners;
  };
  const auto build = [&](Tracer* tr, std::uint32_t parent) {
    core::TestbedOptions to;
    to.telemetry = tr != nullptr;
    to.telemetry_tick = sim::msec(1.0);
    Topology t;
    const auto b0 = cold_start();
    {
      const Scope s(tr, "testbed_build", parent);
      t.tb = std::make_unique<core::Testbed>(to);
    }
    const auto l0 = Clock::now();
    {
      const Scope s(tr, "listen_setup", parent);
      for (std::size_t j = 0; j < in.nports; ++j) {
        t.listeners.push_back(std::make_unique<socket::Listener>(
            t.tb->b->stack(), static_cast<std::uint16_t>(kPortBase + j),
            socket::SocketOptions{}, in.backlog));
      }
    }
    build_s.push_back(std::chrono::duration<double>(l0 - b0).count());
    listen_s.push_back(seconds_since(l0));
    setup_s.push_back(seconds_since(b0));
    if (t.tb->tel) t.tb->tel->set_max_events(0);  // stage histograms only
    return t;
  };
  RoundLog log = run_rounds(o, rep, tracer, 1, RefShare::kWithin, [&](Tracer* tr) {
    const bool traced = tr != nullptr;
    const Scope round(tr, "round", Tracer::kNone);
    RoundResult res;
    Topology topo = build(tr, round.id());
    res.setup_s.push_back(setup_s.back());
    std::unique_ptr<core::Testbed>& tb = topo.tb;
    std::vector<std::unique_ptr<socket::Listener>>& listeners = topo.listeners;

    auto& cproc = tb->a->create_process("churn_client");
    auto& sproc = tb->b->create_process("churn_server");
    Churn c(in, *tb, tr);
    // A round lasts many seconds: sample the host's speed all through it.
    RefSampler sampler(kRefInterval_s, 1);
    if (!traced) c.ref = &sampler;
    ChurnOut out;
    std::vector<std::size_t> per_port(in.nports, 0);
    for (const std::uint8_t p : in.port_idx) ++per_port[p];

    const CostMeter meter;
    core::Json phase_wall = core::Json::object();
    auto lap = Clock::now();
    const auto mark = [&](const char* name) {
      phase_wall.set(name, seconds_since(lap));
      lap = Clock::now();
    };
    // Ramp: connect everything, accept everything.
    {
      const Scope phase(tr, "ramp", round.id());
      c.phase = phase.id();
      const sim::Time s0 = tb->sim.now();
      c.pending = in.concurrency + in.nports;
      for (std::size_t j = 0; j < in.nports; ++j)
        sim::spawn(acceptor(c, *listeners[j], per_port[j]));
      for (std::size_t w = 0; w < in.concurrency; ++w)
        sim::spawn(connector(c, cproc, w));
      if (!c.run_phase()) rep.fail("ramp did not finish");
      out.ramp = tb->sim.now() - s0;
    }
    mark("ramp");
    // Pair each accepted socket with its connection: the server side's
    // foreign port is the client's local port.
    {
      std::vector<std::int32_t> index(in.nports * 65536, -1);
      for (std::size_t i = 0; i < in.conns; ++i) {
        if (c.failed[i] == 0)
          index[in.port_idx[i] * 65536 + c.lport[i]] = static_cast<std::int32_t>(i);
      }
      for (auto& s : c.accepted) {
        const net::ConnKey& k = s->tcp().key();
        const std::size_t j = static_cast<std::size_t>(k.lport - kPortBase);
        const std::int32_t i = j < in.nports ? index[j * 65536 + k.fport] : -1;
        if (i < 0 || c.rx[i] != nullptr) {
          rep.fail("accepted a connection no connector made");
          continue;
        }
        c.rx[i] = std::move(s);
      }
      for (std::size_t i = 0; i < in.conns; ++i)
        if (c.rx[i] == nullptr) c.failed[i] = 1;
      out.connected = static_cast<std::uint64_t>(
          std::count(c.failed.begin(), c.failed.end(), 0));
    }
    // Exchange: one request/response per connection, all connections open.
    {
      const Scope phase(tr, "exchange_phase", round.id());
      c.phase = phase.id();
      const sim::Time s0 = tb->sim.now();
      c.pending = 2 * in.concurrency;
      for (std::size_t w = 0; w < in.concurrency; ++w) {
        sim::spawn(responder(c, sproc, w));
        sim::spawn(exchanger(c, cproc, w));
      }
      if (!c.run_phase()) rep.fail("exchange did not finish");
      out.exchange = tb->sim.now() - s0;
    }
    mark("exchange");
    for (std::size_t i = 0; i < in.conns; ++i) {
      if (c.tx[i] != nullptr) out.rexmt += static_cast<double>(c.tx[i]->tcp().stats().rexmt_segs);
      if (c.rx[i] != nullptr) out.rexmt += static_cast<double>(c.rx[i]->tcp().stats().rexmt_segs);
    }
    // Close everything from both ends, then drain TIME-WAIT (2*MSL) and the
    // zombie linger.
    {
      const Scope phase(tr, "close_phase", round.id());
      c.phase = phase.id();
      const sim::Time s0 = tb->sim.now();
      c.pending = 2 * in.concurrency;
      for (std::size_t w = 0; w < in.concurrency; ++w) {
        sim::spawn(closer(c, c.tx, cproc, c.close_span, w));
        sim::spawn(closer(c, c.rx, sproc, c.close_peer_span, w));
      }
      if (!c.run_phase()) rep.fail("close did not finish");
      out.close = tb->sim.now() - s0;
      out.timewait_peak = static_cast<double>(tb->a->stack().timewait_count() +
                                              tb->b->stack().timewait_count());
    }
    mark("close");
    {
      const Scope phase(tr, "drain", round.id());
      tb->sim.run_until(tb->sim.now() + 40 * sim::kSecond);
    }
    res.cost = sampler.net_of(meter.stop());
    res.ref = sampler.runs();
    mark("drain");
    if (!traced) rep.info("phase_wall_s", std::move(phase_wall));

    const std::size_t leftover =
        tb->a->stack().timewait_count() + tb->b->stack().timewait_count() +
        tb->a->stack().zombie_count() + tb->b->stack().zombie_count();
    std::uint64_t failed = static_cast<std::uint64_t>(
        std::count(c.failed.begin(), c.failed.end(), 1));
    if (failed != 0) {
      rep.fail(std::to_string(failed) + " of " + std::to_string(in.conns) +
               " connections failed to connect, accept or exchange");
    }
    if (c.accept_failures != 0)
      rep.fail(std::to_string(c.accept_failures) + " accepts failed");
    if (leftover != 0) {
      rep.fail(std::to_string(leftover) + " TIME-WAIT or zombie entries left after drain");
      failed = std::min<std::uint64_t>(in.conns, failed + leftover);
    }
    rep.ops(in.conns, failed);

    for (std::size_t i = 0; i < in.conns; ++i) {
      if (c.failed[i] != 0) continue;
      const std::uint64_t b = in.req[i] + in.resp[i];
      out.exchange_bytes += b;
      out.latency_s += sim::to_seconds(c.latency[i]);
      out.latency_ms.push_back(sim::to_seconds(c.latency[i]) * 1e3);
      out.established.push_back(c.established[i]);
      out.rate.push_back(ratio(static_cast<double>(b), sim::to_seconds(c.latency[i])));
    }

    if (!traced && !counted) {
      events = static_cast<double>(tb->sim.events_processed());
      cancelled = static_cast<double>(tb->sim.events_cancelled());
      compactions = static_cast<double>(tb->sim.compactions());
      layers.add_host(*tb->a, netstat_ms);
      layers.add_host(*tb->b, netstat_ms);
      counted = true;
    } else if (traced) {
      const Scope s(tr, "netstat_json", round.id());
      LayerCounters().add_host(*tb->a, netstat_ms);  // timed only
      LayerCounters().add_host(*tb->b, netstat_ms);
    }
    if (traced && !staged) {
      stages.add(*tb->tel);
      staged = true;
    }

    std::uint64_t lat_hash = 1469598103934665603ull;  // FNV-1a over latencies
    for (const sim::Duration d : c.latency)
      lat_hash = (lat_hash ^ static_cast<std::uint64_t>(d)) * 1099511628211ull;
    res.sim.set("connected", out.connected);
    res.sim.set("ramp_ns", static_cast<std::int64_t>(out.ramp));
    res.sim.set("exchange_ns", static_cast<std::int64_t>(out.exchange));
    res.sim.set("close_ns", static_cast<std::int64_t>(out.close));
    res.sim.set("exchange_bytes", out.exchange_bytes);
    res.sim.set("latency_hash", std::to_string(lat_hash));
    res.sim.set("rexmt", out.rexmt);
    res.sim.set("timewait_peak", out.timewait_peak);
    out.alloc_unbound_dups = static_cast<double>(c.alloc_unbound_dups);
    res.sim.set("alloc_unbound_dups", out.alloc_unbound_dups);

    // Sockets and listeners reference the stacks: release them first.
    c.tx.clear();
    c.rx.clear();
    c.accepted.clear();
    listeners.clear();
    if (!have_first) {
      first = std::move(out);
      have_first = true;
    }
    return res;
  });

  // A round builds one topology; build a few more so set-up time has enough
  // samples for a steady median. They come after the rounds, away from
  // process start-up, when the first set-ups of a run are often the slowest.
  for (int k = 0; k < 29; ++k) build(nullptr, Tracer::kNone);

  // --- end to end -----------------------------------------------------------
  log.setup_s = setup_s;  // the round's set-ups and the extra ones
  emit_host_metrics(rep, log);
  // Bytes a connection moves per second of its own exchange.
  rep.set("sim_goodput_mbps",
          ratio(static_cast<double>(first.exchange_bytes) * 8.0, first.latency_s) * 1e-6);
  // Every connection runs the same stack, so there is no second stack to
  // compare.
  rep.set("sim_efficiency_ratio", 1.0);
  rep.set("sim_jain", apps::jain_index(first.rate));
  rep.set("sim_op_p50_ms", percentile(first.latency_ms, 0.50));
  rep.set("sim_op_p99_ms", percentile(first.latency_ms, 0.99));
  rep.set("ops.sim_op_samples", static_cast<double>(first.latency_ms.size()));
  rep.set("sim_conns_per_s", conn_rate_p99(first.established));

  // --- per layer ------------------------------------------------------------
  emit_layer_counters(rep, layers);
  emit_stage_metrics(rep, stages);
  rep.set("sim.events", events);
  rep.set("sim.wall_ns_per_event", ratio(median(log.wall_untraced) * 1e9, events));
  rep.set("sim.events_cancelled", cancelled);
  rep.set("sim.event_compactions", compactions);
  const std::vector<double> alloc_ns = tracer.durations_ns("alloc_ephemeral_port");
  double alloc_total = 0;
  for (const double d : alloc_ns) alloc_total += d;
  rep.set("net.port_alloc_calls", static_cast<double>(alloc_ns.size()));
  rep.set("net.port_alloc_ns_p50", percentile(alloc_ns, 0.50));
  rep.set("net.port_alloc_ns_p99", percentile(alloc_ns, 0.99));
  rep.set("net.port_alloc_s", alloc_total * 1e-9);
  rep.set("net.port_alloc_unbound_dups", first.alloc_unbound_dups);
  rep.set("net.timewait_peak", first.timewait_peak);
  rep.set("net.tcp_rexmt", first.rexmt);
  rep.set("core.build_s", median(build_s));
  rep.set("core.listen_setup_s", median(listen_s));
  rep.set("core.netstat_json_ms", median(netstat_ms));
  rep.set("core.netstat_exports", static_cast<double>(netstat_ms.size()));
  finish_trace(o, rep, tracer);
}

}  // namespace perfbench

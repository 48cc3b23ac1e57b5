#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/netstat.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace {

std::vector<MetricDef> build_catalogue() {
  std::vector<MetricDef> c = {
      // End to end, host side.
      {"setup_s", "s", true},
      {"wall_ref_ratio", "ratio", true},
      {"cpu_ref_ratio", "ratio", true},
      {"peak_rss_mb", "MB", true},
      // End to end, simulated side.
      {"sim_goodput_mbps", "Mb/s", true},
      {"sim_efficiency_ratio", "ratio", true},
      {"sim_jain", "ratio", true},
      {"sim_op_p50_ms", "ms", true},
      {"sim_op_p99_ms", "ms", true},
      {"sim_conns_per_s", "1/s", true},
      // Sample count behind sim_op_p50_ms / sim_op_p99_ms.
      {"ops.sim_op_samples", "count", false},
      // The raw host seconds behind wall_ref_ratio / cpu_ref_ratio.
      {"wall_s", "s", false},
      {"cpu_s", "s", false},
      {"host.ref_wall_s", "s", false},
      {"host.ref_cpu_s", "s", false},
      {"host.rounds", "count", false},
      {"host.ref_runs", "count", false},
      // sim
      {"sim.events", "count", false},
      {"sim.wall_ns_per_event", "ns", false},
      {"sim.events_cancelled", "count", false},
      {"sim.event_compactions", "count", false},
      // sim: parallel engine
      {"engine.workers", "count", false},
      {"engine.epochs", "count", false},
      {"engine.events_per_epoch", "ratio", false},
      {"engine.shard_epochs", "count", false},
      {"engine.busy_shard_epochs", "count", false},
      {"engine.busy_shard_frac", "frac", false},
      {"engine.cross_msgs", "count", false},
      {"engine.msgs_per_epoch", "ratio", false},
      {"engine.max_shard_pending", "count", false},
      {"engine.wall_us_per_epoch", "us", false},
      {"engine.cpu_over_wall", "ratio", false},
      // sim: protocol timer wheels
      {"wheel.scheduled", "count", false},
      {"wheel.cancelled", "count", false},
      {"wheel.cascaded", "count", false},
      {"wheel.max_pending", "count", false},
      // net
      {"net.port_alloc_calls", "count", false},
      {"net.port_alloc_ns_p50", "ns", false},
      {"net.port_alloc_ns_p99", "ns", false},
      {"net.port_alloc_s", "s", false},
      {"net.port_alloc_unbound_dups", "count", false},
      {"net.demux_lookups", "count", false},
      {"net.demux_probe_steps", "count", false},
      {"net.demux_probes_per_lookup", "ratio", false},
      {"net.demux_max_probe", "count", false},
      {"net.timewait_peak", "count", false},
      {"net.tcp_rexmt", "count", false},
      // socket
      {"socket.copy_writes", "count", false},
      {"socket.single_copy_writes", "count", false},
      {"socket.copy_stack_wall_s", "s", false},
      {"socket.single_copy_stack_wall_s", "s", false},
      // mbuf
      {"mbuf.allocs", "count", false},
      {"mbuf.freelist_hits", "count", false},
      {"mbuf.freelist_hit_frac", "frac", false},
      {"mbuf.high_water", "count", false},
      // mem
      {"mem.pin_ops", "count", false},
      {"mem.pin_page_lookups", "count", false},
      {"mem.pin_cache_hit_frac", "frac", false},
      // cab
      {"cab.checksum_bytes_summed", "bytes", false},
      {"cab.sdma_requests", "count", false},
      {"cab.sdma_busy_s", "s", false},
      {"cab.mdma_tx_packets", "count", false},
      {"cab.arb_pushes", "count", false},
      {"cab.arb_max_depth", "count", false},
      {"cab.netmem_max_used_bytes", "bytes", false},
      {"cab.netmem_provisioned_bytes", "bytes", false},
      {"cab.netmem_used_frac", "frac", false},
      // drivers
      {"drivers.tx_fresh", "count", false},
      {"drivers.tx_rewrite", "count", false},
      {"drivers.rx_wcab", "count", false},
      {"drivers.copyouts", "count", false},
      // hippi
      {"hippi.frames", "count", false},
      {"hippi.loss_drops", "count", false},
      // core
      {"core.build_s", "s", false},
      {"core.listen_setup_s", "s", false},
      {"core.netstat_json_ms", "ms", false},
      {"core.netstat_exports", "count", false},
      // telemetry (traced run)
      {"trace.overhead_frac", "frac", false},
      {"trace.spans", "count", false},
  };
  // Names must outlive the catalogue: keep them in a static pool.
  static std::vector<std::string> pool;
  pool.reserve(3 * telemetry::kStageCount);
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    const std::string base =
        std::string("stage.") + telemetry::stage_name(static_cast<telemetry::Stage>(i));
    pool.push_back(base + ".p50_us");
    c.push_back({pool.back().c_str(), "us", false});
    pool.push_back(base + ".p99_us");
    c.push_back({pool.back().c_str(), "us", false});
    pool.push_back(base + ".count");
    c.push_back({pool.back().c_str(), "count", false});
  }
  return c;
}

const MetricDef* find_def(const std::string& name) {
  for (const MetricDef& d : catalogue())
    if (name == d.name) return &d;
  return nullptr;
}

double num(const core::Json* j) { return j != nullptr ? j->as_double() : 0.0; }

double field(const core::Json& j, const char* key) { return num(j.find(key)); }

}  // namespace

const std::vector<MetricDef>& catalogue() {
  static const std::vector<MetricDef> c = build_catalogue();
  return c;
}

void Report::set(const std::string& name, double value) {
  if (find_def(name) == nullptr) {
    fail("unknown metric " + name);
    return;
  }
  values_[name] = value;
}

core::Json Report::json(const Options& o) {
  core::Json metrics = core::Json::object();
  for (const MetricDef& d : catalogue()) {
    const auto it = values_.find(d.name);
    double v = 0.0;
    if (it != values_.end()) {
      v = it->second;
    } else if (d.end_to_end) {
      fail(std::string("end-to-end metric not measured: ") + d.name);
    }
    if (!std::isfinite(v)) fail(std::string("metric is not finite: ") + d.name);
    core::Json m = core::Json::object();
    m.set("value", v);
    m.set("unit", d.unit);
    metrics.set(d.name, std::move(m));
  }
  core::Json errs = core::Json::array();
  for (const auto& e : errors_) errs.push_back(e);

  core::Json j = core::Json::object();
  j.set("workload", o.workload);
  j.set("seed", o.seed);
  j.set("trace", o.trace);
  j.set("scale", o.scale == Scale::kQuick ? "quick" : "full");
  j.set("correct", errors_.empty());
  j.set("errors", std::move(errs));
  j.set("attempted", attempted_);
  j.set("failed", failed_);
  j.set("metrics", std::move(metrics));
  j.set("info", info_);
  return j;
}

// --- host clocks -------------------------------------------------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank < 1) rank = 1;
  return xs[std::min(rank, xs.size()) - 1];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double conn_rate_p99(std::vector<sim::Time> established) {
  if (established.size() < 2) return 0.0;
  std::sort(established.begin(), established.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(established.size())));
  return ratio(static_cast<double>(k - 1),
               sim::to_seconds(established[k - 1] - established.front()));
}

// --- spans -------------------------------------------------------------------

std::uint32_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(std::uint32_t name, std::uint32_t parent,
                            std::uint64_t op, sim::Time sim_now) {
  spans_.push_back(Span{name, parent, op, host_ns(Clock::now()), -1, sim_now, -1});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::end(std::uint32_t id, sim::Time sim_now) {
  Span& s = spans_[id - 1];
  s.host_end_ns = host_ns(Clock::now());
  s.sim_end = sim_now;
}

void Tracer::record(std::uint32_t name, std::uint32_t parent, std::uint64_t op,
                    Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, parent, op, host_ns(start), host_ns(end), -1, -1});
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  // Child coverage per parent, assuming children of one parent do not
  // overlap in host time (the benchmark is single-threaded; coroutine spans
  // interleave, so their self time is clamped at zero).
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNone && s.host_end_ns >= s.host_start_ns)
      child_ns[s.parent] += static_cast<double>(s.host_end_ns - s.host_start_ns);
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.host_end_ns < s.host_start_ns) continue;  // never ended
    const double dur = static_cast<double>(s.host_end_ns - s.host_start_ns);
    NameTotals& t = out[names_[s.name]];
    ++t.count;
    t.total_s += dur * 1e-9;
    t.self_s += std::max(0.0, dur - child_ns[i + 1]) * 1e-9;
  }
  return out;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (names_[s.name] == name && s.host_end_ns >= s.host_start_ns)
      out.push_back(static_cast<double>(s.host_end_ns - s.host_start_ns));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"op\":%llu,"
                 "\"host_start_ns\":%lld,\"host_end_ns\":%lld,"
                 "\"sim_start_ns\":%lld,\"sim_end_ns\":%lld}\n",
                 i + 1, names_[s.name].c_str(), s.parent,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.host_start_ns),
                 static_cast<long long>(s.host_end_ns),
                 static_cast<long long>(s.sim_start),
                 static_cast<long long>(s.sim_end));
  }
  return std::fclose(f) == 0;
}

void finish_trace(const Options& o, Report& rep, const Tracer& t) {
  rep.set("trace.spans", static_cast<double>(t.size()));
  if (!o.trace) return;
  core::Json totals = core::Json::object();
  for (const auto& [name, nt] : t.totals()) {
    core::Json e = core::Json::object();
    e.set("count", nt.count);
    e.set("total_s", nt.total_s);
    e.set("self_s", nt.self_s);
    totals.set(name, std::move(e));
  }
  rep.info("span_host_time", std::move(totals));
  if (!o.trace_out.empty() && !t.write(o.trace_out))
    rep.fail("cannot write spans to " + o.trace_out);
}

// --- per-layer counters ------------------------------------------------------

void LayerCounters::add_host(core::Host& h, std::vector<double>& netstat_ms) {
  const auto t0 = Clock::now();
  const core::Json j = core::Netstat(h).json();
  netstat_ms.push_back(seconds_since(t0) * 1e3);

  if (const core::Json* m = j.find("mbufs")) {
    mbuf_allocs += field(*m, "allocs");
    mbuf_freelist_hits += field(*m, "freelist_hits");
    mbuf_high_water = std::max(mbuf_high_water, field(*m, "high_water"));
  }
  if (const core::Json* v = j.find("vm")) pin_ops += field(*v, "pin_ops");
  if (const core::Json* pc = j.find("pin_cache")) {
    pin_page_hits += field(*pc, "page_hits");
    pin_page_misses += field(*pc, "page_misses");
  }
  if (const core::Json* ifs = j.find("interfaces")) {
    for (const core::Json& ifj : ifs->items()) {
      const core::Json* c = ifj.find("cab");
      if (c == nullptr) continue;
      checksum_bytes += field(*c, "checksum_bytes_summed");
      sdma_requests += field(*c, "sdma_requests");
      sdma_busy_s += field(*c, "sdma_busy_s");
      mdma_tx_packets += field(*c, "mdma_tx_packets");
      hippi_frames += field(*c, "mdma_rx_packets");
      for (const char* arb : {"sdma_arb", "mdma_tx_arb"}) {
        if (const core::Json* a = c->find(arb)) {
          arb_pushes += field(*a, "pushes");
          arb_max_depth = std::max(arb_max_depth, field(*a, "max_depth"));
        }
      }
      netmem_max_used = std::max(netmem_max_used, field(*c, "nm_max_used_bytes"));
      tx_fresh += field(*c, "tx_fresh");
      tx_rewrite += field(*c, "tx_rewrite");
      rx_wcab += field(*c, "rx_wcab");
      copyouts += field(*c, "copyouts");
    }
  }
  if (const core::Json* d = j.find("demux")) {
    if (const core::Json* t = d->find("table")) {
      demux_lookups += field(*t, "lookups");
      demux_probe_steps += field(*t, "probe_steps");
      demux_max_probe = std::max(demux_max_probe, field(*t, "max_probe"));
    }
  }
  if (const core::Json* w = j.find("timer_wheel")) {
    wheel_scheduled += field(*w, "scheduled");
    wheel_cancelled += field(*w, "cancelled");
    wheel_cascaded += field(*w, "cascaded");
    wheel_max_pending = std::max(wheel_max_pending, field(*w, "max_pending"));
  }
  // Provisioned outboard memory per CAB (the Netstat document reports use,
  // not capacity).
  netmem_provisioned = std::max(
      netmem_provisioned, static_cast<double>(h.params().cab.memory_bytes));
}

void emit_layer_counters(Report& rep, const LayerCounters& c) {
  rep.set("mbuf.allocs", c.mbuf_allocs);
  rep.set("mbuf.freelist_hits", c.mbuf_freelist_hits);
  rep.set("mbuf.freelist_hit_frac", ratio(c.mbuf_freelist_hits, c.mbuf_allocs));
  rep.set("mbuf.high_water", c.mbuf_high_water);
  rep.set("mem.pin_ops", c.pin_ops);
  const double lookups = c.pin_page_hits + c.pin_page_misses;
  rep.set("mem.pin_page_lookups", lookups);
  rep.set("mem.pin_cache_hit_frac", ratio(c.pin_page_hits, lookups));
  rep.set("cab.checksum_bytes_summed", c.checksum_bytes);
  rep.set("cab.sdma_requests", c.sdma_requests);
  rep.set("cab.sdma_busy_s", c.sdma_busy_s);
  rep.set("cab.mdma_tx_packets", c.mdma_tx_packets);
  rep.set("cab.arb_pushes", c.arb_pushes);
  rep.set("cab.arb_max_depth", c.arb_max_depth);
  rep.set("cab.netmem_max_used_bytes", c.netmem_max_used);
  rep.set("cab.netmem_provisioned_bytes", c.netmem_provisioned);
  rep.set("cab.netmem_used_frac", ratio(c.netmem_max_used, c.netmem_provisioned));
  rep.set("hippi.frames", c.hippi_frames);
  rep.set("drivers.tx_fresh", c.tx_fresh);
  rep.set("drivers.tx_rewrite", c.tx_rewrite);
  rep.set("drivers.rx_wcab", c.rx_wcab);
  rep.set("drivers.copyouts", c.copyouts);
  rep.set("net.demux_lookups", c.demux_lookups);
  rep.set("net.demux_probe_steps", c.demux_probe_steps);
  rep.set("net.demux_probes_per_lookup", ratio(c.demux_probe_steps, c.demux_lookups));
  rep.set("net.demux_max_probe", c.demux_max_probe);
  rep.set("wheel.scheduled", c.wheel_scheduled);
  rep.set("wheel.cancelled", c.wheel_cancelled);
  rep.set("wheel.cascaded", c.wheel_cascaded);
  rep.set("wheel.max_pending", c.wheel_max_pending);
}

void StageHists::add(const telemetry::Telemetry& t) {
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i)
    h[i].merge(t.stage_hist(static_cast<telemetry::Stage>(i)));
}

void emit_stage_metrics(Report& rep, const StageHists& s) {
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    const std::string base =
        std::string("stage.") + telemetry::stage_name(static_cast<telemetry::Stage>(i));
    // Histograms record simulated nanoseconds.
    rep.set(base + ".p50_us", static_cast<double>(s.h[i].percentile(50.0)) * 1e-3);
    rep.set(base + ".p99_us", static_cast<double>(s.h[i].percentile(99.0)) * 1e-3);
    rep.set(base + ".count", static_cast<double>(s.h[i].count()));
  }
}

// --- the reference kernel ----------------------------------------------------

namespace {

// Ticket barrier that spins briefly and then yields, like the parallel
// engine's epoch barrier. Once a thread abandons it (it failed and will not
// arrive again), every wait returns at once, so the others can finish.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned n) : n_(n) {}
  void arrive_and_wait() noexcept {
    const std::uint64_t ticket = arrivals_.fetch_add(1, std::memory_order_acq_rel) + 1;
    const std::uint64_t target = ((ticket - 1) / n_ + 1) * n_;
    if (ticket == target) {
      released_.store(target, std::memory_order_release);
      return;
    }
    for (int spins = 0; released_.load(std::memory_order_acquire) < target &&
                        !abandoned_.load(std::memory_order_acquire);) {
      if (++spins < 16) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      } else {
        std::this_thread::yield();
      }
    }
  }
  void abandon() noexcept { abandoned_.store(true, std::memory_order_release); }

 private:
  const unsigned n_;
  std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<std::uint64_t> released_{0};
  std::atomic<bool> abandoned_{false};
};

constexpr std::size_t kRefTable = std::size_t{1} << 19;  // 4 MB of slots
constexpr std::size_t kRefBytes = std::size_t{1} << 22;  // 4 MB to sum over
constexpr std::size_t kRefPending = 4096;
constexpr std::size_t kRefEvents = 100000;   // per thread and run
constexpr std::size_t kRefBarrierEvery = 64;

// One thread's working memory, allocated at the first run and kept, so the
// kernel adds the same 8 MB per thread to every run's peak RSS and never
// pays page faults inside its clock.
struct RefState {
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kRefTable, 1);
  std::vector<unsigned char> bytes = std::vector<unsigned char>(kRefBytes, 7);
};

std::uint64_t reference_events(RefState& st, unsigned thread, SpinBarrier* barrier) {
  using Ev = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Ev> heap;
  heap.reserve(kRefPending + 1);
  std::vector<std::unique_ptr<std::uint64_t[]>> nodes(kRefPending);
  std::uint64_t x = 0x9e3779b97f4a7c15ull + thread, acc = 0;
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < kRefPending; ++i) {
    heap.emplace_back(rnd() % 1000000, i);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (std::size_t e = 0; e < kRefEvents; ++e) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [when, slot] = heap.back();
    heap.pop_back();
    std::uint64_t& t = st.table[(when * 0x9e3779b97f4a7c15ull) >> 45];
    t += slot;
    nodes[slot] = std::make_unique<std::uint64_t[]>(24);
    nodes[slot][slot % 24] = t;
    const std::size_t off = (t * 64) & (kRefBytes - 256);
    for (std::size_t b = 0; b < 128; ++b) acc += st.bytes[off + b];
    heap.emplace_back(when + 1 + rnd() % 1000, slot);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (barrier != nullptr && e % kRefBarrierEvery == kRefBarrierEvery - 1)
      barrier->arrive_and_wait();
  }
  return acc;
}

}  // namespace

RoundCost reference_kernel(std::size_t threads) {
  static std::vector<std::unique_ptr<RefState>> states;
  while (states.size() < std::max<std::size_t>(threads, 1))
    states.push_back(std::make_unique<RefState>());
  static volatile std::uint64_t sink = 0;

  const CostMeter meter;
  if (threads <= 1) {
    sink = sink + reference_events(*states[0], 0, nullptr);
  } else {
    SpinBarrier barrier(static_cast<unsigned>(threads));
    std::vector<std::uint64_t> acc(threads, 0);
    std::mutex error_mu;
    std::exception_ptr error;  // the first failure of any thread
    const auto run = [&](std::size_t t) {
      try {
        acc[t] = reference_events(*states[t], static_cast<unsigned>(t), &barrier);
      } catch (...) {
        {
          const std::scoped_lock lock(error_mu);
          if (!error) error = std::current_exception();
        }
        barrier.abandon();
      }
    };
    {
      std::vector<std::jthread> helpers;  // joined when this block ends
      for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(run, t);
      run(0);
    }
    if (error) std::rethrow_exception(error);
    for (const std::uint64_t a : acc) sink = sink + a;
  }
  return meter.stop();
}

void emit_host_metrics(Report& rep, const RoundLog& log) {
  // Means, so each ratio is the rounds' total time over the kernel's total
  // time, both spread over the same stretch of the run: the host's speed
  // drifts within a run as well as between runs, and only totals taken over
  // the same stretch cancel it.
  const double wall = mean(log.wall_untraced), cpu = mean(log.cpu_untraced);
  const double ref_wall = mean(log.ref_wall), ref_cpu = mean(log.ref_cpu);
  rep.set("setup_s", median(log.setup_s));
  rep.set("wall_ref_ratio", ratio(wall, ref_wall));
  rep.set("cpu_ref_ratio", ratio(cpu, ref_cpu));
  rep.set("wall_s", wall);
  rep.set("cpu_s", cpu);
  rep.set("host.ref_wall_s", ref_wall);
  rep.set("host.ref_cpu_s", ref_cpu);
  rep.set("host.rounds", static_cast<double>(log.wall_untraced.size()));
  rep.set("host.ref_runs", static_cast<double>(log.ref_wall.size()));
  rep.set("peak_rss_mb", peak_rss_mb());
  if (!log.wall_traced.empty()) {
    rep.set("trace.overhead_frac",
            ratio(median(log.wall_traced), median(log.wall_untraced)) - 1.0);
  }
  core::Json setups = core::Json::array();
  for (const double x : log.setup_s) setups.push_back(x);
  rep.info("setup_samples_s", std::move(setups));
  core::Json walls = core::Json::array();
  for (const double w : log.wall_untraced) walls.push_back(w);
  rep.info("untraced_round_wall_s", std::move(walls));
  core::Json refs = core::Json::array();
  for (const double w : log.ref_wall) refs.push_back(w);
  rep.info("reference_kernel_wall_s", std::move(refs));
  core::Json samples = core::Json::object();
  samples.set("setup", static_cast<std::uint64_t>(log.setup_s.size()));
  samples.set("untraced_rounds", static_cast<std::uint64_t>(log.wall_untraced.size()));
  samples.set("traced_rounds", static_cast<std::uint64_t>(log.wall_traced.size()));
  rep.info("host_samples", std::move(samples));
}

}  // namespace perfbench

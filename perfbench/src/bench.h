// Shared plumbing for the nectar benchmark: run options, the metric report,
// host clocks, in-memory span tracing, and the per-layer counter readers.
//
// Everything here measures the library from outside: it times the public
// calls the workloads make and reads the layers' public stats accessors.
#pragma once

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/host.h"
#include "core/json.h"
#include "sim/time.h"
#include "telemetry/histogram.h"
#include "telemetry/stage.h"

namespace nectar::telemetry {
class Telemetry;
}

namespace perfbench {

using namespace nectar;

// Problem size. `full` is what the timed runs use; `quick` is a smoke size
// for the benchmark's own tests.
enum class Scale { kFull, kQuick };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::size_t workers = 2;  // matrix_sharded engine threads
  std::string trace_out;    // span file written by a traced run ("" = none)
};

// --- the report --------------------------------------------------------------

// Every metric the benchmark reports, with its unit. End-to-end metrics come
// from untraced rounds; per-layer ones from the traced run.
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};
[[nodiscard]] const std::vector<MetricDef>& catalogue();

class Report {
 public:
  // Unit comes from the catalogue; an unknown name is a benchmark bug and
  // fails the run.
  void set(const std::string& name, double value);
  // A correctness failure: recorded, printed, and turns `correct` false.
  void fail(const std::string& why) { errors_.push_back(why); }
  // Operations: every workload counts what it attempted and what failed.
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void info(const std::string& key, core::Json v) { info_.set(key, std::move(v)); }

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }

  // The whole report. Per-layer metrics a workload does not exercise are
  // reported as 0; a missing end-to-end metric fails the run.
  [[nodiscard]] core::Json json(const Options& o);

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  core::Json info_ = core::Json::object();
};

// --- host clocks -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
// Start timing a topology set-up from a cold heap: free memory goes back to
// the kernel first, so every set-up pays the first-touch cost a fresh
// process pays, whatever the set-up before it left behind.
[[nodiscard]] inline Clock::time_point cold_start() {
  malloc_trim(0);
  return Clock::now();
}
// User + system CPU time of the whole process (all threads), seconds.
[[nodiscard]] double process_cpu_s();
// Peak resident set (VmHWM), MB.
[[nodiscard]] double peak_rss_mb();

// Host cost of one measured round (or one reference-kernel run).
struct RoundCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class CostMeter {
 public:
  CostMeter() : t0_(Clock::now()), cpu0_(process_cpu_s()) {}
  [[nodiscard]] RoundCost stop() const {
    return RoundCost{seconds_since(t0_), process_cpu_s() - cpu0_};
  }

 private:
  Clock::time_point t0_;
  double cpu0_;
};

// --- statistics --------------------------------------------------------------

// Nearest-rank percentile of `xs` (p in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& xs);
// Median (mean of the middle two for an even count); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}
// Connection set-up rate, robust to a few stragglers (a lost SYN waits out
// a retransmission timeout): the first 99% of the establishment times,
// counted over the simulated span from the first to the 99th percentile.
[[nodiscard]] double conn_rate_p99(std::vector<sim::Time> established);

// --- spans -------------------------------------------------------------------

// Spans recorded by the benchmark around its calls into the library. Each
// has a name, host start/end, the simulated interval it covered (when it
// has one), the span that caused it, and an operation id shared by the
// spans of one operation. Kept in memory; written once when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0;

  Tracer() : t0_(Clock::now()) {}

  // Span names are interned once; hot call sites keep the id.
  std::uint32_t intern(const char* name);
  // Returns the span id (1-based) to pass to end() and as a parent.
  std::uint32_t begin(std::uint32_t name, std::uint32_t parent, std::uint64_t op,
                      sim::Time sim_now = -1);
  void end(std::uint32_t id, sim::Time sim_now = -1);
  // Record a span whose host interval the caller measured.
  void record(std::uint32_t name, std::uint32_t parent, std::uint64_t op,
              Clock::time_point start, Clock::time_point end);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  void clear() noexcept { spans_.clear(); }
  // Host time per span name: count, total duration, and self time (duration
  // minus the part covered by child spans). Seconds.
  struct NameTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;
  // Host durations (ns) of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ns(const std::string& name) const;
  // One JSON object per line: name, id, parent, op, host and sim intervals.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t op;
    std::int64_t host_start_ns;
    std::int64_t host_end_ns;
    sim::Time sim_start;
    sim::Time sim_end;
  };
  [[nodiscard]] std::int64_t host_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count();
  }

  Clock::time_point t0_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Report the span count and per-name host self time, and write the spans
// out (traced runs with a --trace-out path).
void finish_trace(const Options& o, Report& rep, const Tracer& t);

// RAII span around a synchronous call; a null tracer (untraced rounds)
// records nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint32_t parent, std::uint64_t op = 0)
      : t_(t), id_(t != nullptr ? t->begin(t->intern(name), parent, op) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer* t_;
  std::uint32_t id_;
};

// --- per-layer counters ------------------------------------------------------

// Counters summed over hosts, read from core::Netstat::json() (every export
// timed) plus the stats the Netstat document does not carry.
struct LayerCounters {
  // mbuf
  double mbuf_allocs = 0, mbuf_freelist_hits = 0, mbuf_high_water = 0;
  // mem
  double pin_ops = 0, pin_page_hits = 0, pin_page_misses = 0;
  // cab
  double checksum_bytes = 0, sdma_requests = 0, sdma_busy_s = 0;
  double mdma_tx_packets = 0, arb_pushes = 0, arb_max_depth = 0;
  double netmem_max_used = 0, netmem_provisioned = 0;
  // hippi: frames the fabric delivered to a CAB
  double hippi_frames = 0;
  // drivers
  double tx_fresh = 0, tx_rewrite = 0, rx_wcab = 0, copyouts = 0;
  // net
  double demux_lookups = 0, demux_probe_steps = 0, demux_max_probe = 0;
  // sim timer wheel
  double wheel_scheduled = 0, wheel_cancelled = 0, wheel_cascaded = 0;
  double wheel_max_pending = 0;

  // Export h's Netstat document (timed into netstat_ms) and add its counters.
  void add_host(core::Host& h, std::vector<double>& netstat_ms);
};

void emit_layer_counters(Report& rep, const LayerCounters& c);

// Simulated per-stage latency from the opt-in telemetry registries.
struct StageHists {
  telemetry::LogHistogram h[telemetry::kStageCount];
  void add(const telemetry::Telemetry& t);
};
void emit_stage_metrics(Report& rep, const StageHists& s);

// Seeded input generator (splitmix64): the benchmark derives every input
// from --seed; the library sees only the generated values.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

// One measured round: a fresh topology, the workload on it, and checks.
struct RoundResult {
  std::vector<double> setup_s;  // each topology built: construction + listeners
  RoundCost cost;        // the measured phase
  core::Json sim;        // simulated outputs; must repeat in every round
  std::vector<RoundCost> ref;  // reference-kernel runs inside the round
};

// --- the reference kernel ----------------------------------------------------

// The host this benchmark runs on is a few vCPUs of a shared server whose
// speed drifts by tens of percent over seconds to minutes, both between runs
// and within one: arithmetic holds steady, but memory-bound code slows as
// neighbours load the shared caches and memory, and the simulator is
// memory-bound. So host cost is reported against a yardstick measured in the
// same process at the same time: a fixed amount of benchmark-owned work
// shaped like a discrete-event simulator's inner loop (an event heap, a
// table lookup, a small allocation and a short byte sum per event). It calls
// nothing in the library, so a library change cannot move it; only the
// host's speed can.
// With `threads` > 1 the threads meet at a spinning barrier every few
// events, as the parallel engine's workers do at every epoch, so the kernel
// feels a stalled vCPU the way the engine does.
[[nodiscard]] RoundCost reference_kernel(std::size_t threads);

// Reference-kernel runs spread through a long measured phase, for workloads
// whose rounds last many seconds: benchmark code the workload calls often
// calls poll(), which runs the kernel once whenever `interval_s` of host time
// has passed since the last run. The kernel's time is taken out of the
// phase's cost by net_of(). The first poll() always runs it.
class RefSampler {
 public:
  RefSampler(double interval_s, std::size_t threads)
      : interval_s_(interval_s), threads_(threads) {}
  void poll() {
    if (!runs_.empty() && seconds_since(last_) < interval_s_) return;
    const RoundCost c = reference_kernel(threads_);
    runs_.push_back(c);
    spent_.wall_s += c.wall_s;
    spent_.cpu_s += c.cpu_s;
    last_ = Clock::now();
  }
  [[nodiscard]] RoundCost net_of(RoundCost c) const {
    return RoundCost{c.wall_s - spent_.wall_s, c.cpu_s - spent_.cpu_s};
  }
  [[nodiscard]] const std::vector<RoundCost>& runs() const noexcept { return runs_; }

 private:
  double interval_s_;
  std::size_t threads_;
  Clock::time_point last_{};
  RoundCost spent_;
  std::vector<RoundCost> runs_;
};

// Per-round host costs, folded into the end-to-end host metrics and the
// tracing overhead by emit_host_metrics. ref_wall / ref_cpu hold every
// reference-kernel run, whether before the untraced rounds or inside them.
struct RoundLog {
  std::size_t rounds = 0;
  std::vector<double> setup_s;
  std::vector<double> wall_untraced, cpu_untraced;
  std::vector<double> wall_traced;
  std::vector<double> ref_wall, ref_cpu;
};
void emit_host_metrics(Report& rep, const RoundLog& log);

// Share of an untraced round's length given to the reference kernel run
// before it (RefShare::kBetween), and the fewest kernel runs before any
// untraced round. A workload whose rounds sample the kernel themselves
// (RefSampler) passes RefShare::kWithin and gets none before its rounds.
inline constexpr double kRefShare = 0.2;
inline constexpr std::size_t kRefMinRuns = 3;
enum class RefShare { kBetween, kWithin };

// Run rounds until the time budget is spent: the next round starts only if
// it is expected to fit, and there are never fewer than two untraced rounds
// (plus one traced round between them in a traced run; untraced and traced
// rounds alternate), so a workload whose rounds take more than half the
// budget still averages over two.
// With RefShare::kBetween every untraced round is preceded by
// reference-kernel runs on `ref_threads` threads (see reference_kernel).
// `round(tr)` gets the tracer in a traced round (cleared first, so it ends
// holding the last traced round's spans) and nullptr otherwise. Every
// round's simulated outputs must equal the first round's.
template <class F>
RoundLog run_rounds(const Options& o, Report& rep, Tracer& tracer,
                    std::size_t ref_threads, RefShare share, F&& round) {
  RoundLog log;
  const auto t0 = Clock::now();
  std::string first;
  const std::size_t min_rounds = o.trace ? 3 : 2;
  double last[2] = {0.0, 0.0};  // duration of the last untraced / traced round
  double last_cost = 0.0;       // measured phase of the last untraced round
  for (std::size_t r = 0;; ++r) {
    const bool traced = o.trace && r % 2 == 1;
    const double expect = last[traced] > 0.0 ? last[traced] : last[!traced];
    if (r >= min_rounds && seconds_since(t0) + expect > o.seconds) break;
    if (traced) tracer.clear();
    const auto r0 = Clock::now();
    if (!traced && share == RefShare::kBetween) {
      double spent = 0.0;
      for (std::size_t k = 0; k < kRefMinRuns || spent < kRefShare * last_cost; ++k) {
        const RoundCost c = reference_kernel(ref_threads);
        log.ref_wall.push_back(c.wall_s);
        log.ref_cpu.push_back(c.cpu_s);
        spent += c.wall_s;
      }
    }
    RoundResult res = round(traced ? &tracer : nullptr);
    last[traced] = seconds_since(r0);
    log.setup_s.insert(log.setup_s.end(), res.setup_s.begin(), res.setup_s.end());
    ++log.rounds;
    if (traced) {
      log.wall_traced.push_back(res.cost.wall_s);
    } else {
      log.wall_untraced.push_back(res.cost.wall_s);
      log.cpu_untraced.push_back(res.cost.cpu_s);
      last_cost = res.cost.wall_s;
      for (const RoundCost& c : res.ref) {
        log.ref_wall.push_back(c.wall_s);
        log.ref_cpu.push_back(c.cpu_s);
      }
    }
    const std::string sim = res.sim.dump(0);
    if (r == 0) {
      first = sim;
      rep.info("sim_outputs", res.sim);
    } else if (sim != first) {
      rep.fail("round " + std::to_string(r) +
               " simulated outputs differ from round 0");
    }
  }
  rep.info("rounds", static_cast<std::uint64_t>(log.rounds));
  return log;
}

// The workloads. Each builds, runs and checks its own topology.
void run_paper_ttcp(const Options& o, Report& rep);
void run_matrix_sharded(const Options& o, Report& rep);
void run_conn_churn(const Options& o, Report& rep);

}  // namespace perfbench

// ParallelEngine: a conservative-lookahead parallel discrete-event engine.
//
// The simulation is partitioned into shards (one Host — or the shared fabric
// — per shard), each with its own Simulator. Time advances in epochs: the
// engine finds the globally earliest pending event at time T and opens the
// window [T, T + lookahead). Within the window every shard runs its own
// events independently on its worker thread — safe because the only
// cross-shard interaction is message passing with latency >= lookahead (the
// HIPPI link delay is the natural epoch boundary), so nothing a shard does
// inside the window can affect another shard inside the same window.
// Cross-shard sends go into per-destination outboxes and become events in the
// receiver's queue at the epoch barrier, always in a later window.
//
// Determinism contract: the same global seed produces bit-identical results
// at any worker count. Three rules make that hold:
//   1. Per-shard RNG streams derive from (global seed x stable shard id) —
//      Rng::for_stream — never from thread identity.
//   2. Shards never share mutable state; everything crosses via post().
//   3. Inbox drains are merged in a fixed order — ascending source shard id,
//      post order within a source — so the destination queue's insertion-
//      order tie-break (its `seq`) is schedule-invariant. Each source keeps a
//      `touched` list of the destinations it posted to in the epoch, so the
//      drain walks sources in id order and visits only those outboxes.
// Cost per epoch is in proportion to the work, not to the shard count
// squared: the engine keeps every shard's earliest pending time, and a shard
// with nothing due before the window end is skipped. A skipped shard's state
// is exactly what running it would have left, except its clock, which lags;
// the end of each run catches every clock up to the last window end, so
// sim(s).now() after a run reads as if every shard had run every epoch.
// The 1-worker run of this engine executes shards sequentially through the
// identical epoch schedule and serves as the determinism oracle for N-worker
// runs (tests/test_parallel.cc compares their Netstat/telemetry JSON
// byte-for-byte).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/shard.h"

namespace nectar::sim {

class ParallelEngine {
 public:
  // num_shards fixed for the engine's lifetime. `lookahead` is the epoch
  // window width; every cross-shard post must carry at least this much
  // latency. `global_seed` roots the per-shard RNG streams.
  ParallelEngine(std::size_t num_shards, Duration lookahead,
                 std::uint64_t global_seed = 1);
  ~ParallelEngine() = default;
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] std::uint64_t global_seed() const noexcept { return seed_; }

  [[nodiscard]] Simulator& sim(std::size_t shard) noexcept {
    return shards_[shard]->sim;
  }
  [[nodiscard]] Rng& rng(std::size_t shard) noexcept { return shards_[shard]->rng; }
  [[nodiscard]] const Shard& shard(std::size_t s) const noexcept {
    return *shards_[s];
  }

  // Worker threads for the next run (clamped to [1, num_shards]). Shard s is
  // owned by worker s % workers — a stable assignment, so ownership (and with
  // it determinism) does not depend on scheduling luck.
  void set_workers(std::size_t n) noexcept;
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  // Post `fn` to run on shard `dst` at absolute time `t`. Must be called
  // either from `src`'s worker during execution (the usual case: a wire
  // handoff) or from the coordinating thread while the engine is idle
  // (topology setup). Conservative rule: while running, t must be >= the
  // current window end — i.e. the poster pays >= lookahead of latency.
  void post(std::size_t src, std::size_t dst, Time t, SmallFn fn);

  // Run epochs until `done()` returns true (checked between epochs, where
  // every shard is quiescent), every queue drains, or the earliest pending
  // event lies beyond `deadline`. Returns the final done() value (false when
  // no predicate was given). `done` only reads: it must not schedule or
  // cancel events, or the engine's per-shard earliest times go stale.
  bool run_until_done(const std::function<bool()>& done, Time deadline);
  bool run(Time deadline) { return run_until_done({}, deadline); }

  // --- observability --------------------------------------------------------
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_done_; }
  [[nodiscard]] std::uint64_t total_events() const;
  // Max over shard clocks — a lower bound on global time after a run.
  [[nodiscard]] Time now() const;

 private:
  // Barrier on monotone tickets: thread k arriving for phase p takes ticket
  // p*n + k + 1; the taker of ticket (p+1)*n releases the phase. Monotone
  // counters cannot be re-armed early by a fast thread reaching the next
  // phase (the classic sense-reversal race), and the release store / acquire
  // load pair carries the happens-before edge between epoch phases.
  class PhaseBarrier {
   public:
    void reset(unsigned n) noexcept {
      n_ = n;
      arrivals_.store(0, std::memory_order_relaxed);
      released_.store(0, std::memory_order_relaxed);
    }
    void arrive_and_wait() noexcept;

   private:
    unsigned n_ = 1;
    std::atomic<std::uint64_t> arrivals_{0};
    std::atomic<std::uint64_t> released_{0};
  };

  void worker_main(std::size_t w);
  void run_epoch_as(std::size_t w);
  void exec_window(Shard& sh);
  // Drain phase of worker `w` of `nw`: move every message posted this epoch
  // to a shard that worker owns into the shard's queue.
  void drain_as(std::size_t w, std::size_t nw);
  [[nodiscard]] Time min_next_time() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  Duration lookahead_;
  std::uint64_t seed_;
  std::size_t workers_ = 1;
  // next_[s]: shard s's earliest pending event time (kNoEvent when empty).
  // Written by s's owner after its exec and by its drain, read by the
  // coordinator between epochs; the barriers order the two.
  std::vector<Time> next_;

  // Epoch machinery. window_end_ is plain: it is written by the coordinator
  // only while every worker is parked between epochs, and the epoch_ bump
  // (release) / worker load (acquire) publishes it.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  PhaseBarrier barrier_;
  Time window_end_ = 0;
  bool running_ = false;
  std::uint64_t epochs_done_ = 0;
};

}  // namespace nectar::sim

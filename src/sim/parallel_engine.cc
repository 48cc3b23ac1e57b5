#include "sim/parallel_engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace nectar::sim {

namespace {

// Brief pause, escalating to a scheduler yield: on a loaded (or single-core)
// machine a waiting worker must hand the CPU to whoever holds the work.
inline void relax(int& spins) noexcept {
  if (++spins < 16) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

void ParallelEngine::PhaseBarrier::arrive_and_wait() noexcept {
  if (n_ <= 1) return;
  const std::uint64_t ticket =
      arrivals_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const std::uint64_t target = ((ticket - 1) / n_ + 1) * n_;
  if (ticket == target) {
    released_.store(target, std::memory_order_release);
  } else {
    int spins = 0;
    while (released_.load(std::memory_order_acquire) < target) relax(spins);
  }
}

ParallelEngine::ParallelEngine(std::size_t num_shards, Duration lookahead,
                               std::uint64_t global_seed)
    : lookahead_(lookahead), seed_(global_seed) {
  if (num_shards == 0) num_shards = 1;
  if (lookahead_ <= 0)
    throw std::invalid_argument("ParallelEngine: lookahead must be positive");
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s)
    shards_.push_back(std::make_unique<Shard>(s, global_seed, num_shards));
  next_.assign(num_shards, Simulator::kNoEvent);
}

void ParallelEngine::set_workers(std::size_t n) noexcept {
  workers_ = std::clamp<std::size_t>(n, 1, shards_.size());
}

void ParallelEngine::post(std::size_t src, std::size_t dst, Time t, SmallFn fn) {
  assert(src < shards_.size() && dst < shards_.size());
  // Conservative-lookahead invariant: a running epoch may only produce work
  // for windows after its own.
  assert(!running_ || t >= window_end_);
  Shard& s = *shards_[src];
  auto& box = s.outbox[dst];
  if (box.empty()) s.touched.push_back(dst);
  box.push_back(ShardMsg{t, std::move(fn)});
  ++s.posts_out;
}

void ParallelEngine::exec_window(Shard& sh) {
  // Last epoch's drain has read this shard's touched list; posts start afresh.
  sh.touched.clear();
  Time& next = next_[sh.id];
  // Idle shard: nothing due in this window, so it is not run and its clock
  // lags until the run's final catch-up.
  if (next >= window_end_) return;
  const std::uint64_t before = sh.sim.events_processed();
  // Events at exactly window_end_ belong to the next window.
  sh.sim.run_until(window_end_ - 1);
  if (sh.sim.events_processed() != before) ++sh.busy_epochs;
  next = sh.sim.next_time();
  sh.max_pending = std::max(sh.max_pending, sh.sim.pending());
}

void ParallelEngine::drain_as(std::size_t w, std::size_t nw) {
  // Fixed merge order — ascending source shard, post order within a source —
  // so each destination heap's insertion-order tie-break is schedule-
  // invariant. Only destinations some source posted to are visited, so the
  // cost is O(sources + messages), not O(sources x destinations).
  for (const auto& src : shards_) {
    for (const std::size_t d : src->touched) {
      if (d % nw != w) continue;
      Shard& dst = *shards_[d];
      auto& box = src->outbox[d];
      for (ShardMsg& m : box) {
        next_[d] = std::min(next_[d], m.t);
        dst.sim.at(m.t, std::move(m.fn));
      }
      dst.posts_in += box.size();
      box.clear();
      dst.max_pending = std::max(dst.max_pending, dst.sim.pending());
    }
  }
}

Time ParallelEngine::min_next_time() const {
  return *std::min_element(next_.begin(), next_.end());
}

void ParallelEngine::run_epoch_as(std::size_t w) {
  for (std::size_t s = w; s < shards_.size(); s += workers_)
    exec_window(*shards_[s]);
  barrier_.arrive_and_wait();
  drain_as(w, workers_);
  barrier_.arrive_and_wait();
}

void ParallelEngine::worker_main(std::size_t w) {
  // Baseline is the value epoch_ held when the pool was spawned (0), NOT a
  // fresh load: the coordinator may bump epoch_ before this thread first
  // runs, and loading here would swallow that epoch and deadlock the barrier.
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e;
    int spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) relax(spins);
    seen = e;
    if (stop_.load(std::memory_order_acquire)) return;
    run_epoch_as(w);
  }
}

bool ParallelEngine::run_until_done(const std::function<bool()>& done,
                                    Time deadline) {
  // Setup-time posts (topology wiring before the first run) sit in outboxes;
  // surface them so the first window sees every event. The coordinator may
  // also have scheduled events directly, so every shard's earliest time is
  // read afresh.
  drain_as(0, 1);
  for (auto& sh : shards_) {
    sh->touched.clear();
    next_[sh->id] = sh->sim.next_time();
    sh->max_pending = std::max(sh->max_pending, sh->sim.pending());
  }

  bool is_done = done && done();
  if (is_done) return true;

  const std::size_t nw = workers_;
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  barrier_.reset(static_cast<unsigned>(nw));
  epoch_.store(0, std::memory_order_relaxed);

  std::vector<std::thread> pool;
  pool.reserve(nw > 0 ? nw - 1 : 0);
  for (std::size_t w = 1; w < nw; ++w)
    pool.emplace_back([this, w] { worker_main(w); });

  const std::uint64_t first_epoch = epochs_done_;
  for (;;) {
    const Time next = min_next_time();
    if (next == Simulator::kNoEvent || next > deadline) break;
    window_end_ = next + lookahead_;
    // Publishes window_end_ to the workers and starts the epoch.
    epoch_.fetch_add(1, std::memory_order_release);
    run_epoch_as(0);
    ++epochs_done_;
    // Every shard is quiescent here: execution and drains are barriered, so
    // the predicate reads a consistent cross-shard snapshot.
    if (done && done()) {
      is_done = true;
      break;
    }
  }

  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  for (auto& t : pool) t.join();
  running_ = false;
  // Skipped shards' clocks lag. Every shard's clock ends the run at the last
  // window's end - 1, as if every shard had run every epoch.
  if (epochs_done_ != first_epoch)
    for (auto& sh : shards_) sh->sim.run_until(window_end_ - 1);
  return is_done;
}

std::uint64_t ParallelEngine::total_events() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sim.events_processed();
  return n;
}

Time ParallelEngine::now() const {
  Time t = 0;
  for (const auto& sh : shards_) t = std::max(t, sh->sim.now());
  return t;
}

}  // namespace nectar::sim

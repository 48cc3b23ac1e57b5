// One shard of the parallel simulation engine: a private event queue, a
// derived RNG stream, and the outboxes that carry cross-shard work.
//
// Ownership discipline (what makes the engine lock-free on the message path):
// while an epoch's execution phase runs, a shard's Simulator, Rng, outboxes
// and touched list are written only by the worker that owns the shard. During
// the drain phase every worker reads every source's touched list, and
// outbox[dst] is read and cleared only by the worker that owns `dst`; the
// source's owner clears its touched list when the next execution phase
// starts. The engine's barriers separate the phases, so no per-message
// locking or atomics are needed — the happens-before edges come from the
// barrier, exactly once per epoch instead of once per message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace nectar::sim {

// A cross-shard message: a callback to run on the destination shard at `t`.
// Conservative rule: `t` must lie at or beyond the epoch window in which the
// message was posted (the poster pays at least one lookahead of latency), so
// a drained message can never land in a destination's already-executed past.
struct ShardMsg {
  Time t;
  SmallFn fn;
};

struct Shard {
  Shard(std::size_t id, std::uint64_t global_seed, std::size_t num_shards)
      : id(id), rng(Rng::for_stream(global_seed, id)), outbox(num_shards) {}
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::size_t id;
  Simulator sim;
  // Seeded from (global seed x stable shard id) — never from thread identity,
  // so the stream is invariant under worker count and schedule.
  Rng rng;
  // outbox[dst]: messages this shard posted for `dst` in the current epoch,
  // in post order (== this shard's deterministic execution order).
  std::vector<std::vector<ShardMsg>> outbox;
  // Destinations whose outbox this shard made non-empty this epoch, in first-
  // post order: the drain visits only these, not every outbox.
  std::vector<std::size_t> touched;

  // --- stats (single-writer: the owning worker, or the drain owner) --------
  std::uint64_t posts_out = 0;   // cross-shard messages sent
  std::uint64_t posts_in = 0;    // cross-shard messages received
  std::uint64_t busy_epochs = 0; // epochs in which this shard ran >= 1 event
  std::size_t max_pending = 0;   // queue-depth high water, sampled after
                                 // each exec and drain that changes it
};

}  // namespace nectar::sim

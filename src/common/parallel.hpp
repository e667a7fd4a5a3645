// Host-side data parallelism.
//
// The reference CPU operators (the functional oracle, and the real-machine
// data points in the benches) parallelize over output channels/rows with
// ParallelFor, which splits an index range into one contiguous chunk per
// worker. Each call spawns its workers as fresh std::threads and joins them
// before returning; there is no pool, so every dispatch pays thread start-up.
// The worker count is a per-call parameter so the TVM-nT thread sweeps of
// the paper's Figures 6.4-6.7 can be reproduced faithfully.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

namespace clflow {

/// Number of hardware threads available to the process (>= 1).
[[nodiscard]] int HardwareThreads();

/// Wall-clock accounting for one ParallelFor/ParallelChunks dispatch.
/// `imbalance_wait_us` is the total time workers (and the joining caller)
/// sat idle waiting for the slowest chunk -- the cost of static chunking
/// when per-item work is skewed (e.g. DSE compile-cache misses clustering
/// in one chunk). Accumulate it across calls to attribute "parallel was
/// slower than expected" to load imbalance rather than per-item cost.
struct ParallelStats {
  int workers = 0;       ///< workers actually spawned (1 = inline)
  double wall_us = 0.0;  ///< dispatch-to-join wall time
  double busy_us = 0.0;  ///< sum of per-worker busy time
  /// Sum over workers of (wall - busy): idle worker-time lost to chunk
  /// skew and spawn latency. 0 for inline execution.
  double imbalance_wait_us = 0.0;

  ParallelStats& operator+=(const ParallelStats& o) {
    workers = std::max(workers, o.workers);
    wall_us += o.wall_us;
    busy_us += o.busy_us;
    imbalance_wait_us += o.imbalance_wait_us;
    return *this;
  }
};

/// Runs fn(i) for i in [begin, end) using up to `num_threads` workers.
/// num_threads <= 1 executes inline on the calling thread. The function must
/// be safe to invoke concurrently for distinct indices. Exceptions thrown by
/// fn propagate to the caller (first one wins). When `stats` is non-null it
/// is overwritten (not accumulated) with this dispatch's accounting.
void ParallelFor(std::int64_t begin, std::int64_t end, int num_threads,
                 const std::function<void(std::int64_t)>& fn,
                 ParallelStats* stats = nullptr);

/// Static chunking variant: fn(chunk_begin, chunk_end) per worker. Lower
/// dispatch overhead for very fine-grained bodies.
void ParallelChunks(std::int64_t begin, std::int64_t end, int num_threads,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    ParallelStats* stats = nullptr);

}  // namespace clflow

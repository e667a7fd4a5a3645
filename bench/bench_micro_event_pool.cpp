// Microbenchmark of the runtime's SoA EventPool against the AoS
// vector-of-structs event representation it replaced (kept below as the
// bench-local AosEvent baseline).
//
// The workload mirrors a steady-state serving loop -- the pattern
// BuildProfile and the HA layer drive: record one batch of events (a
// small, fixed label set, exactly what a compiled deployment produces),
// read them back once, clear, repeat. The AoS representation re-pays a
// heap-allocated label string per event every batch; the pool interns
// labels once and recycles slots, so steady state allocates nothing.
//
// Writes BENCH_micro_event_pool.json. CI gates `pool.speedup.steady`
// against the committed baseline (>= 1.5x is the claim this bench
// establishes); raw wall.* figures are host-dependent and never gated.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ocl/event_pool.hpp"

using namespace clflow;

namespace {

constexpr int kBatches = 2000;
constexpr int kEventsPerBatch = 64;
constexpr int kWarmupBatches = 50;

// A deployment-shaped label set. Runtime labels are the planner's
// "k_" + <grouping key> names (see deployment.cpp), e.g.
// "k_conv_c32f64k3s1p1_b1_a1_node4" -- 25-40 characters, past any
// small-string optimization, so the AoS path really heap-allocates a
// copy per recorded event exactly like Runtime::RecordEvent used to.
const std::vector<std::string>& Labels() {
  static const std::vector<std::string> labels = {
      "write input@ddr_bank0",
      "k_conv_c3f32k3s2p1_b1_a1_node1",
      "k_conv_dw_c32f32k3s1p1_b1_a1_node2",
      "k_conv_pw_c32f64k1s1p0_b1_a1_node3",
      "k_conv_dw_c64f64k3s2p1_b1_a1_node4",
      "k_conv_pw_c64f128k1s1p0_b1_a1_node5",
      "k_conv_dw_c128f128k3s1p1_b1_a1_node6",
      "k_conv_pw_c128f128k1s1p0_b1_a1_node7",
      "k_pool_avg_c1024w7_node8",
      "k_dense_c1024f1000_b1_a0_node9",
      "k_softmax_c1000_node10",
      "read logits@ddr_bank1",
  };
  return labels;
}

/// The replaced AoS record: one owning label string per event.
struct AosEvent {
  std::string label;
  ocl::CommandKind kind = ocl::CommandKind::kKernel;
  int queue = 0;
  SimTime queued, start, end, stall;
  std::int64_t bytes = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

double AosSteadyUs(std::uint64_t* checksum) {
  const auto& labels = Labels();
  std::vector<AosEvent> events;
  std::uint64_t sum = 0;
  auto run_batch = [&](int batch) {
    for (int i = 0; i < kEventsPerBatch; ++i) {
      AosEvent ev;
      ev.label = labels[static_cast<std::size_t>(i) % labels.size()];
      ev.kind = ocl::CommandKind::kKernel;
      ev.queue = i % 4;
      ev.queued = SimTime::Us(batch);
      ev.start = SimTime::Us(batch + 1);
      ev.end = SimTime::Us(batch + 2);
      ev.stall = SimTime();
      ev.bytes = i;
      ev.trace_id = static_cast<std::uint64_t>(batch);
      ev.span_id = static_cast<std::uint64_t>(i);
      events.push_back(std::move(ev));
    }
    for (const auto& ev : events) {
      sum += static_cast<std::uint64_t>(ev.label.size()) +
             static_cast<std::uint64_t>(ev.bytes);
    }
    events.clear();
  };
  for (int b = 0; b < kWarmupBatches; ++b) run_batch(b);
  const auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) run_batch(b);
  const auto t1 = std::chrono::steady_clock::now();
  *checksum = sum;
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

double PoolSteadyUs(std::uint64_t* checksum) {
  const auto& labels = Labels();
  ocl::EventPool pool;
  std::uint64_t sum = 0;
  auto run_batch = [&](int batch) {
    for (int i = 0; i < kEventsPerBatch; ++i) {
      pool.Record(labels[static_cast<std::size_t>(i) % labels.size()],
                  ocl::CommandKind::kKernel, i % 4, SimTime::Us(batch),
                  SimTime::Us(batch + 1), SimTime::Us(batch + 2), SimTime(),
                  i, static_cast<std::uint64_t>(batch),
                  static_cast<std::uint64_t>(i), 0);
    }
    for (const auto ev : pool) {
      sum += static_cast<std::uint64_t>(ev.label.size()) +
             static_cast<std::uint64_t>(ev.bytes);
    }
    pool.Clear();
  };
  for (int b = 0; b < kWarmupBatches; ++b) run_batch(b);
  const auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) run_batch(b);
  const auto t1 = std::chrono::steady_clock::now();
  *checksum = sum;
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

int main() {
  bench::Banner("SoA event pool vs AoS event vector",
                "runtime event-recording hot path");

  // Per-rep pairing: measure both representations back-to-back inside
  // each rep (alternating which goes first) and gate on the median of
  // per-rep ratios. Pairing cancels the slow timing drift a shared/VM
  // host shows between invocations; independent medians do not.
  constexpr int kReps = 11;
  std::vector<double> aos_us, pool_us, ratios;
  std::uint64_t aos_sum = 0, pool_sum = 0;
  for (int r = 0; r < kReps; ++r) {
    double a = 0, p = 0;
    if (r % 2 == 0) {
      a = AosSteadyUs(&aos_sum);
      p = PoolSteadyUs(&pool_sum);
    } else {
      p = PoolSteadyUs(&pool_sum);
      a = AosSteadyUs(&aos_sum);
    }
    aos_us.push_back(a);
    pool_us.push_back(p);
    ratios.push_back(a / p);
  }
  if (aos_sum != pool_sum) {
    std::fprintf(stderr,
                 "CHECKSUM MISMATCH: aos %" PRIu64 " vs pool %" PRIu64
                 " -- the two paths read back different events\n",
                 aos_sum, pool_sum);
    return 1;
  }

  const double aos = bench::Median(aos_us);
  const double pool = bench::Median(pool_us);
  const double per_event_ns_aos =
      aos * 1e3 / (static_cast<double>(kBatches) * kEventsPerBatch);
  const double per_event_ns_pool =
      pool * 1e3 / (static_cast<double>(kBatches) * kEventsPerBatch);
  const double speedup = bench::Median(ratios);

  std::printf("%d batches x %d events, median of %d reps:\n", kBatches,
              kEventsPerBatch, kReps);
  std::printf("  AoS vector  %8.0f us  (%.1f ns/event)\n", aos,
              per_event_ns_aos);
  std::printf("  SoA pool    %8.0f us  (%.1f ns/event)\n", pool,
              per_event_ns_pool);
  std::printf("  speedup     %.2fx\n", speedup);

  ocl::EventPool probe;
  for (int i = 0; i < kEventsPerBatch; ++i) {
    probe.Record(Labels()[static_cast<std::size_t>(i) % Labels().size()],
                 ocl::CommandKind::kKernel, 0, SimTime(), SimTime(),
                 SimTime(), SimTime(), 0, 0, 0, 0);
  }
  std::printf("  pool after one batch: %zu slots, %zu distinct labels\n",
              probe.slots(), probe.distinct_labels());

  bench::BenchSnapshot json("micro_event_pool");
  json.Metric("pool.speedup.steady", speedup);
  json.Metric("pool.batch.events", kEventsPerBatch);
  json.Metric("pool.batch.distinct_labels",
              static_cast<double>(probe.distinct_labels()));
  json.Metric("wall.aos.steady_us", aos);
  json.Metric("wall.pool.steady_us", pool);
  json.Metric("wall.aos.per_event_ns", per_event_ns_aos);
  json.Metric("wall.pool.per_event_ns", per_event_ns_pool);
  json.Write();
  return 0;
}

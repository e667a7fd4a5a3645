// Tests for the simulated OpenCL runtime: queue semantics, channels,
// autorun, concurrent execution, profiling, and the functional layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataflow_checker.hpp"
#include "common/error.hpp"
#include "ir/op_kernels.hpp"
#include "ocl/runtime.hpp"

namespace clflow::ocl {
namespace {

/// A bitstream with `n` trivial kernels named k0..k(n-1).
struct TestDesign {
  std::vector<ir::BuiltKernel> built;
  fpga::Bitstream bitstream;
};

TestDesign MakeDesign(int n, const fpga::BoardSpec& board) {
  TestDesign d;
  std::vector<fpga::SynthInput> inputs;
  d.built.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string name(1, 'k');
    name += std::to_string(i);
    d.built.push_back(ir::BuildCopyKernel(1024, name));
  }
  for (const auto& b : d.built) inputs.push_back({&b.kernel, {}});
  d.bitstream = fpga::Synthesize(inputs, board);
  return d;
}

ir::KernelStats FixedCycles(double cycles) {
  ir::KernelStats stats;
  stats.compute_cycles = cycles;
  return stats;
}

TEST(Runtime, RejectsFailedBitstream) {
  fpga::Bitstream bad;
  bad.status = fpga::SynthStatus::kFitError;
  EXPECT_THROW(Runtime rt(bad), Error);
}

TEST(Runtime, WriteKernelReadOrdering) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  auto buf = rt.CreateBuffer(1024);
  std::vector<float> src(1024, 2.5f), dst(1024, 0.0f);

  rt.EnqueueWrite(0, buf, src);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
  rt.EnqueueRead(0, buf, dst);
  const SimTime t = rt.Finish();

  // Functional copy happened.
  EXPECT_FLOAT_EQ(dst[7], 2.5f);
  // Events are ordered: write < kernel < read.
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_LE(ev[0].end, ev[1].start);
  EXPECT_LE(ev[1].end, ev[2].start);
  EXPECT_EQ(t.ps(), ev[2].end.ps());
}

TEST(Runtime, InOrderQueueSerializesAndPaysLaunch) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(10000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
  rt.EnqueueKernel(0, {.name = "k1", .stats = FixedCycles(10000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
  rt.Finish();
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 2u);
  // Second kernel starts at least launch-overhead after the first ends.
  const double gap_us = (ev[1].start - ev[0].end).us();
  EXPECT_NEAR(gap_us, fpga::Stratix10SX().kernel_launch_us, 1.0);
}

TEST(Runtime, ConcurrentQueuesOverlap) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  const int q1 = rt.CreateQueue();
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(100000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
  rt.EnqueueKernel(q1, {.name = "k1", .stats = FixedCycles(100000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
  const SimTime t = rt.Finish();
  const auto& ev = rt.event_pool();
  // Independent kernels on separate queues overlap almost entirely.
  EXPECT_LT(ev[1].start, ev[0].end);
  EXPECT_LT(t.us(), 2.0 * ev[0].duration().us());
}

TEST(Runtime, ChannelsChainProducerToConsumer) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  const int q1 = rt.CreateQueue();
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(50000),
                       .functional = {},
                       .reads_channels = {},
                       .writes_channels = {"ch"}});
  rt.EnqueueKernel(q1, {.name = "k1", .stats = FixedCycles(50000),
                        .functional = {},
                        .reads_channels = {"ch"},
                        .writes_channels = {}});
  rt.Finish();
  const auto& ev = rt.event_pool();
  EXPECT_GE(ev[1].start, ev[0].end);
}

TEST(Runtime, ChannelWithoutProducerThrows) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  EXPECT_THROW(rt.EnqueueKernel(0, {.name = "k0",
                                    .stats = FixedCycles(10),
                                    .functional = {},
                                    .reads_channels = {"nope"},
                                    .writes_channels = {}}),
               RuntimeApiError);
}

TEST(Runtime, ChannelWithoutProducerNamesTheStaticCode) {
  // The dynamic failure cites the same CLF code the static dataflow
  // checker uses, and the static checker fires on the equivalent plan
  // before any runtime exists (regression for the static-fires-first
  // contract).
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  try {
    rt.EnqueueKernel(0, {.name = "k0",
                         .stats = FixedCycles(10),
                         .functional = {},
                         .reads_channels = {"nope"},
                         .writes_channels = {}});
    FAIL() << "expected RuntimeApiError";
  } catch (const RuntimeApiError& e) {
    EXPECT_NE(std::string(e.what()).find("CLF201"), std::string::npos)
        << e.what();
  }

  analysis::Plan plan;
  analysis::PlanStep step;
  step.kernel = "k0";
  step.reads = {"nope"};
  plan.steps.push_back(std::move(step));
  analysis::DiagnosticEngine engine;
  EXPECT_GT(analysis::CheckDataflow(plan, engine), 0);
  ASSERT_FALSE(engine.ByCode("CLF201").empty());
  EXPECT_EQ(engine.ByCode("CLF201")[0].severity, analysis::Severity::kError);
}

TEST(Runtime, SecondWriterOnChannelThrowsClf202) {
  // Intel channels are point-to-point; a second producer in one batch is
  // a CLF202 both statically and at (simulated) execution time.
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(10),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {"ch"}});
  try {
    rt.EnqueueKernel(0, {.name = "k1", .stats = FixedCycles(10),
                         .functional = {}, .reads_channels = {},
                         .writes_channels = {"ch"}});
    FAIL() << "expected RuntimeApiError";
  } catch (const RuntimeApiError& e) {
    EXPECT_NE(std::string(e.what()).find("CLF202"), std::string::npos)
        << e.what();
  }
}

TEST(Runtime, ChannelWriterTrackingResetsPerBatch) {
  // One writer per batch is legal across any number of batches.
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  for (int batch = 0; batch < 2; ++batch) {
    rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(10),
                         .functional = {}, .reads_channels = {},
                         .writes_channels = {"ch"}});
    rt.EnqueueKernel(0, {.name = "k1", .stats = FixedCycles(10),
                         .functional = {}, .reads_channels = {"ch"},
                         .writes_channels = {}});
    rt.Finish();
  }
  EXPECT_EQ(rt.kernel_usage().at("k0").invocations, 2);
}

TEST(Runtime, AutorunSkipsDispatchOverhead) {
  TestDesign d = MakeDesign(3, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(50000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {"a"}});
  rt.RunAutorun({.name = "k1", .stats = FixedCycles(50000), .functional = {},
                 .reads_channels = {"a"}, .writes_channels = {"b"}});
  rt.EnqueueKernel(0, {.name = "k2", .stats = FixedCycles(50000),
                       .functional = {}, .reads_channels = {"b"},
                       .writes_channels = {}});
  rt.Finish();
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 3u);
  // The autorun kernel starts the moment its channel is ready: no gap.
  EXPECT_EQ(ev[1].start.ps(), ev[0].end.ps());
  EXPECT_EQ(ev[1].queue, -1);
}

TEST(Runtime, UnknownKernelRejected) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  EXPECT_THROW(
      rt.EnqueueKernel(0, {.name = "ghost", .stats = FixedCycles(10), .functional = {},
       .reads_channels = {}, .writes_channels = {}}),
      RuntimeApiError);
}

TEST(Runtime, ResolvingAKernelMissingFromTheBitstreamRaisesClf501) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  try {
    (void)rt.Resolve({.name = "ghost", .stats = FixedCycles(10),
                      .functional = {}, .reads_channels = {},
                      .writes_channels = {}},
                     0, /*autorun=*/false);
    FAIL() << "resolving an unknown kernel must throw";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF501");
    EXPECT_EQ(e.kernel(), "ghost");
  }
  const LaunchRow row =
      rt.Resolve({.name = "k0", .stats = FixedCycles(10), .functional = {},
                  .reads_channels = {"a"}, .writes_channels = {"b"}},
                 0, /*autorun=*/false);
  EXPECT_EQ(row.design, &rt.bitstream().kernels[0]);
  EXPECT_EQ(row.kernel_id, 0);
  EXPECT_EQ(row.label, "k0");
  EXPECT_EQ(row.reads, std::vector<int>{0});
  EXPECT_EQ(row.writes, std::vector<int>{1});
}

TEST(Runtime, ReusedLaunchRowsMatchFreshLaunchesAcrossADroop) {
  // Rows resolved once and dispatched on three batches must record the
  // same event times as three batches of freshly built launches, also
  // when a thermal droop changes the clock between batches 2 and 3: the
  // rows' cached invocation times must follow the clock.
  TestDesign d = MakeDesign(3, fpga::Stratix10SX());
  const KernelLaunch head{.name = "k0", .stats = FixedCycles(50000),
                          .functional = {}, .reads_channels = {},
                          .writes_channels = {"a"}};
  const KernelLaunch middle{.name = "k1", .stats = FixedCycles(30000),
                            .functional = {}, .reads_channels = {"a"},
                            .writes_channels = {"b"}};
  const KernelLaunch tail{.name = "k2", .stats = FixedCycles(20000),
                          .functional = {}, .reads_channels = {"b"},
                          .writes_channels = {}};
  resilience::FaultPlan droop;
  droop.specs.push_back(resilience::ParseFaultSpec("fmax-droop:0.8"));

  auto run = [&](bool reuse) {
    Runtime rt(d.bitstream);
    std::vector<LaunchRow> rows;
    if (reuse) {
      rows.push_back(rt.Resolve(head, 0, /*autorun=*/false));
      rows.push_back(rt.Resolve(middle, 0, /*autorun=*/true));
      rows.push_back(rt.Resolve(tail, 0, /*autorun=*/false));
    }
    for (int batch = 0; batch < 3; ++batch) {
      if (batch == 2) {
        rt.set_fault_injector(
            std::make_shared<resilience::FaultInjector>(droop));
      }
      if (reuse) {
        for (LaunchRow& row : rows) rt.Dispatch(row, {});
      } else {
        rt.EnqueueKernel(0, head);
        rt.RunAutorun(middle);
        rt.EnqueueKernel(0, tail);
      }
      (void)rt.Finish();
    }
    std::vector<std::int64_t> times;
    for (const EventPool::View ev : rt.event_pool()) {
      times.insert(times.end(), {ev.queued.ps(), ev.start.ps(), ev.end.ps(),
                                 ev.stall.ps()});
    }
    return times;
  };
  const std::vector<std::int64_t> fresh = run(/*reuse=*/false);
  const std::vector<std::int64_t> reused = run(/*reuse=*/true);
  ASSERT_EQ(fresh.size(), 9u * 4u);
  EXPECT_EQ(reused, fresh);
  // The droop stretched the third batch: k0 runs 1/0.8 times longer.
  const std::int64_t first = fresh[2] - fresh[1];
  const std::int64_t third = fresh[6 * 4 + 2] - fresh[6 * 4 + 1];
  EXPECT_NEAR(static_cast<double>(third) / static_cast<double>(first), 1.25,
              0.01);
}

TEST(Runtime, ProfilingSerializesHost) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());

  auto run = [&](bool profiling) {
    Runtime rt(d.bitstream);
    rt.set_profiling(profiling);
    const int q1 = rt.CreateQueue();
    rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(100000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
    rt.EnqueueKernel(q1, {.name = "k1", .stats = FixedCycles(100000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
    return rt.Finish();
  };
  // With the event profiler on, the host waits per command: no overlap.
  EXPECT_GT(run(true).us(), 1.8 * run(false).us() * 0.5);
  EXPECT_GT(run(true).us(), run(false).us());
}

TEST(Runtime, FinishResetsBatchAccounting) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(100000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
  const SimTime first = rt.Finish();
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(100000), .functional = {}, .reads_channels = {}, .writes_channels = {}});
  const SimTime second = rt.Finish();
  EXPECT_NEAR(first.us(), second.us(), 5.0);
  EXPECT_GE(rt.now(), first + second - SimTime::Us(1));
}

TEST(Runtime, FunctionalFunctorRuns) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  int calls = 0;
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(10),
                       .functional = [&calls] { ++calls; },
                       .reads_channels = {}, .writes_channels = {}});
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(10), .functional = {},
                       .reads_channels = {}, .writes_channels = {}});
  EXPECT_EQ(calls, 1);
}

TEST(Runtime, WriteLargerThanBufferRejected) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  auto buf = rt.CreateBuffer(16);
  std::vector<float> big(32, 0.0f);
  EXPECT_THROW(rt.EnqueueWrite(0, buf, big), Error);
}

TEST(Runtime, QueueBusyPlusIdleSumsToMakespan) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  const int q1 = rt.CreateQueue();
  auto buf = rt.CreateBuffer(1024);
  std::vector<float> src(1024, 1.0f);
  rt.EnqueueWrite(0, buf, src);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(100000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  rt.EnqueueKernel(q1, {.name = "k1", .stats = FixedCycles(10000),
                        .functional = {}, .reads_channels = {},
                        .writes_channels = {}});
  const SimTime makespan = rt.Finish();
  for (int q = 0; q < rt.num_queues(); ++q) {
    const auto usage = rt.queue_usage(q);
    EXPECT_NEAR((usage.busy + usage.idle).us(), makespan.us(), 1e-6)
        << "queue " << q;
  }
  // The long-running queue 0 is busier than the short-running queue 1.
  EXPECT_GT(rt.queue_usage(0).busy, rt.queue_usage(q1).busy);
  EXPECT_LT(rt.queue_usage(0).idle, rt.queue_usage(q1).idle);
}

TEST(Runtime, ChannelStallAttributedToBlockedReader) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  const int q1 = rt.CreateQueue();
  // Slow producer on queue 0; the reader on queue 1 is enqueued
  // immediately and must stall until the channel has data.
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(500000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {"ch"}});
  rt.EnqueueKernel(q1, {.name = "k1", .stats = FixedCycles(1000),
                        .functional = {}, .reads_channels = {"ch"},
                        .writes_channels = {}});
  rt.Finish();

  ASSERT_EQ(rt.channel_stall().count("ch"), 1u);
  EXPECT_GT(rt.channel_stall().at("ch"), kSimTimeZero);
  // The reader's profiled event carries its own stall time.
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].stall, kSimTimeZero);
  EXPECT_GT(ev[1].stall, kSimTimeZero);
  // The stall is roughly the producer's runtime (reader enqueued at ~0).
  EXPECT_GT(ev[1].stall.us(), 0.5 * ev[0].duration().us());
}

TEST(Runtime, TransferByteAccountingAndMetricsExport) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  auto buf = rt.CreateBuffer(1024);
  std::vector<float> src(1024, 1.0f), dst(1024, 0.0f);
  rt.EnqueueWrite(0, buf, src);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  rt.EnqueueRead(0, buf, dst);
  rt.Finish();

  EXPECT_EQ(rt.bytes_h2d(), 1024 * 4);
  EXPECT_EQ(rt.bytes_d2h(), 1024 * 4);
  EXPECT_EQ(rt.kernel_usage().at("k0").invocations, 1);

  obs::Registry reg;
  rt.ExportMetrics(reg, {{"board", "s10sx"}});
  EXPECT_DOUBLE_EQ(
      reg.gauge("ocl.xfer.h2d_bytes", {{"board", "s10sx"}}).value(),
      1024.0 * 4.0);
  EXPECT_GT(reg.gauge("ocl.queue.busy_us", {{"board", "s10sx"},
                                            {"queue", "0"}})
                .value(),
            0.0);
  EXPECT_GT(
      reg.gauge("ocl.kernel.total_us",
                {{"board", "s10sx"}, {"kernel", "k0"}})
          .value(),
      0.0);
}

TEST(Runtime, EmptyBatchMakespanIsZero) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  // Finish with nothing enqueued: zero makespan, no time advances.
  EXPECT_EQ(rt.Finish().ps(), 0);
  EXPECT_EQ(rt.now().ps(), 0);
  // Same after a real batch: an immediately-following empty Finish is a
  // zero-length batch, not a repeat of the previous makespan.
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(10000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  EXPECT_GT(rt.Finish().ps(), 0);
  EXPECT_EQ(rt.Finish().ps(), 0);
  EXPECT_EQ(rt.Finish().ps(), 0);
}

TEST(Runtime, ClearEventsKeepsCumulativeUsage) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(50000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  rt.Finish();
  const auto usage_before = rt.queue_usage(0);
  ASSERT_GT(usage_before.busy, kSimTimeZero);

  rt.ClearEvents();
  // The event log is gone but the accumulated accounting is not.
  EXPECT_TRUE(rt.event_pool().empty());
  EXPECT_EQ(rt.queue_usage(0).busy.ps(), usage_before.busy.ps());
  EXPECT_EQ(rt.queue_usage(0).idle.ps(), usage_before.idle.ps());
  EXPECT_EQ(rt.kernel_usage().at("k0").invocations, 1);

  // A second batch keeps accumulating on top of the cleared log.
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(50000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  rt.Finish();
  EXPECT_EQ(rt.event_pool().size(), 1u);
  EXPECT_GT(rt.queue_usage(0).busy, usage_before.busy);
  EXPECT_EQ(rt.kernel_usage().at("k0").invocations, 2);
}

TEST(EventPool, IdsAreStableAndNeverReused) {
  EventPool pool;
  const auto rec = [&pool](std::string_view label) {
    return pool.Record(label, CommandKind::kKernel, 0, SimTime(), SimTime(),
                       SimTime(), SimTime(), 0, 0, 0, 0);
  };
  const auto id1 = rec("alpha");
  const auto id2 = rec("beta");
  const auto id3 = rec("alpha");
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(id2, 2u);
  EXPECT_EQ(id3, 3u);
  ASSERT_TRUE(pool.Find(id2).has_value());
  EXPECT_EQ(pool.Find(id2)->label, "beta");

  pool.Clear();
  EXPECT_TRUE(pool.empty());
  // Cleared ids are gone for good...
  EXPECT_FALSE(pool.Find(id1).has_value());
  EXPECT_FALSE(pool.Find(id3).has_value());
  // ...and never handed out again, even though slots are recycled.
  const auto id4 = rec("gamma");
  EXPECT_EQ(id4, 4u);
  EXPECT_EQ(pool.total_recorded(), 4u);
  ASSERT_TRUE(pool.Find(id4).has_value());
  EXPECT_EQ(pool.Find(id4)->label, "gamma");
}

TEST(EventPool, ClearRecyclesSlotsAndInternerDedupes) {
  EventPool pool;
  const std::string label = "k_conv_c32f64k3s1p1_b1_a1_node4";
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 8; ++i) {
      pool.Record(label, CommandKind::kKernel, i, SimTime(), SimTime(),
                  SimTime(), SimTime(), 0, 0, 0, 0);
    }
    EXPECT_EQ(pool.size(), 8u);
    pool.Clear();
  }
  // Steady state: the first batch's 8 slots serve every later batch, and
  // one interned copy serves all 80 records.
  EXPECT_EQ(pool.slots(), 8u);
  EXPECT_EQ(pool.free_slots(), 8u);
  EXPECT_EQ(pool.distinct_labels(), 1u);
  EXPECT_EQ(pool.total_recorded(), 80u);
}

TEST(EventPool, ViewsAndSnapshotAgreeInRecordOrder) {
  EventPool pool;
  for (int i = 0; i < 5; ++i) {
    pool.Record("ev" + std::to_string(i), CommandKind::kWriteBuffer, i,
                SimTime::Us(i), SimTime::Us(i + 1), SimTime::Us(i + 2),
                SimTime(), 100 + i, 7, static_cast<std::uint64_t>(i), 3);
  }
  ASSERT_EQ(pool.size(), 5u);
  int i = 0;
  for (const auto view : pool) {
    EXPECT_EQ(view.label, "ev" + std::to_string(i));
    EXPECT_EQ(view.kind, CommandKind::kWriteBuffer);
    EXPECT_EQ(view.queue, i);
    EXPECT_EQ(view.queued.ps(), SimTime::Us(i).ps());
    EXPECT_EQ(view.start.ps(), SimTime::Us(i + 1).ps());
    EXPECT_EQ(view.end.ps(), SimTime::Us(i + 2).ps());
    EXPECT_EQ(view.bytes, 100 + i);
    EXPECT_EQ(view.trace_id, 7u);
    EXPECT_EQ(view.span_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(view.parent_span_id, 3u);
    EXPECT_EQ(view.id, static_cast<std::uint64_t>(i + 1));
    ++i;
  }
  EXPECT_EQ(i, 5);
  EXPECT_EQ(pool[3].label, "ev3");
  EXPECT_EQ(pool[3].queue, 3);
}

TEST(EventPool, LabelMemoVerifiesContentNotCallerPointer) {
  EventPool pool;
  // One caller buffer, mutated in place between records: same pointer,
  // same length, different bytes. The memo must never serve the stale
  // interned view for the new content.
  std::string buf = "kernel_label_variant_A";
  pool.Record(buf, CommandKind::kKernel, 0, SimTime(), SimTime(), SimTime(),
              SimTime(), 0, 0, 0, 0);
  buf.back() = 'B';
  pool.Record(buf, CommandKind::kKernel, 0, SimTime(), SimTime(), SimTime(),
              SimTime(), 0, 0, 0, 0);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].label, "kernel_label_variant_A");
  EXPECT_EQ(pool[1].label, "kernel_label_variant_B");
  EXPECT_EQ(pool.distinct_labels(), 2u);

  // Labels engineered into one memo set (equal length, equal first and
  // last byte) cycled many times: dedup and contents must hold however
  // the two-way memo evicts.
  const std::vector<std::string> colliders = {"xAAAAAz", "xBBBBBz",
                                              "xCCCCCz"};
  pool.Clear();
  for (int round = 0; round < 50; ++round) {
    for (const auto& s : colliders) {
      pool.Record(s, CommandKind::kKernel, 0, SimTime(), SimTime(),
                  SimTime(), SimTime(), 0, 0, 0, 0);
    }
  }
  EXPECT_EQ(pool.distinct_labels(), 5u);  // 2 from above + 3 colliders
  std::size_t i = 0;
  for (const auto view : pool) {
    EXPECT_EQ(view.label, colliders[i % colliders.size()]);
    ++i;
  }
}

TEST(EventPool, InternedLabelsShareTheMemoizedStorage) {
  // A label interned once (a launch-table row's) records without the
  // memo, and resolves to the same pooled bytes as the memo path.
  EventPool pool;
  std::string name = "k_conv1";
  const std::string_view interned = pool.Intern(name);
  name = "changed";  // the pooled copy must not alias the caller's buffer
  pool.RecordInterned(interned, CommandKind::kKernel, 0, SimTime(),
                      SimTime(), SimTime(), SimTime(), 0, 0, 0, 0);
  pool.Record("k_conv1", CommandKind::kKernel, 0, SimTime(), SimTime(),
              SimTime(), SimTime(), 0, 0, 0, 0);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].label, "k_conv1");
  EXPECT_EQ(pool[0].label.data(), pool[1].label.data());
  EXPECT_EQ(pool.Intern("k_conv1").data(), interned.data());
  EXPECT_EQ(pool.distinct_labels(), 1u);
}

TEST(Runtime, EventIdsKeepIncreasingAcrossClearEvents) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  rt.Finish();
  const std::uint64_t first_batch = rt.event_pool().total_recorded();
  ASSERT_GT(first_batch, 0u);
  rt.ClearEvents();

  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  rt.Finish();
  const auto& pool = rt.event_pool();
  EXPECT_EQ(pool.size(), 1u);
  // The second batch reuses the first batch's slots but mints fresh ids.
  EXPECT_EQ(pool.slots(), pool.size());
  EXPECT_GT(pool[0].id, first_batch);
  EXPECT_EQ(pool.total_recorded(), 2 * first_batch);
}

TEST(Runtime, BackToBackAutorunBatches) {
  // Two identical batches through an autorun middle stage: per-batch
  // channel state resets, the autorun kernel re-activates each batch, and
  // the makespans match.
  TestDesign d = MakeDesign(3, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  SimTime makespans[2];
  for (int batch = 0; batch < 2; ++batch) {
    rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(50000),
                         .functional = {}, .reads_channels = {},
                         .writes_channels = {"a"}});
    rt.RunAutorun({.name = "k1", .stats = FixedCycles(50000),
                   .functional = {}, .reads_channels = {"a"},
                   .writes_channels = {"b"}});
    rt.EnqueueKernel(0, {.name = "k2", .stats = FixedCycles(50000),
                         .functional = {}, .reads_channels = {"b"},
                         .writes_channels = {}});
    makespans[batch] = rt.Finish();
  }
  EXPECT_EQ(rt.kernel_usage().at("k1").invocations, 2);
  EXPECT_NEAR(makespans[0].us(), makespans[1].us(), 5.0);
  // Autorun activations are attributed to their own batch: the second
  // batch's autorun event starts after the first batch fully drained.
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 6u);
  EXPECT_GE(ev[4].start, ev[2].end);
  EXPECT_EQ(ev[4].queue, -1);
}

TEST(Runtime, S10mxWritesAreSlow) {
  // The paper's Figure 6.2: the S10MX spends most of its time on buffer
  // writes. Same transfer on both boards; S10MX must be much slower.
  TestDesign dmx = MakeDesign(1, fpga::Stratix10MX());
  TestDesign dsx = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt_mx(dmx.bitstream);
  Runtime rt_sx(dsx.bitstream);
  auto bmx = rt_mx.CreateBuffer(1024);
  auto bsx = rt_sx.CreateBuffer(1024);
  std::vector<float> src(1024, 1.0f);
  rt_mx.EnqueueWrite(0, bmx, src);
  rt_sx.EnqueueWrite(0, bsx, src);
  EXPECT_GT(rt_mx.Finish().us(), 5.0 * rt_sx.Finish().us());
}

}  // namespace
}  // namespace clflow::ocl

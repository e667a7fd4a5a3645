// Real-machine microbenchmarks of the reference CPU operators
// (google-benchmark). These are the functional oracle's actual throughput
// on THIS host -- complementary to the calibrated Xeon-8280/GTX-1060
// models the comparison tables use (see DESIGN.md on the substitution).
//
// Besides the absolute BM_* figures (archived, never gated), the bench
// times each SIMD operator against its exported *Scalar oracle on the
// same data and records `simd.<op>.speedup` metrics. Those ratios are
// host-stable enough to gate: CI diffs them against the committed
// baseline (claim: >= 1.5x on conv and dense). The comparison also
// asserts bit-exactness -- any SIMD/scalar mismatch exits 1.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "cpu/ops.hpp"

namespace {

using namespace clflow;

void BM_Conv2d3x3(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor input = Tensor::Random(Shape{1, 64, 56, 56}, rng);
  Tensor w = Tensor::Random(Shape{64, 64, 3, 3}, rng);
  Tensor bias = Tensor::Random(Shape{64}, rng);
  for (auto _ : state) {
    auto out = cpu::Conv2d(input, w, bias,
                           {.stride = 1, .pad = 1,
                            .activation = Activation::kRelu},
                           threads);
    benchmark::DoNotOptimize(out.data().data());
  }
  const double macs = 64.0 * 56 * 56 * 64 * 9;
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * macs * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
// Real time: the workers are not the main thread, so a CPU-time rate
// would count only the caller's join wait.
BENCHMARK(BM_Conv2d3x3)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Conv2d1x1(benchmark::State& state) {
  Rng rng(2);
  Tensor input = Tensor::Random(Shape{1, 256, 28, 28}, rng);
  Tensor w = Tensor::Random(Shape{256, 256, 1, 1}, rng);
  for (auto _ : state) {
    auto out = cpu::Conv2d(input, w, Tensor(), {}, 4);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_Conv2d1x1)->Unit(benchmark::kMillisecond);

void BM_DepthwiseConv(benchmark::State& state) {
  Rng rng(3);
  Tensor input = Tensor::Random(Shape{1, 256, 28, 28}, rng);
  Tensor w = Tensor::Random(Shape{256, 1, 3, 3}, rng);
  for (auto _ : state) {
    auto out = cpu::DepthwiseConv2d(input, w, Tensor(),
                                    {.stride = 1, .pad = 1}, 4);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_DepthwiseConv)->Unit(benchmark::kMillisecond);

void BM_Dense(benchmark::State& state) {
  Rng rng(4);
  Tensor x = Tensor::Random(Shape{1, 1024}, rng);
  Tensor w = Tensor::Random(Shape{1000, 1024}, rng);
  Tensor b = Tensor::Random(Shape{1000}, rng);
  for (auto _ : state) {
    auto out = cpu::Dense(x, w, b, Activation::kNone, 1);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_Dense)->Unit(benchmark::kMicrosecond);

void BM_MaxPool(benchmark::State& state) {
  Rng rng(5);
  Tensor input = Tensor::Random(Shape{1, 64, 112, 112}, rng);
  for (auto _ : state) {
    auto out = cpu::MaxPool2d(input, {.window = 2, .stride = 2}, 4);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_MaxPool)->Unit(benchmark::kMicrosecond);

void BM_Softmax(benchmark::State& state) {
  Rng rng(6);
  Tensor x = Tensor::Random(Shape{1000}, rng);
  for (auto _ : state) {
    auto out = cpu::Softmax(x);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_Softmax)->Unit(benchmark::kMicrosecond);

void BM_Pad2d(benchmark::State& state) {
  Rng rng(7);
  Tensor input = Tensor::Random(Shape{1, 128, 56, 56}, rng);
  for (auto _ : state) {
    auto out = cpu::Pad2d(input, 1);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_Pad2d)->Unit(benchmark::kMicrosecond);

/// Console output plus a BENCH_micro_cpu_ops.json snapshot. These numbers
/// are host-dependent, so CI archives the file but never gates on it.
class SnapshotReporter : public benchmark::ConsoleReporter {
 public:
  explicit SnapshotReporter(bench::BenchSnapshot* snap) : snap_(snap) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      // GetAdjustedRealTime is per-iteration, in the benchmark's time unit.
      snap_->Metric(run.benchmark_name() + ".real_time",
                    run.GetAdjustedRealTime());
      for (const auto& [counter_name, counter] : run.counters) {
        snap_->Metric(run.benchmark_name() + "." + counter_name,
                      counter.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchSnapshot* snap_;
};

/// Wall time of one call of `fn`.
template <typename Fn>
double WallUs(const Fn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto out = fn();
  benchmark::DoNotOptimize(out.data().data());
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct PairedTiming {
  double scalar_us = 0.0;  ///< median scalar time
  double simd_us = 0.0;    ///< median SIMD time
  double speedup = 0.0;    ///< median of per-pair scalar/SIMD ratios
};

/// Times `scalar` and `simd` in `reps` back-to-back pairs, alternating
/// which side runs first (one warmup of each discarded). The speedup is
/// the median of per-pair ratios, as bench_micro_event_pool gates: pairing
/// cancels the slow timing drift of a shared host, which two independent
/// medians taken one after the other pick up as a ratio.
template <typename Scalar, typename Simd>
PairedTiming TimePaired(int reps, const Scalar& scalar, const Simd& simd) {
  (void)scalar();
  (void)simd();
  std::vector<double> scalar_us, simd_us, ratios;
  for (int r = 0; r < reps; ++r) {
    double a = 0, b = 0;
    if (r % 2 == 0) {
      a = WallUs(scalar);
      b = WallUs(simd);
    } else {
      b = WallUs(simd);
      a = WallUs(scalar);
    }
    scalar_us.push_back(a);
    simd_us.push_back(b);
    ratios.push_back(a / b);
  }
  return {bench::Median(std::move(scalar_us)), bench::Median(std::move(simd_us)),
          bench::Median(std::move(ratios))};
}

bool BitExact(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

/// Times the SIMD entry point against its *Scalar oracle on identical
/// data (TimePaired); records wall.simd.<op>.{scalar_us,simd_us}
/// (host-dependent, ignored by CI) and simd.<op>.speedup (gated). Returns
/// false on any bitwise mismatch.
bool SimdVsScalar(bench::BenchSnapshot& snap) {
  constexpr int kReps = 11;
  Rng rng(bench::kBenchSeed);
  bool exact = true;
  std::printf("\n--- SIMD vs scalar (median of %d interleaved pairs) ---\n",
              kReps);

  auto measure = [&](const char* op, const auto& scalar, const auto& simd) {
    const PairedTiming t = TimePaired(kReps, scalar, simd);
    const bool ok = BitExact(scalar(), simd());
    std::printf("%-10s scalar %9.0f us  simd %9.0f us  %5.2fx  %s\n", op,
                t.scalar_us, t.simd_us, t.speedup,
                ok ? "bit-exact" : "MISMATCH");
    snap.Metric(std::string("wall.simd.") + op + ".scalar_us", t.scalar_us);
    snap.Metric(std::string("wall.simd.") + op + ".simd_us", t.simd_us);
    snap.Metric(std::string("simd.") + op + ".speedup", t.speedup);
    exact = exact && ok;
  };

  {
    Tensor input = Tensor::Random(Shape{1, 32, 56, 56}, rng);
    Tensor w = Tensor::Random(Shape{32, 32, 3, 3}, rng);
    Tensor bias = Tensor::Random(Shape{32}, rng);
    const cpu::Conv2dParams p{.stride = 1, .pad = 1,
                              .activation = Activation::kRelu};
    measure(
        "conv3x3", [&] { return cpu::Conv2dScalar(input, w, bias, p, 1); },
        [&] { return cpu::Conv2d(input, w, bias, p, 1); });
  }
  {
    Tensor input = Tensor::Random(Shape{1, 128, 28, 28}, rng);
    Tensor w = Tensor::Random(Shape{128, 128, 1, 1}, rng);
    const cpu::Conv2dParams p{};
    measure(
        "conv1x1", [&] { return cpu::Conv2dScalar(input, w, Tensor(), p, 1); },
        [&] { return cpu::Conv2d(input, w, Tensor(), p, 1); });
  }
  {
    Tensor input = Tensor::Random(Shape{1, 128, 28, 28}, rng);
    Tensor w = Tensor::Random(Shape{128, 1, 3, 3}, rng);
    const cpu::Conv2dParams p{.stride = 1, .pad = 1};
    measure(
        "depthwise",
        [&] { return cpu::DepthwiseConv2dScalar(input, w, Tensor(), p, 1); },
        [&] { return cpu::DepthwiseConv2d(input, w, Tensor(), p, 1); });
  }
  {
    Tensor x = Tensor::Random(Shape{1, 1024}, rng);
    Tensor w = Tensor::Random(Shape{1000, 1024}, rng);
    Tensor b = Tensor::Random(Shape{1000}, rng);
    measure(
        "dense",
        [&] { return cpu::DenseScalar(x, w, b, Activation::kNone, 1); },
        [&] { return cpu::Dense(x, w, b, Activation::kNone, 1); });
  }
  return exact;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchSnapshot snap("micro_cpu_ops");
  SnapshotReporter reporter(&snap);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const bool exact = SimdVsScalar(snap);
  snap.Write();
  benchmark::Shutdown();
  if (!exact) {
    std::fprintf(stderr, "SIMD/scalar outputs are not bit-identical\n");
    return 1;
  }
  return 0;
}

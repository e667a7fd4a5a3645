// Real-machine microbenchmarks of the OpenCL C emitter (google-benchmark).
//
// The emitter sits on the compile hot path twice: once for the shipped
// .cl translation unit and once per DSE candidate whose CompileCache
// fingerprint falls back to a codegen run (pipelined kernels carry no
// schedule content key). ROADMAP item 4a asks for single-pass emission
// with no repeated name/type re-formatting; these benchmarks are the
// before/after evidence (numbers recorded in EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "codegen/opencl_codegen.hpp"
#include "ir/op_kernels.hpp"

namespace {

using namespace clflow;

/// A deep optimized conv (tiled + unrolled + weight cache): the largest
/// expression trees the emitter sees in practice.
ir::BuiltKernel MakeOptimizedConv() {
  return ir::BuildConv2dKernel(
      {.c1 = 64, .h1 = 28, .w1 = 28, .k = 64, .f = 3, .stride = 1,
       .has_bias = true, .activation = Activation::kRelu},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true,
       .tile_c1 = 8, .tile_w2 = 7, .weight_cache = true},
      "k_conv_bench");
}

/// A symbolic folded conv: stride arguments and symbolic bounds exercise
/// the variable-name formatting paths.
ir::BuiltKernel MakeSymbolicConv() {
  return ir::BuildConv2dKernel(
      {.f = 3, .stride = 2, .has_bias = true,
       .activation = Activation::kRelu},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true,
       .symbolic = true, .pin_strides = true},
      "k_conv_sym_bench");
}

void BM_EmitKernelOptimizedConv(benchmark::State& state) {
  const auto bk = MakeOptimizedConv();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string src = codegen::EmitKernel(bk.kernel);
    bytes = src.size();
    benchmark::DoNotOptimize(src.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_EmitKernelOptimizedConv)->Unit(benchmark::kMicrosecond);

void BM_EmitKernelSymbolicConv(benchmark::State& state) {
  const auto bk = MakeSymbolicConv();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string src = codegen::EmitKernel(bk.kernel);
    bytes = src.size();
    benchmark::DoNotOptimize(src.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_EmitKernelSymbolicConv)->Unit(benchmark::kMicrosecond);

void BM_EmitProgramPipeline(benchmark::State& state) {
  // A channelized three-stage pipeline: channel declarations plus
  // per-kernel emission, as GeneratedSource() runs it.
  auto c0 = ir::MakeBuffer("c0", {ir::IntImm(1)}, ir::MemScope::kChannel);
  auto c1 = ir::MakeBuffer("c1", {ir::IntImm(1)}, ir::MemScope::kChannel);
  c0->channel_depth = 1024;
  c1->channel_depth = 1024;
  auto head = ir::BuildConv2dKernel(
      {.c1 = 3, .h1 = 32, .w1 = 32, .k = 16, .f = 3, .stride = 1,
       .has_bias = true, .activation = Activation::kRelu},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true},
      "k_head", {.input = nullptr, .output = c0});
  auto mid = ir::BuildPoolKernel(
      {.c = 16, .h1 = 30, .w1 = 30, .f = 2, .stride = 2, .is_max = true},
      {.optimized = true}, "k_mid", {.input = c0, .output = c1});
  auto tail = ir::BuildDenseKernel(
      {.c1 = 16 * 15 * 15, .c2 = 10, .has_bias = true,
       .activation = Activation::kNone},
      {.cached_writes = true, .unroll_k = 8, .input_cache = true}, "k_tail",
      {.input = c1, .output = nullptr});
  const std::vector<const ir::Kernel*> kernels = {
      &head.kernel, &mid.kernel, &tail.kernel};
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string src = codegen::EmitProgram(kernels);
    bytes = src.size();
    benchmark::DoNotOptimize(src.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_EmitProgramPipeline)->Unit(benchmark::kMicrosecond);

/// Writes BENCH_micro_codegen.json: per-benchmark wall times under the
/// host-dependent `wall.` namespace (archived, never gated) and the
/// emitted source sizes as `codegen.<bench>.bytes` -- a deterministic
/// fingerprint of the emitter's output that CI gates tightly (a size
/// jump means the emitter started repeating itself or dropped code).
class SnapshotReporter : public benchmark::ConsoleReporter {
 public:
  explicit SnapshotReporter(bench::BenchSnapshot* snap) : snap_(snap) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      snap_->Metric("wall." + run.benchmark_name() + ".real_time",
                    run.GetAdjustedRealTime());
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name == "bytes") {
          snap_->Metric("codegen." + run.benchmark_name() + ".bytes",
                        counter.value);
        }
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchSnapshot* snap_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchSnapshot snap("micro_codegen");
  SnapshotReporter reporter(&snap);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  snap.Write();
  benchmark::Shutdown();
  return 0;
}

// Tests for the content-hashed compile/synthesis cache (DSE v2).
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "codegen/opencl_codegen.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/compile_cache.hpp"
#include "core/deployment.hpp"
#include "core/dse.hpp"
#include "nets/nets.hpp"
#include "obs/metrics.hpp"

namespace clflow::core {
namespace {

class CompileCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    net_ = new graph::Graph(nets::BuildMobileNetV1(rng));
  }
  static void TearDownTestSuite() { delete net_; }

  [[nodiscard]] static DeployOptions Options(
      std::shared_ptr<CompileCache> cache) {
    DeployOptions dep;
    dep.mode = ExecutionMode::kFolded;
    dep.recipe = FoldedMobileNet("s10sx");
    dep.board = fpga::Stratix10SX();
    dep.compile_cache = std::move(cache);
    return dep;
  }

  static graph::Graph* net_;
};
graph::Graph* CompileCacheTest::net_ = nullptr;

TEST_F(CompileCacheTest, SecondIdenticalCompileSynthesizesNothing) {
  // Folded MobileNet, plus every pipelined LeNet rung: kernels of both
  // planners are content-addressed, so a repeated compile misses nothing.
  Rng rng(7);
  const graph::Graph lenet = nets::BuildLeNet5(rng);
  std::vector<std::pair<const graph::Graph*, DeployOptions>> inputs;
  inputs.emplace_back(net_, Options(nullptr));
  for (const OptimizationRecipe& recipe : PipelineLadder()) {
    DeployOptions dep;
    dep.mode = ExecutionMode::kPipelined;
    dep.recipe = recipe;
    dep.board = fpga::Stratix10SX();
    inputs.emplace_back(&lenet, dep);
  }
  for (auto& [graph, dep] : inputs) {
    SCOPED_TRACE(dep.recipe.name);
    auto cache = std::make_shared<CompileCache>();
    dep.compile_cache = cache;
    auto first = Deployment::Compile(*graph, dep);
    ASSERT_TRUE(first.ok());
    const CompileCacheStats warm = cache->stats();
    EXPECT_GT(warm.design_misses, 0);
    EXPECT_EQ(warm.design_hits, 0);

    auto second = Deployment::Compile(*graph, dep);
    ASSERT_TRUE(second.ok());
    const CompileCacheStats delta = cache->stats().Since(warm);
    // Zero fpga::SynthesizeKernelDesign calls: every kernel design was a
    // cache hit.
    EXPECT_EQ(delta.design_hits,
              static_cast<std::int64_t>(second.kernels().size()));
    EXPECT_EQ(delta.hit_rate(), 1.0);
    EXPECT_EQ(delta.design_misses, 0);
    EXPECT_EQ(delta.lower_misses, 0);
    EXPECT_EQ(delta.stats_misses, 0);
    EXPECT_EQ(delta.misses(), 0);
    EXPECT_EQ(delta.stats_hits,
              static_cast<std::int64_t>(second.invocations().size()));
    // Every kernel comes from the lowering memo, channelized ones
    // included: a channel is its name, so a memoized endpoint serves any
    // deployment that plans the same channel.
    for (const PlannedKernel& pk : second.kernels()) {
      EXPECT_FALSE(pk.content_key.empty()) << pk.built.kernel.name;
    }
    EXPECT_EQ(delta.lower_hits,
              static_cast<std::int64_t>(second.kernels().size()));

    // The per-deployment telemetry counters tell the same story.
    EXPECT_EQ(second.telemetry().registry.counter("compile.cache.misses")
                  .value(),
              0.0);
    EXPECT_EQ(
        second.telemetry().registry.counter("compile.cache.hits").value(),
        static_cast<double>(second.kernels().size()));
  }
}

TEST_F(CompileCacheTest, CachedCompileMatchesUncached) {
  auto cache = std::make_shared<CompileCache>();
  auto cold = Deployment::Compile(*net_, Options(nullptr));
  auto warm1 = Deployment::Compile(*net_, Options(cache));
  auto warm2 = Deployment::Compile(*net_, Options(cache));  // all hits
  for (const auto* d : {&warm1, &warm2}) {
    ASSERT_EQ(d->bitstream().status, cold.bitstream().status);
    EXPECT_EQ(d->bitstream().fmax_mhz, cold.bitstream().fmax_mhz);
    EXPECT_EQ(d->bitstream().routing_pressure,
              cold.bitstream().routing_pressure);
    EXPECT_EQ(d->bitstream().totals.aluts, cold.bitstream().totals.aluts);
    EXPECT_EQ(d->bitstream().totals.dsps, cold.bitstream().totals.dsps);
    EXPECT_EQ(d->bitstream().totals.brams, cold.bitstream().totals.brams);
    ASSERT_EQ(d->bitstream().kernels.size(), cold.bitstream().kernels.size());
    for (std::size_t i = 0; i < cold.bitstream().kernels.size(); ++i) {
      const auto& a = d->bitstream().kernels[i];
      const auto& b = cold.bitstream().kernels[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.dsps, b.dsps);
      EXPECT_EQ(a.aluts, b.aluts);
      EXPECT_EQ(a.brams, b.brams);
      EXPECT_EQ(a.lsu_count, b.lsu_count);
      // Cached designs are re-pointed at the owning deployment's kernel.
      ASSERT_NE(a.kernel, nullptr);
      EXPECT_EQ(a.kernel->name, a.name);
    }
  }
  // And the deployment still runs.
  Tensor probe = Tensor::Full(Shape{1, 3, 224, 224}, 0.0f);
  EXPECT_EQ(warm2.EstimateFps(probe), cold.EstimateFps(probe));

  // Pipelined LeNet rungs compiled through one cache share some
  // channelized kernels and not others (weight caches change only the
  // conv/dense kernels); each must still print the uncached source, with
  // every channel declared once.
  Rng rng(7);
  const graph::Graph lenet = nets::BuildLeNet5(rng);
  auto ladder_cache = std::make_shared<CompileCache>();
  for (const OptimizationRecipe& recipe : PipelineLadder()) {
    DeployOptions dep;
    dep.mode = ExecutionMode::kPipelined;
    dep.recipe = recipe;
    dep.board = fpga::Stratix10SX();
    const std::string uncached =
        Deployment::Compile(lenet, dep).GeneratedSource();
    dep.compile_cache = ladder_cache;
    EXPECT_EQ(Deployment::Compile(lenet, dep).GeneratedSource(), uncached)
        << recipe.name;
  }
}

TEST_F(CompileCacheTest, CostModelChangeInvalidatesByFingerprint) {
  auto cache = std::make_shared<CompileCache>();
  auto a = Deployment::Compile(*net_, Options(cache));
  const CompileCacheStats warm = cache->stats();

  DeployOptions dep = Options(cache);
  dep.cost_model.lsu_base_alut += 1;  // any model constant participates
  auto b = Deployment::Compile(*net_, dep);
  const CompileCacheStats delta = cache->stats().Since(warm);
  EXPECT_EQ(delta.design_hits, 0);
  EXPECT_EQ(delta.design_misses,
            static_cast<std::int64_t>(b.kernels().size()));
  // Entries under the old fingerprint are orphaned, never returned stale.
  EXPECT_GT(cache->stats().entries, warm.entries);
}

TEST_F(CompileCacheTest, AocFlagChangeInvalidatesByFingerprint) {
  auto cache = std::make_shared<CompileCache>();
  (void)Deployment::Compile(*net_, Options(cache));
  const CompileCacheStats warm = cache->stats();
  DeployOptions dep = Options(cache);
  dep.recipe.aoc.fp_relaxed = false;
  (void)Deployment::Compile(*net_, dep);
  EXPECT_EQ(cache->stats().Since(warm).design_hits, 0);
}

TEST_F(CompileCacheTest, BoardChangeReusesKernelDesigns) {
  // Per-kernel synthesis is board-independent by construction; only
  // AssembleBitstream (cheap) re-runs, so a board change is all hits.
  auto cache = std::make_shared<CompileCache>();
  auto sx = Deployment::Compile(*net_, Options(cache));
  const CompileCacheStats warm = cache->stats();
  DeployOptions dep = Options(cache);
  dep.board = fpga::Stratix10MX();
  auto mx = Deployment::Compile(*net_, dep);
  EXPECT_EQ(cache->stats().Since(warm).design_misses, 0);
  // The verdict can still differ per board (that is AssembleBitstream's
  // job), but per-kernel areas are identical.
  ASSERT_EQ(sx.bitstream().kernels.size(), mx.bitstream().kernels.size());
  for (std::size_t i = 0; i < sx.bitstream().kernels.size(); ++i) {
    EXPECT_EQ(sx.bitstream().kernels[i].aluts,
              mx.bitstream().kernels[i].aluts);
    EXPECT_EQ(sx.bitstream().kernels[i].dsps, mx.bitstream().kernels[i].dsps);
  }
}

TEST_F(CompileCacheTest, ConvKernelKeyCoversScheduleAndSpec) {
  // Every content-key derivation changes when any one of its fields does:
  // spec, schedule, kernel name, and each channel endpoint's name, depth
  // and element type.
  auto channel = [](const std::string& name, std::int64_t depth) {
    auto chan = ir::MakeBuffer(name, {ir::IntImm(1)}, ir::MemScope::kChannel);
    chan->channel_depth = depth;
    return chan;
  };
  struct Fields {
    ir::ConvSpec conv{.c1 = 32, .h1 = 56, .w1 = 56, .k = 64, .f = 1,
                      .stride = 1, .depthwise = false, .has_bias = true,
                      .activation = Activation::kRelu};
    ir::ConvSchedule conv_sched{.tile_c1 = 4, .tile_w2 = 7, .tile_c2 = 8};
    ir::DenseSpec dense{.c1 = 400, .c2 = 120};
    ir::DenseSchedule dense_sched;
    ir::PoolSpec pool{.c = 6, .h1 = 28, .w1 = 28};
    ir::PoolSchedule pool_sched;
    ir::SoftmaxSpec softmax{.n = 10};
    bool softmax_optimized = false;
    ir::PadSpec pad{.c = 3, .h1 = 224, .w1 = 224};
    ir::AddSpec add{.n = 1024};
    std::int64_t add_unroll = 1;
    std::int64_t copy_n = 400;
    std::string name = "k";
    ir::ChannelIO io;
  };
  enum Kind { kConv, kDense, kPool, kSoftmax, kPad, kAdd, kCopy, kKinds };
  auto keys = [](const Fields& f) {
    return std::vector<std::string>{
        CompileCache::ConvKernelKey(f.conv, f.conv_sched, f.name, f.io),
        CompileCache::DenseKernelKey(f.dense, f.dense_sched, f.name, f.io),
        CompileCache::PoolKernelKey(f.pool, f.pool_sched, f.name, f.io),
        CompileCache::SoftmaxKernelKey(f.softmax, f.softmax_optimized,
                                       f.name, f.io),
        CompileCache::PadKernelKey(f.pad, f.name, f.io),
        CompileCache::AddKernelKey(f.add, f.add_unroll, f.name),
        CompileCache::CopyKernelKey(f.copy_n, f.name, f.io)};
  };
  Fields base;
  base.io = {channel("ch_in", 400), channel("ch_out", 120)};
  const std::vector<std::string> base_keys = keys(base);
  // Kinds never share a key, even over identical fields.
  for (int a = 0; a < kKinds; ++a) {
    for (int b = a + 1; b < kKinds; ++b) EXPECT_NE(base_keys[a], base_keys[b]);
  }
  auto changes = [&](int kind, const char* what, auto&& mutate) {
    Fields f = base;
    f.io = {base.io.input ? channel(base.io.input->name,
                                    base.io.input->channel_depth)
                          : nullptr,
            base.io.output ? channel(base.io.output->name,
                                     base.io.output->channel_depth)
                           : nullptr};
    mutate(f);
    EXPECT_NE(keys(f)[kind], base_keys[kind]) << what;
  };
#define CLFLOW_EXPECT_KEY_FIELD(kind, stmt) \
  changes(kind, #stmt, [](Fields& f) { stmt; })
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.c1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.h1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.w1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.k += 1);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.f = 3);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.stride = 2);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.depthwise = true);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.has_bias = false);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv.activation = Activation::kRelu6);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.fuse_activation = true);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.cached_writes = true);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.unroll_filter = true);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.tile_c1 = 8);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.tile_w2 = 1);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.tile_c2 = 16);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.weight_cache = true);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.symbolic = true);
  CLFLOW_EXPECT_KEY_FIELD(kConv, f.conv_sched.pin_strides = true);
  CLFLOW_EXPECT_KEY_FIELD(kDense, f.dense.c1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kDense, f.dense.c2 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kDense, f.dense.has_bias = false);
  CLFLOW_EXPECT_KEY_FIELD(kDense, f.dense.activation = Activation::kRelu);
  CLFLOW_EXPECT_KEY_FIELD(kDense, f.dense_sched.cached_writes = true);
  CLFLOW_EXPECT_KEY_FIELD(kDense, f.dense_sched.unroll_k = 8);
  CLFLOW_EXPECT_KEY_FIELD(kDense, f.dense_sched.input_cache = true);
  CLFLOW_EXPECT_KEY_FIELD(kPool, f.pool.c += 1);
  CLFLOW_EXPECT_KEY_FIELD(kPool, f.pool.h1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kPool, f.pool.w1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kPool, f.pool.f = 3);
  CLFLOW_EXPECT_KEY_FIELD(kPool, f.pool.stride = 1);
  CLFLOW_EXPECT_KEY_FIELD(kPool, f.pool.is_max = false);
  CLFLOW_EXPECT_KEY_FIELD(kPool, f.pool_sched.optimized = true);
  CLFLOW_EXPECT_KEY_FIELD(kSoftmax, f.softmax.n += 1);
  CLFLOW_EXPECT_KEY_FIELD(kSoftmax, f.softmax_optimized = true);
  CLFLOW_EXPECT_KEY_FIELD(kPad, f.pad.c += 1);
  CLFLOW_EXPECT_KEY_FIELD(kPad, f.pad.h1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kPad, f.pad.w1 += 1);
  CLFLOW_EXPECT_KEY_FIELD(kPad, f.pad.pad = 2);
  CLFLOW_EXPECT_KEY_FIELD(kPad, f.pad.symbolic = true);
  CLFLOW_EXPECT_KEY_FIELD(kAdd, f.add.n += 1);
  CLFLOW_EXPECT_KEY_FIELD(kAdd, f.add.activation = Activation::kRelu);
  CLFLOW_EXPECT_KEY_FIELD(kAdd, f.add.symbolic = true);
  CLFLOW_EXPECT_KEY_FIELD(kAdd, f.add_unroll = 4);
  CLFLOW_EXPECT_KEY_FIELD(kCopy, f.copy_n += 1);
  for (int kind = 0; kind < kKinds; ++kind) {
    CLFLOW_EXPECT_KEY_FIELD(kind, f.name = "other");
    if (kind == kAdd) continue;  // add kernels have no channel endpoints
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.input->name = "ch_other");
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.input->channel_depth += 1);
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.input->dtype = ir::ScalarType::kInt32);
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.output->name = "ch_other");
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.output->channel_depth += 1);
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.output->dtype = ir::ScalarType::kInt32);
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.input = nullptr);
    CLFLOW_EXPECT_KEY_FIELD(kind, f.io.output = nullptr);
  }
#undef CLFLOW_EXPECT_KEY_FIELD
}

TEST_F(CompileCacheTest, EqualContentKeysEmitIdenticalSource) {
  // Soundness of content addressing: across the pipelined LeNet ladder on
  // every board, the folded recipes and a DSE candidate sweep, kernels
  // with equal (content key, autorun) print identical OpenCL. Compiled
  // without a cache, so every kernel is lowered from its own spec.
  Rng lenet_rng(7), resnet_rng(42);
  const graph::Graph lenet = nets::BuildLeNet5(lenet_rng);
  const graph::Graph resnet = nets::BuildResNet(18, resnet_rng);
  std::map<std::pair<std::string, bool>, std::string> source_of;
  std::size_t kernels = 0;
  auto check = [&](const graph::Graph& g, DeployOptions dep) {
    dep.analysis.verify = false;
    const Deployment d = Deployment::Compile(g, dep);
    for (const PlannedKernel& pk : d.kernels()) {
      ++kernels;
      const std::string source = codegen::EmitProgram({&pk.built.kernel});
      const auto [it, inserted] = source_of.try_emplace(
          std::make_pair(pk.content_key, pk.built.kernel.autorun), source);
      EXPECT_TRUE(inserted || it->second == source)
          << dep.recipe.name << ": " << pk.content_key;
    }
  };
  for (const fpga::BoardSpec& board : fpga::EvaluationBoards()) {
    DeployOptions dep;
    dep.board = board;
    dep.mode = ExecutionMode::kPipelined;
    for (OptimizationRecipe recipe : PipelineLadder()) {
      dep.recipe = recipe;
      check(lenet, dep);
    }
    dep.mode = ExecutionMode::kFolded;
    dep.recipe = FoldedBase();
    check(lenet, dep);
    check(*net_, dep);
    check(resnet, dep);
    dep.recipe = FoldedMobileNet(board.key);
    check(*net_, dep);
    dep.recipe = FoldedResNet();
    check(resnet, dep);
  }
  const DseOptions sweep;
  for (std::int64_t c1 : sweep.c1_factors) {
    for (std::int64_t w2 : sweep.w2_factors) {
      for (std::int64_t c2 : sweep.c2_factors) {
        DeployOptions dep = Options(nullptr);
        dep.recipe = FoldedWithTiling({.c1 = c1, .w2 = w2, .c2 = c2});
        try {
          check(*net_, dep);
        } catch (const ScheduleError&) {
          // A tiling that does not divide every layer is no candidate.
        }
      }
    }
  }
  // The sweep shares kernels, so equal keys were actually compared.
  EXPECT_LT(source_of.size(), kernels);
}

TEST_F(CompileCacheTest, ConcurrentCompilesShareOneCache) {
  // Eight concurrent Deployment::Compile calls against one cache: the
  // sanitizer CI config (CLFLOW_SANITIZE=thread) runs this to catch data
  // races in the cache and the obs/diagnostics plumbing.
  auto cache = std::make_shared<CompileCache>();
  std::vector<double> fmax(8, 0.0);
  ParallelFor(0, 8, 8, [&](std::int64_t i) {
    auto d = Deployment::Compile(*net_, Options(cache));
    fmax[static_cast<std::size_t>(i)] = d.bitstream().fmax_mhz;
  });
  for (double f : fmax) EXPECT_EQ(f, fmax[0]);
  EXPECT_GT(fmax[0], 0.0);
  // Racing misses may duplicate work but never corrupt the entry count.
  EXPECT_GT(cache->stats().design_hits, 0);
}

}  // namespace
}  // namespace clflow::core

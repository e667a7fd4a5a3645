#include "core/deployment.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/ir_verifier.hpp"
#include "analysis/perf_lint.hpp"
#include "codegen/opencl_codegen.hpp"
#include "common/arena.hpp"
#include "common/error.hpp"
#include "core/compile_cache.hpp"
#include "srclint/inject.hpp"
#include "srclint/srclint.hpp"

namespace clflow::core {

namespace {

using graph::Node;
using graph::NodeId;
using graph::OpKind;

std::int64_t LargestDivisorLE(std::int64_t n, std::int64_t limit) {
  for (std::int64_t d = std::min(n, limit); d >= 1; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

std::string TilingDesc(const ir::ConvSchedule& s) {
  std::ostringstream os;
  os << "W2/C2/C1=" << s.tile_w2 << '/' << s.tile_c2 << '/' << s.tile_c1;
  if (s.unroll_filter) os << " +FxF";
  if (s.symbolic) os << (s.pin_strides ? " sym(pinned)" : " sym");
  return os.str();
}

/// Row-major stride bindings for a symbolic buffer role, matched by the
/// "<buffer>_s<dim>" parameter naming convention of the builders.
void BindStrides(const ir::BuiltKernel& built, const ir::BufferPtr& buffer,
                 const Shape& shape, ir::Bindings& bindings) {
  if (!buffer) return;
  const auto strides = shape.Strides();
  for (std::size_t d = 0; d < strides.size(); ++d) {
    auto it = built.params.find(buffer->name + "_s" + std::to_string(d));
    if (it != built.params.end()) {
      bindings[it->second.get()] = strides[d];
    }
  }
}

void BindParam(const ir::BuiltKernel& built, const std::string& name,
               std::int64_t value, ir::Bindings& bindings) {
  auto it = built.params.find(name);
  if (it != built.params.end()) bindings[it->second.get()] = value;
}

/// The channel that carries node `n`'s output. A channel is its name, so
/// the producer and the consumer each build their own endpoint.
ir::BufferPtr ChannelOf(const Node& n) {
  auto chan =
      ir::MakeBuffer("ch_" + n.name, {ir::IntImm(1)}, ir::MemScope::kChannel);
  chan->channel_depth = n.output_shape.NumElements();
  return chan;
}

std::vector<std::string> ChannelNames(const std::vector<ir::BufferPtr>& cs) {
  std::vector<std::string> names;
  names.reserve(cs.size());
  for (const auto& c : cs) names.push_back(c->name);
  return names;
}

/// What a planner chose for one node. The lowering step reads only the
/// part that belongs to the node's op kind.
struct NodeSchedule {
  ir::ConvSchedule conv;
  ir::DenseSchedule dense;
  /// Pooling's private accumulator and unrolled window, and softmax's
  /// hoisted max/sum (Listing 5.8).
  bool optimized = false;
  /// Pad and add kernels take their shape as arguments (folded execution).
  bool symbolic = false;
  std::int64_t add_unroll = 1;
};

/// The one lowering step of both planners: builds the node's builder spec
/// from the graph, derives the kernel's content key from spec, schedule,
/// name and channel endpoints, and builds the kernel -- through the
/// cache's lowering memo when there is one.
PlannedKernel LowerNode(const Node& n, const Shape& in,
                        const NodeSchedule& s, const std::string& name,
                        const ir::ChannelIO& io, CompileCache* cache) {
  PlannedKernel pk;
  auto lower = [&](std::string key, const auto& build) {
    pk.content_key = std::move(key);
    if (cache == nullptr) {
      pk.built = build();
    } else if (auto hit = cache->LookupKernel(pk.content_key)) {
      pk.built = std::move(*hit);
    } else {
      pk.built = build();
      cache->InsertKernel(pk.content_key, pk.built);
    }
  };
  switch (n.kind) {
    case OpKind::kConv2d:
    case OpKind::kDepthwiseConv2d: {
      const ir::ConvSpec spec{.c1 = in.channels(),
                              .h1 = in.height(),
                              .w1 = in.width(),
                              .k = n.filters,
                              .f = n.window,
                              .stride = n.stride,
                              .depthwise = n.kind == OpKind::kDepthwiseConv2d,
                              .has_bias = n.bias.defined(),
                              .activation = n.activation};
      lower(CompileCache::ConvKernelKey(spec, s.conv, name, io),
            [&] { return ir::BuildConv2dKernel(spec, s.conv, name, io); });
      pk.op_class = std::to_string(n.window) + "x" +
                    std::to_string(n.window) +
                    (spec.depthwise ? " DW conv" : " conv");
      if (n.window != 1) pk.op_class += " S=" + std::to_string(n.stride);
      pk.tiling_desc = TilingDesc(s.conv);
      break;
    }
    case OpKind::kDense: {
      const ir::DenseSpec spec{.c1 = in.NumElements(),
                               .c2 = n.output_shape.NumElements(),
                               .has_bias = n.bias.defined(),
                               .activation = n.activation};
      lower(CompileCache::DenseKernelKey(spec, s.dense, name, io),
            [&] { return ir::BuildDenseKernel(spec, s.dense, name, io); });
      pk.op_class = "dense";
      pk.tiling_desc = "k unroll " + std::to_string(s.dense.unroll_k);
      break;
    }
    case OpKind::kMaxPool:
    case OpKind::kAvgPool: {
      const ir::PoolSpec spec{.c = in.channels(),
                              .h1 = in.height(),
                              .w1 = in.width(),
                              .f = n.window,
                              .stride = n.stride,
                              .is_max = n.kind == OpKind::kMaxPool};
      const ir::PoolSchedule sched{.optimized = s.optimized};
      lower(CompileCache::PoolKernelKey(spec, sched, name, io),
            [&] { return ir::BuildPoolKernel(spec, sched, name, io); });
      pk.op_class = spec.is_max ? "maxpool" : "avgpool";
      break;
    }
    case OpKind::kSoftmax: {
      const ir::SoftmaxSpec spec{.n = in.NumElements()};
      lower(CompileCache::SoftmaxKernelKey(spec, s.optimized, name, io), [&] {
        return ir::BuildSoftmaxKernel(spec, s.optimized, name, io);
      });
      pk.op_class = "softmax";
      break;
    }
    case OpKind::kFlatten: {
      lower(CompileCache::CopyKernelKey(in.NumElements(), name, io),
            [&] { return ir::BuildCopyKernel(in.NumElements(), name, io); });
      pk.op_class = "flatten";
      break;
    }
    case OpKind::kPad: {
      const ir::PadSpec spec{.c = in.channels(),
                             .h1 = in.height(),
                             .w1 = in.width(),
                             .pad = n.pad,
                             .symbolic = s.symbolic};
      lower(CompileCache::PadKernelKey(spec, name, io),
            [&] { return ir::BuildPadKernel(spec, name, io); });
      pk.op_class = "pad";
      break;
    }
    case OpKind::kAdd: {
      const ir::AddSpec spec{.n = n.output_shape.NumElements(),
                             .activation = n.activation,
                             .symbolic = s.symbolic};
      lower(CompileCache::AddKernelKey(spec, s.add_unroll, name),
            [&] { return ir::BuildAddKernel(spec, s.add_unroll, name); });
      pk.op_class = "add";
      break;
    }
    default:
      throw ScheduleError("CLF405", "unsupported op " + n.name);
  }
  return pk;
}

/// Per-invocation analysis, memoized by (content key, autorun, bindings):
/// it runs per layer, not per unique kernel, so it dominates a cache-warm
/// folded compile.
ir::KernelStats AnalyzeInvocation(const PlannedKernel& pk,
                                  const ir::Bindings& bindings,
                                  CompileCache* cache) {
  if (cache == nullptr) return ir::AnalyzeKernel(pk.built.kernel, bindings);
  const std::string key = CompileCache::StatsKeyFor(
      pk.content_key, pk.built.kernel.autorun, bindings);
  if (auto hit = cache->LookupStats(key)) return std::move(*hit);
  ir::KernelStats stats = ir::AnalyzeKernel(pk.built.kernel, bindings);
  cache->InsertStats(key, stats);
  return stats;
}

}  // namespace

Deployment Deployment::Compile(const graph::Graph& g,
                               const DeployOptions& options) {
  Deployment d;
  // Fail fast on malformed hardening knobs (CLF507): a watchdog of zero or
  // a zero retry budget would otherwise surface as a confusing runtime
  // fault on the first batch.
  ocl::ValidateRuntimeOptions(options.runtime);
  d.options_ = options;
  d.telemetry_ = std::make_shared<obs::Telemetry>();
  d.diags_ =
      std::make_shared<analysis::DiagnosticEngine>(&d.telemetry_->registry);
  d.flightrec_ = std::make_shared<telemetry::FlightRecorder>();
  for (const auto& [code, severity] : options.analysis.severity_overrides) {
    d.diags_->OverrideSeverity(code, severity);
  }
  // Route Registry::Current()/Tracer::Current() -- and with them every IR
  // pass applied while lowering -- into this deployment's telemetry.
  obs::ScopedTelemetry scoped(d.telemetry_.get());
  obs::Tracer* tracer = &d.telemetry_->tracer;
  // Every IR node this compile builds (lowering, schedule passes, analysis
  // rewrites) is bump-allocated from one arena; nodes that escape into the
  // CompileCache keep the arena alive through their control blocks, so the
  // scope can end with the compile.
  auto ir_arena = std::make_shared<common::Arena>();
  common::ArenaScope arena_scope(ir_arena);
  {
    obs::ScopedSpan span(tracer, "fusion");
    const auto before = static_cast<std::int64_t>(g.nodes().size());
    d.fused_ = graph::FuseOperators(g);
    const auto after = static_cast<std::int64_t>(d.fused_.nodes().size());
    span.Arg("nodes_before", before);
    span.Arg("nodes_after", after);
    d.telemetry_->registry.counter("compile.nodes_fused")
        .Add(static_cast<double>(before - after));
  }
  {
    obs::ScopedSpan span(tracer, "lowering");
    if (options.mode == ExecutionMode::kPipelined) {
      d.PlanPipelined(options.recipe);
    } else {
      d.PlanFolded(options.recipe);
    }
    span.Arg("kernels", static_cast<std::int64_t>(d.kernels_.size()));
    span.Arg("invocations",
             static_cast<std::int64_t>(d.invocations_.size()));
  }
  d.AssignQueues();
  try {
    if (options.analysis.verify) d.RunAnalysisGate();
  } catch (const VerifyError& e) {
    d.flightrec_->Note("fault", "VerifyError", {}, e.what());
    d.DumpFlightRecorder();
    throw;
  }
  {
    obs::ScopedSpan span(tracer, "synthesis");
    d.SynthesizeAll();
    span.Arg("status",
             std::string(fpga::SynthStatusName(d.bitstream_.status)));
  }
  d.telemetry_->registry.gauge("compile.arena.bytes")
      .Set(static_cast<double>(ir_arena->bytes_used()));
  d.telemetry_->registry.gauge("compile.arena.nodes")
      .Set(static_cast<double>(ir_arena->num_allocations()));
  d.RecordCompileMetrics();
  if (d.ok()) {
    obs::ScopedSpan span(tracer, "prepare_runtime");
    d.PrepareRuntime();
  }
  return d;
}

// ---------------------------------------------------------------------------
// Pipelined planning (LeNet-class networks, SS6.3.1)

void Deployment::PlanPipelined(const OptimizationRecipe& recipe) {
  // The pipelined planner requires a linear chain of single-consumer nodes.
  const auto consumers = fused_.ConsumerMap();
  for (const Node& n : fused_.nodes()) {
    if (consumers[static_cast<std::size_t>(n.id)].size() > 1 ||
        n.inputs.size() > 1) {
      throw ScheduleError(
          "CLF405",
          "pipelined execution requires a linear chain; node " + n.name +
              " branches (use folded execution)");
    }
  }
  CLFLOW_CHECK_MSG(!recipe.parameterized,
                   "parameterized kernels are a folded-mode optimization");

  const bool naive = !recipe.fuse_and_cache;
  if (recipe.channels) {
    CLFLOW_CHECK_MSG(!naive, "channelized recipes build on the fused/unrolled "
                             "kernels (Table 6.4 ladder)");
  }

  // Every interior edge is a channel.
  auto channelized = [&](const Node& n) {
    return recipe.channels && n.kind != OpKind::kInput &&
           n.id != fused_.output_id();
  };

  CompileCache* cache = options_.compile_cache.get();
  for (const Node& n : fused_.nodes()) {
    if (n.kind == OpKind::kInput) continue;
    const Node& src = fused_.node(n.inputs[0]);
    ir::ChannelIO io;
    if (channelized(src)) io.input = ChannelOf(src);
    if (channelized(n)) io.output = ChannelOf(n);

    const Shape& in_shape = src.output_shape;
    const std::string kname = "k_" + n.name;
    obs::ScopedSpan lower_span("lower:" + kname, "lower");
    NodeSchedule sched;
    sched.conv.fuse_activation = recipe.fuse_and_cache;
    sched.conv.cached_writes = recipe.fuse_and_cache;
    sched.conv.unroll_filter =
        recipe.unroll || (naive && options_.board.auto_unrolls_small_loops);
    sched.conv.weight_cache = recipe.weight_cache;
    sched.dense.cached_writes = recipe.fuse_and_cache;
    sched.dense.unroll_k =
        recipe.unroll ? LargestDivisorLE(in_shape.NumElements(),
                                         recipe.dense_unroll_limit)
                      : 1;
    sched.dense.input_cache = recipe.weight_cache || io.input != nullptr;
    sched.optimized = recipe.fuse_and_cache;
    PlannedKernel pk = LowerNode(n, in_shape, sched, kname, io, cache);

    if (recipe.autorun && pk.built.kernel.buffer_args.empty() &&
        pk.built.kernel.scalar_args.empty()) {
      pk.built.kernel.autorun = true;
    }

    PlannedInvocation inv;
    inv.kernel_index = static_cast<int>(kernels_.size());
    inv.node = n.id;
    inv.stats = AnalyzeInvocation(pk, inv.bindings, cache);
    kernels_.push_back(std::move(pk));
    invocations_.push_back(std::move(inv));
  }
}

// ---------------------------------------------------------------------------
// Folded planning (MobileNet/ResNet-class networks, SS6.3.2)

void Deployment::PlanFolded(const OptimizationRecipe& recipe) {
  CLFLOW_CHECK_MSG(!recipe.channels && !recipe.autorun,
                   "channels/autorun do not apply to folded execution "
                   "(Table 4.1)");

  // Hybrid execution (SS6.5): identify the constant-shape classifier tail
  // after the last convolution-like node. Tail nodes must form a linear
  // single-consumer chain ending at the network output.
  NodeId tail_start = -1;
  if (recipe.pipeline_tail) {
    NodeId last_conv = -1;
    for (const Node& n : fused_.nodes()) {
      if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDepthwiseConv2d ||
          n.kind == OpKind::kAdd || n.kind == OpKind::kPad) {
        last_conv = n.id;
      }
    }
    const auto consumers = fused_.ConsumerMap();
    bool chain_ok = last_conv >= 0 && last_conv < fused_.output_id();
    for (NodeId id = last_conv + 1; chain_ok && id <= fused_.output_id();
         ++id) {
      const Node& n = fused_.node(id);
      chain_ok = n.inputs.size() == 1 &&
                 consumers[static_cast<std::size_t>(id)].size() <= 1;
    }
    if (chain_ok) tail_start = last_conv + 1;
  }
  auto in_tail = [&](const Node& n) {
    return tail_start >= 0 && n.id >= tail_start;
  };
  // A tail node's output travels over a channel, except the network's.
  auto channelized = [&](const Node& n) {
    return in_tail(n) && n.id != fused_.output_id();
  };

  // Kernel groups (one kernel, many invocations), keyed by a structural
  // string; parameterized recipes share one kernel per group.
  std::map<std::string, int> group_kernel;

  auto conv_tiling = [&](const Node& n) -> ConvTiling {
    if (n.kind == OpKind::kDepthwiseConv2d) return recipe.conv_dw;
    if (n.window == 1) return recipe.conv1x1;
    if (n.window <= 3) return recipe.conv3x3;
    return recipe.conv_large;
  };

  CompileCache* cache = options_.compile_cache.get();
  for (const Node& n : fused_.nodes()) {
    if (n.kind == OpKind::kInput) continue;
    const Node& src = fused_.node(n.inputs[0]);
    const Shape& in_shape = src.output_shape;
    const Shape& out = n.output_shape;
    PlannedInvocation inv;
    inv.node = n.id;
    obs::ScopedSpan lower_span("lower:" + n.name, "lower");

    NodeSchedule sched;
    sched.optimized = recipe.fuse_and_cache;
    sched.symbolic = recipe.parameterized;
    // Interning key of the node's kernel group; empty means one kernel
    // per node (the classifier ops, which may join the hybrid tail).
    std::string group;
    ir::ChannelIO io;
    if (channelized(src)) io.input = ChannelOf(src);
    if (channelized(n)) io.output = ChannelOf(n);
    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kDepthwiseConv2d: {
        const bool dw = n.kind == OpKind::kDepthwiseConv2d;
        const ConvTiling tiling = conv_tiling(n);
        ir::ConvSchedule& conv = sched.conv;
        conv.fuse_activation = recipe.fuse_and_cache;
        conv.cached_writes = recipe.fuse_and_cache;
        conv.unroll_filter = recipe.unroll && tiling.unroll_filter;
        conv.symbolic = recipe.parameterized;
        conv.pin_strides = recipe.parameterized && recipe.pin_strides;
        if (recipe.fuse_and_cache) {
          conv.tile_c1 = dw ? 1 : tiling.c1;
          conv.tile_w2 = tiling.w2;
          conv.tile_c2 = dw ? 1 : tiling.c2;
        }
        // Divisibility (no epilogue loops, SS4.11 requirement 2).
        if ((!dw && in_shape.channels() % conv.tile_c1 != 0) ||
            out.width() % conv.tile_w2 != 0 ||
            (!dw && n.filters % conv.tile_c2 != 0)) {
          throw ScheduleError("CLF403",
                              "tiling does not divide layer " + n.name);
        }
        group = dw ? "dw" : "conv";
        group += std::to_string(n.window);
        group += "_s";
        group += std::to_string(n.stride);
        group += "_b";
        group += n.bias.defined() ? '1' : '0';
        // Parameterized kernels select their activation at runtime, so
        // activation is not part of the grouping key; constant-shape
        // kernels bake it in.
        if (!recipe.parameterized) {
          group += "_a";
          group += std::to_string(static_cast<int>(n.activation));
          group += "_node";
          group += std::to_string(n.id);
        }
        break;
      }
      case OpKind::kPad:
        group = "pad" + std::to_string(n.pad);
        if (!recipe.parameterized) group += "_node" + std::to_string(n.id);
        break;
      case OpKind::kAdd:
        sched.add_unroll = recipe.fuse_and_cache ? recipe.add_unroll : 1;
        CLFLOW_CHECK_MSG(out.NumElements() % sched.add_unroll == 0,
                         "add unroll does not divide");
        group = "add_a" + std::to_string(static_cast<int>(n.activation));
        if (!recipe.parameterized) group += "_node" + std::to_string(n.id);
        break;
      default:
        sched.dense.cached_writes = recipe.fuse_and_cache;
        sched.dense.unroll_k =
            recipe.unroll ? LargestDivisorLE(in_shape.NumElements(),
                                             recipe.dense_unroll_folded)
                          : 1;
        sched.dense.input_cache =
            recipe.fuse_and_cache || io.input != nullptr;
        break;
    }
    if (group.empty()) {
      inv.kernel_index = static_cast<int>(kernels_.size());
      kernels_.push_back(
          LowerNode(n, in_shape, sched, "k_" + n.name, io, cache));
    } else {
      const auto [it, inserted] = group_kernel.try_emplace(
          group, static_cast<int>(kernels_.size()));
      if (inserted) {
        kernels_.push_back(
            LowerNode(n, in_shape, sched, "k_" + group, io, cache));
      }
      inv.kernel_index = it->second;
    }

    const auto& built =
        kernels_[static_cast<std::size_t>(inv.kernel_index)].built;
    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kDepthwiseConv2d:
        BindParam(built, "C1", in_shape.channels(), inv.bindings);
        BindParam(built, "HW", in_shape.height(), inv.bindings);
        BindParam(built, "K", n.filters, inv.bindings);
        BindParam(built, "ACT", static_cast<std::int64_t>(n.activation),
                  inv.bindings);
        BindStrides(built, built.input,
                    Shape{in_shape.channels(), in_shape.height(),
                          in_shape.width()},
                    inv.bindings);
        if (built.weights) {
          BindStrides(built, built.weights,
                      n.kind == OpKind::kDepthwiseConv2d
                          ? Shape{in_shape.channels(), n.window, n.window}
                          : Shape{n.filters, in_shape.channels(), n.window,
                                  n.window},
                      inv.bindings);
        }
        BindStrides(built, built.output,
                    Shape{out.channels(), out.height(), out.width()},
                    inv.bindings);
        for (const auto& ws : built.workspaces) {
          BindStrides(built, ws, Shape{out.height(), out.width()},
                      inv.bindings);
        }
        break;
      case OpKind::kPad:
        BindParam(built, "C1", in_shape.channels(), inv.bindings);
        BindParam(built, "HW", in_shape.height(), inv.bindings);
        break;
      case OpKind::kAdd:
        BindParam(built, "N", out.NumElements(), inv.bindings);
        break;
      default:
        break;
    }

    // Hybrid tail: autorun weightless kernels (no dispatch).
    if (in_tail(n)) {
      ir::Kernel& kernel =
          kernels_[static_cast<std::size_t>(inv.kernel_index)].built.kernel;
      if (kernel.buffer_args.empty() && kernel.scalar_args.empty()) {
        kernel.autorun = true;
      }
    }

    inv.stats = AnalyzeInvocation(
        kernels_[static_cast<std::size_t>(inv.kernel_index)], inv.bindings,
        cache);
    invocations_.push_back(std::move(inv));
  }
}

// ---------------------------------------------------------------------------

void Deployment::SynthesizeAll() {
  std::vector<bool> seen(kernels_.size(), false);
  // Representative bindings: first invocation of each kernel.
  std::vector<ir::Bindings> rep(kernels_.size());
  for (const auto& inv : invocations_) {
    const auto idx = static_cast<std::size_t>(inv.kernel_index);
    if (!seen[idx]) {
      seen[idx] = true;
      rep[idx] = inv.bindings;
    }
  }
  // Per-kernel designs are board-independent, so with a cache each is
  // looked up by its content fingerprint and only misses pay the synthesis
  // cost; AssembleBitstream (totals, fit, route, fmax) is cheap and always
  // runs against this deployment's board.
  CompileCache* cache = options_.compile_cache.get();
  obs::Registry& reg = telemetry_->registry;
  std::vector<fpga::KernelDesign> designs;
  designs.reserve(kernels_.size());
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const ir::Kernel& kernel = kernels_[i].built.kernel;
    CompileCache::DesignKey key;
    if (cache != nullptr) {
      key = CompileCache::DesignKeyFromContent(
          cache->InternKey(kernels_[i].content_key), kernel.autorun,
          kernel.name, rep[i], options_.recipe.aoc, options_.cost_model);
      if (auto hit = cache->LookupDesign(key)) {
        hit->kernel = &kernel;  // cached copies carry no deployment pointer
        designs.push_back(std::move(*hit));
        reg.counter("compile.cache.hits").Add(1.0);
        continue;
      }
    }
    designs.push_back(fpga::SynthesizeKernelDesign(
        {&kernel, rep[i]}, options_.recipe.aoc, options_.cost_model));
    if (cache != nullptr) {
      cache->InsertDesign(key, designs.back());
      reg.counter("compile.cache.misses").Add(1.0);
    }
  }
  bitstream_ = fpga::AssembleBitstream(std::move(designs), options_.board,
                                       options_.recipe.aoc,
                                       options_.cost_model);
}

void Deployment::RecordCompileMetrics() {
  obs::Registry& reg = telemetry_->registry;
  reg.gauge("compile.kernels").Set(static_cast<double>(kernels_.size()));
  reg.gauge("compile.invocations")
      .Set(static_cast<double>(invocations_.size()));
  reg.gauge("synth.ok").Set(ok() ? 1.0 : 0.0);
  reg.gauge("synth.fmax_mhz").Set(bitstream_.fmax_mhz);
  reg.gauge("synth.routing_pressure").Set(bitstream_.routing_pressure);
  const fpga::ResourceTotals& t = bitstream_.totals;
  reg.gauge("synth.aluts").Set(static_cast<double>(t.aluts));
  reg.gauge("synth.ffs").Set(static_cast<double>(t.ffs));
  reg.gauge("synth.brams").Set(static_cast<double>(t.brams));
  reg.gauge("synth.dsps").Set(static_cast<double>(t.dsps));
  reg.gauge("synth.alut_frac").Set(t.alut_frac);
  reg.gauge("synth.bram_frac").Set(t.bram_frac);
  reg.gauge("synth.dsp_frac").Set(t.dsp_frac);
  std::int64_t lsus = 0, nonseq = 0;
  for (const auto& k : bitstream_.kernels) {
    lsus += k.lsu_count;
    nonseq += k.nonseq_lsu_count;
    reg.histogram("synth.kernel.aluts").Observe(static_cast<double>(k.aluts));
    reg.histogram("synth.kernel.brams").Observe(static_cast<double>(k.brams));
    reg.histogram("synth.kernel.dsps").Observe(static_cast<double>(k.dsps));
  }
  reg.gauge("synth.lsu_count").Set(static_cast<double>(lsus));
  reg.gauge("synth.nonseq_lsu_count").Set(static_cast<double>(nonseq));
}

void Deployment::AssignQueues() {
  // Queue assignment happens at compile time (not in PrepareRuntime) so the
  // dataflow checker can reason about launch ordering before a runtime
  // exists: every in-order-queue deadlock and cross-queue hazard is a
  // property of this mapping.
  invocation_queues_.assign(invocations_.size(), 0);
  num_queues_ = 1;
  const bool ce = options_.recipe.concurrent_execution &&
                  options_.recipe.channels;
  if (ce) {
    for (std::size_t i = 0; i < invocations_.size(); ++i) {
      if (KernelOf(invocations_[i]).autorun) continue;
      // The first kernel shares queue 0 with the input write so the
      // in-order queue sequences it after the transfer.
      invocation_queues_[i] = i == 0 ? 0 : num_queues_++;
    }
  }
}

analysis::Plan Deployment::AnalysisPlan() const {
  analysis::Plan plan;
  std::unordered_map<NodeId, int> step_of_node;
  for (std::size_t i = 0; i < invocations_.size(); ++i) {
    step_of_node[invocations_[i].node] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < invocations_.size(); ++i) {
    const auto& inv = invocations_[i];
    const ir::Kernel& kernel = KernelOf(inv);
    analysis::PlanStep step;
    step.kernel = kernel.name;
    step.queue = i < invocation_queues_.size()
                     ? invocation_queues_[i]
                     : 0;
    step.autorun = kernel.autorun;
    step.num_args = static_cast<std::int64_t>(kernel.buffer_args.size() +
                                              kernel.scalar_args.size());
    step.channel_writes = inv.stats.channel_writes;
    step.reads = ChannelNames(kernel.channels_read);
    step.writes = ChannelNames(kernel.channels_written);
    for (NodeId in : fused_.node(inv.node).inputs) {
      auto it = step_of_node.find(in);
      if (it != step_of_node.end()) step.deps.push_back(it->second);
    }
    plan.steps.push_back(std::move(step));
  }
  for (const auto& chan : ir::ProgramChannels(KernelPtrs())) {
    plan.channels.emplace(chan->name, chan->channel_depth);
  }
  return plan;
}

void Deployment::RunAnalysisGate() {
  obs::Tracer* tracer = &telemetry_->tracer;
  {
    obs::ScopedSpan span(tracer, "verify");
    int errors = 0;
    for (const auto& pk : kernels_) {
      errors += analysis::VerifyKernel(pk.built.kernel, *diags_);
    }
    span.Arg("errors", static_cast<std::int64_t>(errors));
  }
  {
    obs::ScopedSpan span(tracer, "lint");
    const analysis::Plan plan = AnalysisPlan();
    analysis::CheckDataflow(plan, *diags_);
    analysis::LintPlan(plan, *diags_);
    // Lint each distinct kernel once, with the stats of its first
    // invocation (representative bindings, as synthesis uses).
    std::vector<bool> linted(kernels_.size(), false);
    for (const auto& inv : invocations_) {
      const auto idx = static_cast<std::size_t>(inv.kernel_index);
      if (linted[idx]) continue;
      linted[idx] = true;
      analysis::LintKernel(kernels_[idx].built.kernel, &inv.stats, *diags_);
    }
    span.Arg("errors", static_cast<std::int64_t>(diags_->error_count()));
    span.Arg("warnings", static_cast<std::int64_t>(diags_->warning_count()));
  }
  if (options_.analysis.lint_source) {
    // Translation validation: prove the emitted source matches the plan
    // (CLF8xx), so an emitter bug cannot ship a kernel the static
    // analyses never saw. The gate lints the tree the emitter built;
    // printing it once numbers the lines diagnostics cite, and the text
    // is kept for GeneratedSource().
    const std::vector<const ir::Kernel*> kernels = KernelPtrs();
    srclint::SrcProgram program;
    {
      obs::ScopedSpan span(tracer, "codegen");
      program = codegen::BuildProgram(kernels);
      generated_source_ = srclint::ToSourceNumbered(program);
      span.Arg("bytes", static_cast<std::int64_t>(generated_source_.size()));
    }
    obs::ScopedSpan span(tracer, "srclint");
    const std::string& inject = options_.analysis.srclint_inject;
    if (inject.empty()) {
      srclint::LintProgram(program, kernels, *diags_);
    } else {
      // Injected defects corrupt text by design, so this demo path lints
      // the corrupted text through the parser.
      srclint::LintProgram(srclint::InjectDefect(inject, generated_source_)
                               .value_or(generated_source_),
                           kernels, *diags_);
    }
    span.Arg("errors", static_cast<std::int64_t>(diags_->error_count()));
  }
  diags_->MirrorToTrace(telemetry_->tracer);
  if (diags_->HasErrors()) {
    throw VerifyError("static analysis rejected the deployment plan:\n" +
                      diags_->ToText());
  }
}

void Deployment::PrepareRuntime() {
  runtime_ = std::make_unique<ocl::Runtime>(bitstream_, options_.cost_model,
                                            options_.runtime);
  runtime_->set_flight_recorder(flightrec_.get());
  input_buffer_ = runtime_->CreateBuffer(
      fused_.node(fused_.input_id()).output_shape.NumElements());
  output_buffer_ = runtime_->CreateBuffer(
      fused_.node(fused_.output_id()).output_shape.NumElements());
  // Materialize the compile-time queue assignment (AssignQueues); queue 0
  // exists at runtime construction.
  for (int q = 1; q < num_queues_; ++q) {
    const int created = runtime_->CreateQueue();
    CLFLOW_CHECK_MSG(created == q, "queue ids diverged from the plan");
  }
  // The launch table: every invocation resolved against the programmed
  // bitstream once, so Run dispatches rows without name lookups.
  launches_.clear();
  launches_.reserve(invocations_.size());
  for (std::size_t i = 0; i < invocations_.size(); ++i) {
    const ir::Kernel& kernel = KernelOf(invocations_[i]);
    ocl::KernelLaunch launch;
    launch.name = kernel.name;
    launch.stats = invocations_[i].stats;
    launch.reads_channels = ChannelNames(kernel.channels_read);
    launch.writes_channels = ChannelNames(kernel.channels_written);
    launches_.push_back(
        runtime_->Resolve(launch, invocation_queues_[i], kernel.autorun));
  }
  latency_us_ = &telemetry_->registry.histogram("run.latency_us");
}

std::function<void()> Deployment::ComputeNode(NodeId node_id) {
  return [this, node_id] {
    const Node& n = fused_.node(node_id);
    std::vector<Tensor> inputs;
    inputs.reserve(n.inputs.size());
    for (NodeId in : n.inputs) inputs.push_back(acts_.at(in));
    Tensor out = graph::ExecuteNode(n, inputs, options_.functional_threads);
    if (node_id == fused_.output_id()) {
      const auto src = out.data();
      auto dst = output_buffer_->view();
      std::copy(src.begin(), src.end(), dst.begin());
    }
    acts_[node_id] = std::move(out);
  };
}

void Deployment::DumpFlightRecorder() const {
  if (options_.flightrec_path.empty() || flightrec_ == nullptr) return;
  // Mirror the accumulated diagnostics so the dump stands alone: the
  // postmortem reader gets CLF codes next to the command stream without
  // needing the process's diagnostics output.
  for (const analysis::Diagnostic& diag : diags_->diagnostics()) {
    telemetry::FlightEvent ev;
    ev.kind = "diag";
    ev.label = diag.code;
    ev.detail = diag.message;
    flightrec_->Record(std::move(ev));
  }
  if (flightrec_->overflowed()) {
    const std::string msg =
        "flight recorder dropped " + std::to_string(flightrec_->dropped()) +
        " event(s) before the dump (capacity " +
        std::to_string(flightrec_->capacity()) + ")";
    diags_->Report(analysis::Diagnostic::Make(
        analysis::kFlightRecorderOverflow, {}, msg));
    flightrec_->Note("diag", std::string(analysis::kFlightRecorderOverflow.id),
                     {}, msg);
  }
  // Sequence the dump filename: the first postmortem keeps the documented
  // path, later ones get ".1", ".2", ... so a run with several escaping
  // faults never overwrites an earlier crash's evidence.
  flightrec_->DumpToFile(
      telemetry::SequencedDumpPath(options_.flightrec_path,
                                   flightrec_dumps_++));
}

RunResult Deployment::Run(const Tensor& input, bool functional) {
  if (!ok()) {
    throw RuntimeApiError("deployment did not synthesize: " +
                          bitstream_.status_detail);
  }
  if (functional) {
    acts_.clear();
    acts_[fused_.input_id()] = input;
  }

  const std::int64_t reprograms_before = runtime_->reprograms();
  RunResult result;
  // Open the request context: a deterministic trace id (monotonic per
  // deployment) stamped into every event this run enqueues, so the trace
  // export can chain them causally and the flight recorder can attribute
  // its window to requests.
  result.trace_id = ++next_trace_id_;
  const telemetry::TraceContext ctx{result.trace_id, result.trace_id};
  runtime_->set_trace_context(ctx);
  flightrec_->NoteRun(result.trace_id, ctx, functional);
  try {
    runtime_->EnqueueWrite(0, input_buffer_, input.data(), "write_input");
    int last_queue = 0;
    std::function<void()> compute;
    for (std::size_t i = 0; i < launches_.size(); ++i) {
      ocl::LaunchRow& row = launches_[i];
      if (functional) compute = ComputeNode(invocations_[i].node);
      runtime_->Dispatch(row, compute);
      if (!row.autorun) last_queue = row.queue;
    }

    const std::int64_t out_elems =
        fused_.node(fused_.output_id()).output_shape.NumElements();
    result.output = Tensor(Shape{out_elems});
    runtime_->EnqueueRead(last_queue, output_buffer_, result.output.data(),
                          "read_output");
    if (!functional) result.output = Tensor();
    result.latency = runtime_->Finish();
    // Per-request latency feeds the deployment's log-bucketed histogram:
    // a serving loop can call Run unboundedly without growing telemetry.
    latency_us_->Observe(result.latency.us());
  } catch (const RuntimeFaultError& e) {
    // Surface the fault through the same diagnostics channel as the
    // compile-time checks before rethrowing, so tooling that renders
    // diagnostics() shows runtime faults next to static findings.
    if (const analysis::CodeInfo* info = analysis::FindCode(e.code())) {
      analysis::DiagLocation loc;
      loc.kernel = e.kernel();
      loc.buffer = e.channel();
      diags_->Report(analysis::Diagnostic::Make(
          *info, std::move(loc),
          e.what() + (e.queue_snapshot().empty()
                          ? std::string()
                          : " [" + e.queue_snapshot() + "]")));
    }
    // The fault escapes this Run: close the request and write the
    // postmortem (the runtime already recorded the fault event itself).
    runtime_->clear_trace_context();
    DumpFlightRecorder();
    throw;
  }
  runtime_->clear_trace_context();
  if (runtime_->reprograms() > reprograms_before) {
    // The run survived a device loss: record the recovery as a warning.
    diags_->Report(analysis::Diagnostic::Make(
        analysis::kRuntimeDeviceLost, {},
        "device reset during Run(): recovered by " +
            std::to_string(runtime_->reprograms() - reprograms_before) +
            " reprogram(s) costing " +
            std::to_string(runtime_->retry_policy().reprogram_cost.us()) +
            " us each"));
  }
  return result;
}

double Deployment::EstimateFps(const Tensor& input,
                               bool verify_against_reference) {
  if (verify_against_reference) {
    RunResult r = Run(input, /*functional=*/true);
    Tensor expected = graph::Execute(fused_, input,
                                     options_.functional_threads);
    Tensor got = r.output.Reshaped(expected.shape());
    if (!Tensor::AllClose(got, expected, 1e-3f, 1e-4f)) {
      throw Error("FPGA functional output diverges from the reference (max "
                  "rel diff " +
                  std::to_string(Tensor::MaxRelDiff(got, expected)) + ")");
    }
  }
  const RunResult timing = Run(input, /*functional=*/false);
  return 1.0 / timing.latency.seconds();
}

std::vector<OpProfileEntry> Deployment::ProfileOps() {
  if (!ok()) {
    throw RuntimeApiError("deployment did not synthesize");
  }
  std::map<std::string, OpProfileEntry> by_class;
  SimTime total;
  for (const auto& inv : invocations_) {
    const auto& pk = kernels_[static_cast<std::size_t>(inv.kernel_index)];
    OpProfileEntry& e = by_class[pk.op_class];
    e.op_class = pk.op_class;
    e.flops += graph::NodeCost(fused_.node(inv.node), fused_).flops;
    const SimTime t = fpga::InvocationTime(inv.stats, options_.board,
                                           bitstream_.fmax_mhz,
                                           options_.cost_model);
    e.kernel_time += t;
    total += t;
  }
  std::vector<OpProfileEntry> entries;
  entries.reserve(by_class.size());
  for (auto& [_, e] : by_class) {
    e.runtime_share = total > kSimTimeZero
                          ? e.kernel_time.seconds() / total.seconds()
                          : 0.0;
    e.gflops = e.kernel_time > kSimTimeZero
                   ? e.flops / e.kernel_time.seconds() / 1e9
                   : 0.0;
    entries.push_back(e);
  }
  std::sort(entries.begin(), entries.end(),
            [](const OpProfileEntry& a, const OpProfileEntry& b) {
              return a.flops > b.flops;
            });
  return entries;
}

EventBreakdown Deployment::ProfileEvents(const Tensor& input) {
  if (!ok()) {
    throw RuntimeApiError("deployment did not synthesize");
  }
  runtime_->ClearEvents();
  runtime_->set_profiling(true);
  (void)Run(input, /*functional=*/false);
  runtime_->set_profiling(false);

  EventBreakdown breakdown;
  for (const auto& ev : runtime_->event_pool()) {
    switch (ev.kind) {
      case ocl::CommandKind::kWriteBuffer:
        breakdown.write += ev.duration();
        break;
      case ocl::CommandKind::kKernel:
        breakdown.kernel += ev.duration();
        break;
      case ocl::CommandKind::kReadBuffer:
        breakdown.read += ev.duration();
        break;
    }
  }
  runtime_->ClearEvents();
  return breakdown;
}

std::vector<const ir::Kernel*> Deployment::KernelPtrs() const {
  std::vector<const ir::Kernel*> kernels;
  kernels.reserve(kernels_.size());
  for (const auto& pk : kernels_) kernels.push_back(&pk.built.kernel);
  return kernels;
}

std::string Deployment::GeneratedSource() const {
  if (!generated_source_.empty()) return generated_source_;
  obs::ScopedSpan span(&telemetry_->tracer, "codegen");
  std::string source = codegen::EmitProgram(KernelPtrs());
  span.Arg("bytes", static_cast<std::int64_t>(source.size()));
  return source;
}

ocl::Runtime& Deployment::runtime() const {
  if (!runtime_) {
    throw RuntimeApiError("deployment did not synthesize: " +
                          bitstream_.status_detail);
  }
  return *runtime_;
}

void Deployment::ExportRuntimeMetrics(obs::Registry& registry,
                                      const obs::Labels& base_labels) const {
  runtime().ExportMetrics(registry, base_labels);
  // Predicted-vs-observed divergence: the synthesis-time estimate uses one
  // representative binding per kernel; the schedule re-analyzes every
  // invocation, so parameterized (folded) kernels diverge when layer
  // shapes differ from the representative.
  const std::map<std::string, ocl::Runtime::KernelUsage> usage =
      runtime_->kernel_usage();
  for (const auto& kd : bitstream_.kernels) {
    auto it = usage.find(kd.name);
    if (it == usage.end()) continue;
    const SimTime predicted = fpga::InvocationTime(
        kd.static_stats, bitstream_.board, bitstream_.fmax_mhz,
        options_.cost_model);
    const double observed_us =
        it->second.total.us() / static_cast<double>(it->second.invocations);
    obs::Labels labels = base_labels;
    labels["kernel"] = kd.name;
    registry.gauge("perf.kernel.predicted_us", labels).Set(predicted.us());
    registry.gauge("perf.kernel.observed_us", labels).Set(observed_us);
    if (predicted > kSimTimeZero) {
      registry.gauge("perf.kernel.divergence", labels)
          .Set(observed_us / predicted.us());
    }
  }
}

}  // namespace clflow::core

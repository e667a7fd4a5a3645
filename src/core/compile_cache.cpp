#include "core/compile_cache.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/fnv.hpp"

namespace clflow::core {

namespace {

using common::Fnv;

/// Every CostModel constant, in declaration order. New fields must be
/// added here (DESIGN.md section 11 documents the key derivation).
void MixCostModel(Fnv& f, const fpga::CostModel& m) {
  f.I64(m.kernel_base_alut);
  f.I64(m.alut_per_loop);
  f.I64(m.alut_per_unfused_add);
  f.I64(m.dsp_per_complex_op);
  f.I64(m.alut_per_complex_op);
  f.I64(m.lsu_base_alut);
  f.I64(m.lsu_alut_per_byte_width);
  f.I64(m.lsu_base_bram);
  f.I64(m.lsu_bram_per_16byte_width);
  f.I64(m.cached_lsu_bram);
  f.F64(m.nonaligned_alut_factor);
  f.F64(m.nonaligned_bram_factor);
  f.F64(m.ff_per_alut);
  f.I64(m.bram_bytes);
  f.I64(m.channel_base_alut);
  f.F64(m.pressure_alut_weight);
  f.F64(m.pressure_bram_weight);
  f.F64(m.pressure_dsp_weight);
  f.F64(m.pressure_per_kbit_lsu_width);
  f.F64(m.pressure_per_lsu);
  f.F64(m.pressure_nonseq_lsu_multiplier);
  f.F64(m.fmax_linear);
  f.F64(m.fmax_quadratic);
  f.F64(m.route_fail_pressure);
  f.F64(m.burst_bytes);
  f.F64(m.data_bytes);
  f.I64(m.ops_per_dsp);
  f.F64(m.cached_lsu_reuse);
}

std::int64_t DesignBytes(const CompileCache::DesignKey& key,
                         const fpga::KernelDesign& d) {
  return static_cast<std::int64_t>(sizeof(fpga::KernelDesign)) +
         static_cast<std::int64_t>(d.static_stats.accesses.size() *
                                   sizeof(ir::AccessSite)) +
         static_cast<std::int64_t>(d.name.size() + key.kernel.size());
}

/// Representative bindings serialized by parameter name so the unordered
/// map's iteration order cannot leak into any cache key.
void MixBindings(Fnv& f, const ir::Bindings& bindings) {
  std::vector<std::pair<std::string, std::int64_t>> bound;
  bound.reserve(bindings.size());
  for (const auto& [var, value] : bindings) {
    bound.emplace_back(var->name, value);
  }
  std::sort(bound.begin(), bound.end());
  f.U64(bound.size());
  for (const auto& [name, value] : bound) {
    f.Str(name);
    f.I64(value);
  }
}

/// Content-key text: a kind tag, the kernel name, one '|'-separated field
/// per spec/schedule value, then one group per channel endpoint. Strings
/// carry their length, so no field can absorb its neighbour.
template <typename... Fields>
std::string ContentKey(std::string_view kind, std::string_view name,
                       const ir::ChannelIO& io, Fields... fields) {
  std::string key(kind);
  auto field = [&key](std::int64_t v) {
    key += '|';
    key += std::to_string(v);
  };
  auto str = [&](std::string_view text) {
    field(static_cast<std::int64_t>(text.size()));
    key += ':';
    key += text;
  };
  auto endpoint = [&](std::string_view role, const ir::BufferPtr& chan) {
    if (!chan) return;
    key += role;
    str(chan->name);
    field(chan->channel_depth);
    field(static_cast<std::int64_t>(chan->dtype));
  };
  str(name);
  (field(static_cast<std::int64_t>(fields)), ...);
  endpoint("|in", io.input);
  endpoint("|out", io.output);
  return key;
}

std::int64_t StatsBytes(const std::string& key, const ir::KernelStats& s) {
  return static_cast<std::int64_t>(sizeof(ir::KernelStats)) +
         static_cast<std::int64_t>(key.size()) +
         static_cast<std::int64_t>(s.accesses.size() *
                                   sizeof(ir::AccessSite));
}

std::int64_t KernelBytes(const std::string& key, const ir::BuiltKernel& b) {
  // Structural nodes are shared with live deployments; charge the owning
  // containers plus a flat estimate per parameter/buffer handle.
  return static_cast<std::int64_t>(sizeof(ir::BuiltKernel)) +
         static_cast<std::int64_t>(key.size()) +
         static_cast<std::int64_t>(
             (b.params.size() + b.workspaces.size() +
              b.kernel.buffer_args.size() + b.kernel.scalar_args.size() +
              b.kernel.local_buffers.size()) *
             48);
}

}  // namespace

CompileCacheStats CompileCacheStats::Since(const CompileCacheStats& base)
    const {
  CompileCacheStats d;
  d.design_hits = design_hits - base.design_hits;
  d.design_misses = design_misses - base.design_misses;
  d.lower_hits = lower_hits - base.lower_hits;
  d.lower_misses = lower_misses - base.lower_misses;
  d.stats_hits = stats_hits - base.stats_hits;
  d.stats_misses = stats_misses - base.stats_misses;
  d.entries = entries;
  d.bytes = bytes;
  return d;
}

CompileCache::DesignKey CompileCache::DesignKeyFromContent(
    const common::InternedString& content_key, bool autorun,
    const std::string& name, const ir::Bindings& bindings,
    const fpga::AocOptions& aoc, const fpga::CostModel& model) {
  // Seed from the key's precomputed FNV state instead of rehashing its
  // bytes; the length is mixed separately to keep the prefix-free
  // property of Fnv::Str.
  Fnv f;
  f.h = content_key.hash;
  f.U64(content_key.view.size());
  f.Bool(autorun);
  MixBindings(f, bindings);
  f.Bool(aoc.fp_relaxed);
  f.Bool(aoc.fpc);
  MixCostModel(f, model);
  return DesignKey{f.h, content_key.view.size(), name};
}

common::InternedString CompileCache::InternKey(std::string_view key) {
  const std::scoped_lock lock(mu_);
  return keys_.Intern(key);
}

std::string CompileCache::ConvKernelKey(const ir::ConvSpec& spec,
                                        const ir::ConvSchedule& sched,
                                        const std::string& name,
                                        const ir::ChannelIO& io) {
  return ContentKey("conv", name, io, spec.c1, spec.h1, spec.w1, spec.k,
                    spec.f, spec.stride, spec.depthwise, spec.has_bias,
                    spec.activation, sched.fuse_activation,
                    sched.cached_writes, sched.unroll_filter, sched.tile_c1,
                    sched.tile_w2, sched.tile_c2, sched.weight_cache,
                    sched.symbolic, sched.pin_strides);
}

std::string CompileCache::DenseKernelKey(const ir::DenseSpec& spec,
                                         const ir::DenseSchedule& sched,
                                         const std::string& name,
                                         const ir::ChannelIO& io) {
  return ContentKey("dense", name, io, spec.c1, spec.c2, spec.has_bias,
                    spec.activation, sched.cached_writes, sched.unroll_k,
                    sched.input_cache);
}

std::string CompileCache::PoolKernelKey(const ir::PoolSpec& spec,
                                        const ir::PoolSchedule& sched,
                                        const std::string& name,
                                        const ir::ChannelIO& io) {
  return ContentKey("pool", name, io, spec.c, spec.h1, spec.w1, spec.f,
                    spec.stride, spec.is_max, sched.optimized);
}

std::string CompileCache::SoftmaxKernelKey(const ir::SoftmaxSpec& spec,
                                           bool optimized,
                                           const std::string& name,
                                           const ir::ChannelIO& io) {
  return ContentKey("softmax", name, io, spec.n, optimized);
}

std::string CompileCache::PadKernelKey(const ir::PadSpec& spec,
                                       const std::string& name,
                                       const ir::ChannelIO& io) {
  return ContentKey("pad", name, io, spec.c, spec.h1, spec.w1, spec.pad,
                    spec.symbolic);
}

std::string CompileCache::AddKernelKey(const ir::AddSpec& spec,
                                       std::int64_t unroll,
                                       const std::string& name) {
  return ContentKey("add", name, {}, spec.n, spec.activation, spec.symbolic,
                    unroll);
}

std::string CompileCache::CopyKernelKey(std::int64_t n,
                                        const std::string& name,
                                        const ir::ChannelIO& io) {
  return ContentKey("copy", name, io, n);
}

std::optional<fpga::KernelDesign> CompileCache::LookupDesign(
    const DesignKey& key) {
  const std::scoped_lock lock(mu_);
  auto it = designs_.find(key);
  if (it == designs_.end()) {
    ++stats_.design_misses;
    return std::nullopt;
  }
  ++stats_.design_hits;
  return it->second;
}

void CompileCache::InsertDesign(const DesignKey& key,
                                const fpga::KernelDesign& design) {
  const std::scoped_lock lock(mu_);
  auto [it, inserted] = designs_.emplace(key, design);
  if (!inserted) return;  // racing miss: first insert wins
  it->second.kernel = nullptr;
  ++stats_.entries;
  stats_.bytes += DesignBytes(key, design);
}

std::optional<ir::BuiltKernel> CompileCache::LookupKernel(
    const std::string& key) {
  const std::scoped_lock lock(mu_);
  auto it = kernels_.find(keys_.Intern(key).view.data());
  if (it == kernels_.end()) {
    ++stats_.lower_misses;
    return std::nullopt;
  }
  ++stats_.lower_hits;
  return it->second;
}

void CompileCache::InsertKernel(const std::string& key,
                                const ir::BuiltKernel& built) {
  const std::scoped_lock lock(mu_);
  auto [it, inserted] = kernels_.emplace(keys_.Intern(key).view.data(), built);
  if (!inserted) return;
  ++stats_.entries;
  stats_.bytes += KernelBytes(key, built);
}

std::string CompileCache::StatsKeyFor(const std::string& content_key,
                                      bool autorun,
                                      const ir::Bindings& bindings) {
  std::vector<std::pair<std::string, std::int64_t>> bound;
  bound.reserve(bindings.size());
  for (const auto& [var, value] : bindings) {
    bound.emplace_back(var->name, value);
  }
  std::sort(bound.begin(), bound.end());
  std::string key = content_key;
  key += autorun ? "|stats:a" : "|stats";
  for (const auto& [name, value] : bound) {
    key += '|';
    key += name;
    key += '=';
    key += std::to_string(value);
  }
  return key;
}

std::optional<ir::KernelStats> CompileCache::LookupStats(
    const std::string& key) {
  const std::scoped_lock lock(mu_);
  auto it = kernel_stats_.find(keys_.Intern(key).view.data());
  if (it == kernel_stats_.end()) {
    ++stats_.stats_misses;
    return std::nullopt;
  }
  ++stats_.stats_hits;
  return it->second;
}

void CompileCache::InsertStats(const std::string& key,
                               const ir::KernelStats& stats) {
  const std::scoped_lock lock(mu_);
  auto [it, inserted] =
      kernel_stats_.emplace(keys_.Intern(key).view.data(), stats);
  if (!inserted) return;
  ++stats_.entries;
  stats_.bytes += StatsBytes(key, stats);
}

CompileCacheStats CompileCache::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

const std::shared_ptr<CompileCache>& CompileCache::SharedPtr() {
  static const auto* instance =
      new std::shared_ptr<CompileCache>(std::make_shared<CompileCache>());
  return *instance;
}

}  // namespace clflow::core

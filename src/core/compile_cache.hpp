// Content-hashed compile/synthesis cache (DSE v2, paper SS4.11).
//
// A design-space sweep compiles many deployments that share most of their
// kernels: every MobileNet candidate carries the same conv3x3 / conv_dw /
// pad / dense kernels and only varies the pointwise tiling. The cache
// memoizes the expensive per-kernel stages so shared work is done once
// per *content*, not once per design point. Every planned kernel, in
// either execution mode, carries a content key (PlannedKernel::
// content_key): the serialization of the builder spec, schedule, kernel
// name and channel endpoints its IR is a pure function of, derived by the
// one *KernelKey function of its spec type below. All three memo tables
// are keyed by it:
//
//   * lowering  -- ir::Build*Kernel results keyed by the content key: the
//     scheduled IR, its buffers and its symbolic parameters are immutable
//     after construction, so a cached BuiltKernel is shared structurally
//     across deployments. That includes kernels with channel endpoints: a
//     channel's identity is its name (ir::ProgramChannels), which the
//     content key covers with the channel's depth and element type;
//   * analysis  -- ir::AnalyzeKernel results keyed by (content key,
//     autorun, bindings), which is where a folded compile actually spends
//     its time;
//   * synthesis -- fpga::SynthesizeKernelDesign results keyed by a
//     fingerprint of (content key, autorun, representative bindings, AOC
//     flags, every CostModel constant). The per-kernel design is
//     board-independent (fit/route/fmax are whole-design properties
//     computed by AssembleBitstream), so the board is deliberately NOT
//     part of the key; changing the cost model or AOC flags changes the
//     fingerprint, which is the invalidation path -- stale entries can
//     never be returned, only orphaned.
//
// Thread safety: all methods are safe to call from concurrent
// Deployment::Compile workers (core::ExploreFoldedTilings jobs > 1). A
// racing miss on the same key computes the design twice and keeps one
// copy; results are value-identical either way because synthesis is a
// pure function of the key.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/arena.hpp"
#include "fpga/synth.hpp"
#include "ir/analysis.hpp"
#include "ir/op_kernels.hpp"

namespace clflow::core {

struct CompileCacheStats {
  std::int64_t design_hits = 0;
  std::int64_t design_misses = 0;
  std::int64_t lower_hits = 0;
  std::int64_t lower_misses = 0;
  std::int64_t stats_hits = 0;
  std::int64_t stats_misses = 0;
  std::int64_t entries = 0;
  /// Approximate resident bytes (entry payloads + keys).
  std::int64_t bytes = 0;

  [[nodiscard]] std::int64_t hits() const {
    return design_hits + lower_hits + stats_hits;
  }
  [[nodiscard]] std::int64_t misses() const {
    return design_misses + lower_misses + stats_misses;
  }
  [[nodiscard]] double hit_rate() const {
    const std::int64_t total = hits() + misses();
    return total > 0 ? static_cast<double>(hits()) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// Per-field difference (for sweep-local accounting against a snapshot).
  [[nodiscard]] CompileCacheStats Since(const CompileCacheStats& base) const;
};

class CompileCache {
 public:
  /// Key of one synthesized kernel design. The 64-bit FNV-1a fingerprint
  /// is guarded against collisions by the content key's length and the
  /// kernel name.
  struct DesignKey {
    std::uint64_t hash = 0;
    std::uint64_t key_size = 0;
    std::string kernel;

    [[nodiscard]] bool operator<(const DesignKey& o) const {
      if (hash != o.hash) return hash < o.hash;
      if (key_size != o.key_size) return key_size < o.key_size;
      return kernel < o.kernel;
    }
  };

  /// Fingerprint of (content key, autorun flag, representative bindings,
  /// AOC flags, cost model), seeded from the interned key's precomputed
  /// FNV hash (InternKey) so the key bytes are not rehashed. The content
  /// key determines the kernel's IR, and with it everything synthesis
  /// reads; autorun is the one post-lowering mutation the planners make.
  [[nodiscard]] static DesignKey DesignKeyFromContent(
      const common::InternedString& content_key, bool autorun,
      const std::string& name, const ir::Bindings& bindings,
      const fpga::AocOptions& aoc, const fpga::CostModel& model);

  /// Interns a content/stats key in the cache's string pool: one stable
  /// view + FNV hash per distinct key, shared by every candidate of a
  /// sweep. Thread-safe.
  [[nodiscard]] common::InternedString InternKey(std::string_view key);

  /// Content keys, one derivation per builder spec type: a kind tag, the
  /// kernel name, every spec and schedule field, and each channel
  /// endpoint's name, depth and element type (the builders bake channel
  /// reads/writes into the IR, and synthesis sizes a channel's FIFO from
  /// its depth). Equal keys imply identical IR.
  [[nodiscard]] static std::string ConvKernelKey(const ir::ConvSpec& spec,
                                                 const ir::ConvSchedule& sched,
                                                 const std::string& name,
                                                 const ir::ChannelIO& io = {});
  [[nodiscard]] static std::string DenseKernelKey(
      const ir::DenseSpec& spec, const ir::DenseSchedule& sched,
      const std::string& name, const ir::ChannelIO& io = {});
  [[nodiscard]] static std::string PoolKernelKey(const ir::PoolSpec& spec,
                                                 const ir::PoolSchedule& sched,
                                                 const std::string& name,
                                                 const ir::ChannelIO& io = {});
  [[nodiscard]] static std::string SoftmaxKernelKey(
      const ir::SoftmaxSpec& spec, bool optimized, const std::string& name,
      const ir::ChannelIO& io = {});
  [[nodiscard]] static std::string PadKernelKey(const ir::PadSpec& spec,
                                                const std::string& name,
                                                const ir::ChannelIO& io = {});
  [[nodiscard]] static std::string AddKernelKey(const ir::AddSpec& spec,
                                                std::int64_t unroll,
                                                const std::string& name);
  [[nodiscard]] static std::string CopyKernelKey(std::int64_t n,
                                                 const std::string& name,
                                                 const ir::ChannelIO& io = {});

  [[nodiscard]] std::optional<fpga::KernelDesign> LookupDesign(
      const DesignKey& key);
  /// Stores a copy with the (deployment-local) kernel pointer stripped;
  /// LookupDesign returns designs with kernel == nullptr and the caller
  /// re-points it at its own kernel.
  void InsertDesign(const DesignKey& key, const fpga::KernelDesign& design);

  [[nodiscard]] std::optional<ir::BuiltKernel> LookupKernel(
      const std::string& key);
  void InsertKernel(const std::string& key, const ir::BuiltKernel& built);

  /// ir::AnalyzeKernel memoization, keyed by (content key, autorun,
  /// serialized bindings) -- see StatsKeyFor. Analysis dominates a warm
  /// folded compile (it runs per invocation, not per kernel), so this is
  /// the cache's largest single win inside a DSE sweep.
  [[nodiscard]] static std::string StatsKeyFor(const std::string& content_key,
                                               bool autorun,
                                               const ir::Bindings& bindings);
  [[nodiscard]] std::optional<ir::KernelStats> LookupStats(
      const std::string& key);
  void InsertStats(const std::string& key, const ir::KernelStats& stats);

  [[nodiscard]] CompileCacheStats stats() const;

  /// Process-wide instance used by the DSE, the fallback ladder, and the
  /// benches. Deployment::Compile only caches when DeployOptions names a
  /// cache, so library users opt in explicitly.
  [[nodiscard]] static const std::shared_ptr<CompileCache>& SharedPtr();
  [[nodiscard]] static CompileCache& Shared() { return *SharedPtr(); }

 private:
  mutable std::mutex mu_;
  std::map<DesignKey, fpga::KernelDesign> designs_;
  // String-keyed tables are keyed by the *interned* key's stable data
  // pointer: interning hashes each distinct key once (common::FnvHash),
  // and the interner's canonical copy makes string equality pointer
  // equality, so lookups cost one FNV pass + an O(1) pointer probe
  // instead of O(log n) string compares.
  common::StringInterner keys_;
  std::unordered_map<const char*, ir::BuiltKernel> kernels_;
  std::unordered_map<const char*, ir::KernelStats> kernel_stats_;
  CompileCacheStats stats_;
};

}  // namespace clflow::core

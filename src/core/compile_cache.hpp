// Content-hashed compile/synthesis cache (DSE v2, paper SS4.11).
//
// A design-space sweep compiles many deployments that share most of their
// kernels: every MobileNet candidate carries the same conv3x3 / conv_dw /
// pad / dense kernels and only varies the pointwise tiling. The cache
// memoizes the two expensive per-kernel stages so shared work is done
// once per *content*, not once per design point:
//
//   * lowering  -- BuildConv2dKernel results keyed by the full
//     (ConvSpec, ConvSchedule, name) value: the scheduled IR, its buffers
//     and its symbolic parameters are immutable after construction, so a
//     cached BuiltKernel is shared structurally across deployments; plus
//     ir::AnalyzeKernel results keyed by (kernel content key, bindings),
//     which is where a folded compile actually spends its time;
//   * synthesis -- fpga::SynthesizeKernelDesign results keyed by a stable
//     fingerprint of the kernel's schedule content, the
//     representative shape bindings, the AOC flags, and every CostModel
//     constant. The per-kernel design is board-independent (fit/route/
//     fmax are whole-design properties computed by AssembleBitstream), so
//     the board is deliberately NOT part of the key; changing the cost
//     model or AOC flags changes the fingerprint, which is the
//     invalidation path -- stale entries can never be returned, only
//     orphaned. Clear() drops them (e.g. between unrelated sweeps).
//
// Thread safety: all methods are safe to call from concurrent
// Deployment::Compile workers (core::ExploreFoldedTilings jobs > 1). A
// racing miss on the same key computes the design twice and keeps one
// copy; results are value-identical either way because synthesis is a
// pure function of the key.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include <map>

#include "common/arena.hpp"
#include "fpga/synth.hpp"
#include "ir/analysis.hpp"
#include "ir/op_kernels.hpp"

namespace clflow::obs {
class Registry;
}

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
  /// Key of one synthesized kernel design. The 64-bit FNV-1a content hash
  /// is guarded against collisions by the fingerprinted source length and
  /// the kernel name.
  struct DesignKey {
    std::uint64_t hash = 0;
    std::uint64_t source_size = 0;
    std::string kernel;

    [[nodiscard]] bool operator<(const DesignKey& o) const {
      if (hash != o.hash) return hash < o.hash;
      if (source_size != o.source_size) return source_size < o.source_size;
      return kernel < o.kernel;
    }
  };

  /// Fingerprint of (kernel content, representative bindings, AOC flags,
  /// cost model). Kernel content is the printed source tree of this
  /// kernel alone, ToSource(codegen::BuildProgram({&kernel})) --
  /// deterministic, and it captures everything synthesis reads (loop
  /// structure, unroll pragmas, channel depths, memory scopes, symbolic
  /// arguments). This is the fallback for kernels without a schedule
  /// content key (the pipelined planner); building and printing the
  /// source costs more than the analytical synthesis it memoizes, so the
  /// folded planner uses DesignKeyFromContent instead.
  [[nodiscard]] static DesignKey DesignKeyFor(const ir::Kernel& kernel,
                                              const ir::Bindings& bindings,
                                              const fpga::AocOptions& aoc,
                                              const fpga::CostModel& model);

  /// Fingerprint of (schedule content key, autorun flag, representative
  /// bindings, AOC flags, cost model) for kernels whose IR is a pure
  /// function of a builder spec (PlannedKernel::content_key). Equivalent
  /// to DesignKeyFor -- the spec determines the generated source -- but
  /// costs a string hash instead of a codegen run.
  [[nodiscard]] static DesignKey DesignKeyFromContent(
      const std::string& content_key, bool autorun, const std::string& name,
      const ir::Bindings& bindings, const fpga::AocOptions& aoc,
      const fpga::CostModel& model);

  /// Same fingerprint, but seeded from an interned content key's
  /// precomputed FNV hash (InternKey) -- skips rehashing the key bytes,
  /// which the folded planner otherwise pays once per kernel per
  /// candidate.
  [[nodiscard]] static DesignKey DesignKeyFromContent(
      const common::InternedString& content_key, bool autorun,
      const std::string& name, const ir::Bindings& bindings,
      const fpga::AocOptions& aoc, const fpga::CostModel& model);

  /// Interns a content/stats key in the cache's string pool: one stable
  /// view + FNV hash per distinct key, shared by every candidate of a
  /// sweep. Thread-safe.
  [[nodiscard]] common::InternedString InternKey(std::string_view key);

  /// Lowering-cache key for a scheduled convolution: every ConvSpec /
  /// ConvSchedule field plus the kernel name.
  [[nodiscard]] static std::string ConvKernelKey(const ir::ConvSpec& spec,
                                                 const ir::ConvSchedule& sched,
                                                 const std::string& name);

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

  /// Drops every entry; counters survive (they are cumulative).
  void Clear();

  [[nodiscard]] CompileCacheStats stats() const;

  /// Writes `<prefix>hits/misses/hit_rate/entries/bytes` (plus the
  /// design/lowering split) as gauges, e.g. the `dse.cache.*` series.
  void ExportMetrics(obs::Registry& registry,
                     const std::string& prefix = "dse.cache.",
                     const CompileCacheStats& base = {}) const;

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

#include "analysis/perf_lint.hpp"

#include <set>
#include <sstream>

namespace clflow::analysis {

namespace {

using ir::Expr;
using ir::ExprKind;
using ir::Stmt;
using ir::StmtKind;

int WarningsAdded(const DiagnosticEngine& engine, int before) {
  return engine.warning_count() - before;
}

}  // namespace

int LintKernel(const ir::Kernel& kernel, const ir::KernelStats* stats,
               DiagnosticEngine& engine) {
  const int before = engine.warning_count();
  std::set<std::string> emitted;
  auto report = [&](const CodeInfo& info, DiagLocation loc,
                    const std::string& msg, std::string fixit = "") {
    const std::string key = std::string(info.id) + '|' + loc.ToString();
    if (!emitted.insert(key).second) return;
    engine.Report(Diagnostic::Make(info, std::move(loc), msg,
                                   std::move(fixit)));
  };

  // CLF301: a symbolic innermost stride keeps AOC from proving that
  // consecutive unrolled accesses are adjacent in memory.
  for (const auto& b : kernel.buffer_args) {
    if (b->strides.empty()) continue;
    if (!ir::IsConstInt(ir::Simplify(b->strides.back()))) {
      report(kUnpinnedStride, {kernel.name, "", b->name},
             "buffer " + b->name +
                 " carries a symbolic innermost stride; AOC cannot coalesce "
                 "its accesses and replicates LSUs",
             "apply PinStrideVars (recipe.pin_strides) so the innermost "
             "stride is the constant 1 (SS5.3)");
    }
  }

  // CLF302: read-modify-write of a global/constant buffer inside a loop
  // is the II=5 accumulator pattern of the naive schedules.
  ir::VisitStmts(kernel.body, [&](const Stmt& s) {
    if (s->kind != StmtKind::kStore) return;
    if (s->buffer->scope != ir::MemScope::kGlobal &&
        s->buffer->scope != ir::MemScope::kConstant) {
      return;
    }
    bool reads_self = false;
    ir::VisitExprsIn(s->value, [&](const Expr& e) {
      if (e->kind == ExprKind::kLoad && e->buffer == s->buffer) {
        reads_self = true;
      }
    });
    if (!reads_self) return;
    std::ostringstream os;
    os << "kernel accumulates into global-memory buffer " << s->buffer->name
       << " (read-modify-write through an LSU); AOC cannot use the "
       << "single-cycle accumulator, II=" << ir::kGlobalReductionII;
    report(kGlobalAccumulator, {kernel.name, "", s->buffer->name}, os.str(),
           "set cached_writes (recipe.fuse_and_cache) so " + s->buffer->name +
               " accumulates in private registers (SS4.5)");
  });

  // CLF303: partial unroll factors that do not divide the extent.
  ir::VisitStmts(kernel.body, [&](const Stmt& s) {
    if (s->kind != StmtKind::kFor || s->ann.unroll <= 1) return;
    const auto extent = ir::EvalConst(ir::Simplify(s->extent), {});
    if (!extent || *extent % s->ann.unroll == 0) return;
    std::ostringstream os;
    os << "loop " << s->var->name << " (extent " << *extent
       << ") is unrolled by " << s->ann.unroll
       << ", which does not divide it; AOC adds an epilogue loop";
    report(kNonDivisibleUnroll, {kernel.name, s->var->name, ""}, os.str());
  });

  // CLF304: access sites whose address stream cannot sustain DDR bursts.
  if (stats != nullptr) {
    for (const auto& site : stats->accesses) {
      if (site.sequential) continue;
      std::ostringstream os;
      os << (site.is_store ? "stores to" : "loads from") << " " << site.buffer
         << " jump after " << site.run_elems
         << " element(s); each burst covers a fraction of the DDR burst "
         << "size, wasting external bandwidth";
      report(kNonBurstAccess, {kernel.name, "", site.buffer}, os.str());
    }
  }

  return WarningsAdded(engine, before);
}

int LintPlan(const Plan& plan, DiagnosticEngine& engine) {
  const int before = engine.warning_count();
  // CLF305: an argument-free kernel wired entirely through channels still
  // pays host dispatch on every image unless marked autorun.
  for (const auto& step : plan.steps) {
    if (step.autorun || step.num_args > 0) continue;
    if (step.reads.empty() && step.writes.empty()) continue;
    engine.Report(Diagnostic::Make(
        kMissedAutorun, {step.kernel, "", ""},
        "kernel " + step.kernel +
            " takes no arguments and communicates only through channels, "
            "but is dispatched by the host on every image"));
  }
  return WarningsAdded(engine, before);
}

}  // namespace clflow::analysis

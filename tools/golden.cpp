// clflow_golden: the golden-output manifest.
//
// Compiles a fixed matrix of 51 plans and maps each emitted artifact to
// the FNV-1a digest of its bytes:
//
//   * the LeNet ladder (5 rungs) on a10/s10sx/s10mx, each with and
//     without concurrent execution (pipelined);
//   * folded base LeNet, MobileNetV1 and ResNet-18 on each board;
//   * the shipped FoldedMobileNet(board) and FoldedResNet recipes on each
//     board, each with and without the pipelined classifier tail.
//
// Keys are "net/mode/recipe/board/artifact", where artifact is "cl"
// (Deployment::GeneratedSource), "host.cpp" (core::EmitHostProgram) or
// "fit_report.txt" (fpga::WriteFitReport). A plan whose compile throws
// records the digest of its error text under "error" instead.
//
// The "runtime/" keys pin the simulated runtime: pipelined LeNet on S10SX
// runs three batches (one functional, two timing-only) under each injected
// fault class, and the manifest keeps the digests of the event pool's
// Chrome trace ("trace.json"), the flight recorder's ToJson
// ("flightrec.json") and the Deployment::ExportRuntimeMetrics Prometheus
// text ("metrics.prom"). "runtime/campaign/" pins a seeded load campaign
// through a 2-board replica set whose second board hangs on every
// dispatch ("digest" is LoadgenReport::digest, "metrics.prom" its
// registry), and "runtime/chaos/digest" a fixed-seed chaos campaign.
//
// "dse/mobilenet/<board>/ranked" is DseResult::RankedDigest of the
// bench_dse_explorer sweep (bound, shared prewarmed cache) at jobs 1; when
// the jobs-4 sweep ranks differently the key records both digests.
// "observatory/lenet/s10sx/<shape>/" pins the JSON, HTML and Chrome-trace
// renderings of seeded Poisson and bursty campaigns through a 2-board
// replica set whose board 0 hangs on its first 16 dispatches, and
// "profile/lenet/s10sx/<mode>/" the prof::ToJson / ToHtml renderings and
// the CLF6xx EmitDiagnostics findings of one profiled batch per mode.
//
// The static checks are pinned too. Every plan records the digest of its
// compile gate's DiagnosticEngine::ToJson ("diagnostics.json"). "lint/"
// keys hold srclint::LintProgram's JSON digest and error count over the
// emitted text of the five plans CI lints with `lint --src`, and the same
// for every `lint --src --inject` mode (corruptions of pipelined LeNet on
// S10SX, and the four built-in defective kernels). "mutants/" keys digest
// two seeded corpora -- VerifyKernel over IR mutants of the S10SX plans'
// kernels (one index offset by +-1, one loop extent widened, one unroll
// annotation toggled, or one store deleted) and LintSource over source
// mutants of their emitted kernels (a statement deleted, swapped with a
// neighbour or wrapped in an if) -- each mutant's findings sorted, so the
// digest pins what is found, not the order it is reported in.
//
//   clflow_golden                 print the manifest (sorted JSON)
//   clflow_golden --check FILE    compare against FILE; list every key
//                                 that moved, appeared or vanished, and
//                                 exit 1 when any did
//
// A refactor that must not change behaviour keeps the committed manifest
// (tests/golden.json) byte-identical; a deliberate change regenerates it
// and names the artifacts that moved.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "analysis/ir_verifier.hpp"
#include "codegen/opencl_codegen.hpp"
#include "core/deployment.hpp"
#include "core/dse.hpp"
#include "core/host_codegen.hpp"
#include "fpga/report.hpp"
#include "ha/chaos.hpp"
#include "ha/replica_set.hpp"
#include "nets/nets.hpp"
#include "ocl/trace.hpp"
#include "prof/prof.hpp"
#include "prof/report.hpp"
#include "serve/loadgen.hpp"
#include "serve/observatory.hpp"
#include "srclint/inject.hpp"
#include "srclint/parser.hpp"
#include "srclint/srclint.hpp"

namespace {

using namespace clflow;

using Manifest = std::map<std::string, std::string>;

/// The distinct kernels of every S10SX plan, for the mutant corpora.
struct Corpus {
  std::vector<ir::Kernel> kernels;
  std::vector<std::string> sources;  ///< each kernel emitted alone
  std::set<std::string> seen;
};

std::string Hex(std::uint64_t h) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

std::string Digest(const std::string& bytes) {
  common::Fnv f;
  f.Bytes(bytes.data(), bytes.size());
  return Hex(f.h);
}

void Record(Manifest& out, const std::string& net, const graph::Graph& g,
            core::ExecutionMode mode, const core::OptimizationRecipe& recipe,
            const std::string& variant, const fpga::BoardSpec& board,
            Corpus& corpus) {
  core::DeployOptions dep;
  dep.mode = mode;
  dep.recipe = recipe;
  dep.board = board;
  const std::string key =
      net + "/" + (mode == core::ExecutionMode::kPipelined ? "pipelined"
                                                           : "folded") +
      "/" + recipe.name + variant + "/" + board.key + "/";
  try {
    const core::Deployment d = core::Deployment::Compile(g, dep);
    out[key + "cl"] = Digest(d.GeneratedSource());
    out[key + "host.cpp"] = Digest(core::EmitHostProgram(d));
    out[key + "fit_report.txt"] = Digest(fpga::WriteFitReport(d.bitstream()));
    out[key + "diagnostics.json"] = Digest(d.diagnostics().ToJson());
    if (board.key == "s10sx") {
      for (const auto& pk : d.kernels()) {
        std::string source = codegen::EmitKernel(pk.built.kernel);
        if (!corpus.seen.insert(source).second) continue;
        corpus.kernels.push_back(pk.built.kernel);
        corpus.sources.push_back(std::move(source));
      }
    }
  } catch (const Error& e) {
    out[key + "error"] = Digest(e.what());
  }
}

core::DeployOptions LenetServing() {
  core::DeployOptions dep;
  dep.mode = core::ExecutionMode::kPipelined;
  dep.recipe = core::PipelineTvmAutorun();
  dep.recipe.concurrent_execution = true;
  dep.board = fpga::Stratix10SX();
  dep.runtime.watchdog_timeout = SimTime::Ms(2.0);
  return dep;
}

std::shared_ptr<resilience::FaultInjector> Injector(
    const std::vector<resilience::FaultSpec>& specs) {
  resilience::FaultPlan plan;
  plan.seed = 7;
  plan.specs = specs;
  return std::make_shared<resilience::FaultInjector>(plan);
}

void RecordDse(Manifest& out, const graph::Graph& mobilenet) {
  for (const fpga::BoardSpec& board : fpga::EvaluationBoards()) {
    core::PrewarmFoldedCache(mobilenet, board);
    std::string ranked[2];
    for (int i = 0; i < 2; ++i) {
      core::DseOptions opts;
      opts.jobs = i == 0 ? 1 : 4;
      opts.verify_candidates = false;
      ranked[i] = Hex(
          core::ExploreFoldedTilings(mobilenet, board, opts).RankedDigest());
    }
    out["dse/mobilenet/" + board.key + "/ranked"] =
        ranked[0] == ranked[1] ? ranked[0]
                               : "jobs1 " + ranked[0] + " jobs4 " + ranked[1];
  }
}

void RecordObservatory(Manifest& out, const graph::Graph& lenet,
                       const Tensor& image) {
  std::vector<resilience::FaultSpec> sick;
  for (int i = 0; i < 16; ++i) {
    resilience::FaultSpec s;
    s.kind = resilience::FaultKind::kKernelHang;
    s.target = "k_conv1";
    s.index = i;
    sick.push_back(s);
  }
  for (const serve::TraceShape shape :
       {serve::TraceShape::kPoisson, serve::TraceShape::kBursty}) {
    ha::ReplicaSet set(lenet, LenetServing());
    set.set_fault_injector(0, Injector(sick));
    serve::LoadgenOptions lo;
    lo.seed = 2021;
    lo.requests = 120;
    lo.shape = shape;
    const serve::Observatory obs = serve::BuildObservatory(
        serve::RunLoadCampaign(set, image, lo), "lenet @ s10sx");
    const std::string key = std::string("observatory/lenet/s10sx/") +
                            serve::TraceShapeName(shape) + "/";
    out[key + "json"] = Digest(obs.ToJson());
    out[key + "html"] = Digest(obs.ToHtml());
    out[key + "trace"] = Digest(obs.ToChromeTrace());
  }
}

void RecordProfile(Manifest& out, const graph::Graph& lenet,
                   const Tensor& image) {
  core::DeployOptions folded;
  folded.mode = core::ExecutionMode::kFolded;
  folded.recipe = core::FoldedBase();
  folded.board = fpga::Stratix10SX();
  const std::pair<const char*, core::DeployOptions> modes[] = {
      {"pipelined", LenetServing()}, {"folded", folded}};
  for (const auto& [name, dep] : modes) {
    core::Deployment d = core::Deployment::Compile(lenet, dep);
    const prof::Profile p = prof::BuildProfile(d, image);
    analysis::DiagnosticEngine diags;
    prof::EmitDiagnostics(p, diags);
    const std::string key = std::string("profile/lenet/s10sx/") + name + "/";
    out[key + "json"] = Digest(prof::ToJson(p));
    out[key + "html"] = Digest(prof::ToHtml(p));
    out[key + "diagnostics"] = Digest(diags.ToJson());
  }
}

void RecordRuntime(Manifest& out, const graph::Graph& lenet) {
  Rng rng(11);
  const Tensor image = Tensor::Random(
      lenet.node(lenet.input_id()).output_shape, rng, 0.0f, 1.0f);
  const std::pair<const char*, const char*> faults[] = {
      {"none", ""},
      {"xfer-fail", "xfer-fail:write:1:2"},
      {"corrupt", "corrupt:k_conv2:1:1"},
      {"reset", "reset:k_pool1:1"},
      {"fmax-droop", "fmax-droop:0.9"},
      {"hang", "hang:k_conv2:1"}};
  for (const auto& [name, spec] : faults) {
    core::Deployment d = core::Deployment::Compile(lenet, LenetServing());
    if (*spec != '\0') {
      d.runtime().set_fault_injector(
          Injector({resilience::ParseFaultSpec(spec)}));
    }
    for (int i = 0; i < 3; ++i) {
      try {
        (void)d.Run(image, /*functional=*/i == 0);
      } catch (const RuntimeFaultError&) {
        d.runtime().AbortBatch();
      }
    }
    const std::string key =
        std::string("runtime/lenet/pipelined/s10sx/") + name + "/";
    out[key + "trace.json"] =
        Digest(ocl::ExportChromeTrace(d.runtime().event_pool()));
    out[key + "flightrec.json"] = Digest(d.flight_recorder().ToJson());
    obs::Registry reg;
    d.ExportRuntimeMetrics(reg);
    out[key + "metrics.prom"] = Digest(reg.ToPrometheus());
  }

  ha::HaOptions ha;
  ha.replicas = 2;
  ha.cooldown_batches = 16;
  ha::ReplicaSet set(lenet, LenetServing(), ha);
  std::vector<resilience::FaultSpec> dead;
  for (int i = 0; i < 64; ++i) {
    resilience::FaultSpec s;
    s.kind = resilience::FaultKind::kKernelHang;
    s.target = "k_conv1";
    s.index = i;
    dead.push_back(s);
  }
  set.set_fault_injector(1, Injector(dead));
  serve::LoadgenOptions lo;
  lo.seed = 2021;
  lo.requests = 400;
  const serve::LoadgenReport report =
      serve::RunLoadCampaign(set, image, lo);
  out["runtime/campaign/lenet/s10sx/dead-board/digest"] = Hex(report.digest);
  out["runtime/campaign/lenet/s10sx/dead-board/metrics.prom"] =
      Digest(report.metrics->ToPrometheus());

  ha::ChaosOptions chaos;
  chaos.scenarios = 16;
  chaos.seed = 2021;
  out["runtime/chaos/lenet/s10sx/digest"] =
      Hex(ha::RunChaosCampaign(lenet, LenetServing(), chaos).Digest());

  RecordObservatory(out, lenet, image);
  RecordProfile(out, lenet, image);
}

/// Lint records: the engine's JSON digest and its error count.
void RecordLint(Manifest& out, const std::string& key,
                const analysis::DiagnosticEngine& diags) {
  out[key + "srclint.json"] = Digest(diags.ToJson());
  out[key + "errors"] = std::to_string(diags.error_count());
}

/// srclint over the emitted text of the plans CI lints with `lint --src`,
/// and every `lint --src --inject` mode.
void RecordSourceLint(Manifest& out, const graph::Graph& lenet,
                      const graph::Graph& mobilenet,
                      const graph::Graph& resnet) {
  struct Plan {
    const char* key;
    const graph::Graph* net;
    core::ExecutionMode mode;
    core::OptimizationRecipe recipe;
    fpga::BoardSpec board;
  };
  core::OptimizationRecipe autorun = core::PipelineTvmAutorun();
  autorun.concurrent_execution = true;
  const Plan plans[] = {
      {"lenet/pipelined/s10sx", &lenet, core::ExecutionMode::kPipelined,
       autorun, fpga::Stratix10SX()},
      {"lenet/folded/s10sx", &lenet, core::ExecutionMode::kFolded,
       core::FoldedBase(), fpga::Stratix10SX()},
      {"mobilenet/folded/s10sx", &mobilenet, core::ExecutionMode::kFolded,
       core::FoldedMobileNet("s10sx"), fpga::Stratix10SX()},
      {"mobilenet/folded/a10", &mobilenet, core::ExecutionMode::kFolded,
       core::FoldedMobileNet("a10"), fpga::Arria10()},
      {"resnet18/folded/s10sx", &resnet, core::ExecutionMode::kFolded,
       core::FoldedResNet(), fpga::Stratix10SX()}};
  for (const Plan& plan : plans) {
    core::DeployOptions dep;
    dep.mode = plan.mode;
    dep.recipe = plan.recipe;
    dep.board = plan.board;
    const core::Deployment d = core::Deployment::Compile(*plan.net, dep);
    std::vector<const ir::Kernel*> kernels;
    for (const auto& pk : d.kernels()) kernels.push_back(&pk.built.kernel);
    analysis::DiagnosticEngine diags;
    srclint::LintProgram(d.GeneratedSource(), kernels, diags);
    RecordLint(out, std::string("lint/") + plan.key + "/", diags);
    if (plan.mode != core::ExecutionMode::kPipelined) continue;
    for (const char* mode : {"parse", "sig", "chan-endpoint", "unroll",
                             "chan-type", "restrict"}) {
      analysis::DiagnosticEngine injected;
      const auto source = srclint::InjectDefect(mode, d.GeneratedSource());
      if (source) srclint::LintProgram(*source, kernels, injected);
      RecordLint(out, std::string("lint/inject/") + mode + "/", injected);
    }
  }
  for (const char* mode : {"loop-dep", "oob", "dead-store", "uninit"}) {
    analysis::DiagnosticEngine diags;
    (void)srclint::LintSource(srclint::SyntheticDefectSnippet(mode), diags);
    RecordLint(out, std::string("lint/inject/") + mode + "/", diags);
  }
}

/// Mixes one mutant's findings, sorted, into `digest`.
std::size_t MixFindings(common::Fnv& digest,
                        const analysis::DiagnosticEngine& diags) {
  std::vector<std::string> lines;
  for (const analysis::Diagnostic& d : diags.diagnostics()) {
    lines.push_back(d.code + '|' + d.location.ToString() + '|' + d.message);
  }
  std::sort(lines.begin(), lines.end());
  digest.U64(lines.size());
  for (const std::string& line : lines) digest.Str(line);
  return lines.size();
}

/// Rebuilds `s` with the `site`-th mutation site (counted down in
/// pre-order) changed: kind 0 offsets an index of a store or load by
/// `delta`, kind 1 widens a loop's extent by one, kind 2 toggles a loop's
/// full-unroll annotation, kind 3 deletes a store.
struct IrMutator {
  int kind = 0;
  std::int64_t delta = 1;
  std::int64_t site = 0;

  bool Hit() { return site-- == 0; }

  std::vector<ir::Expr> Indices(const std::vector<ir::Expr>& indices) {
    std::vector<ir::Expr> out;
    for (const auto& idx : indices) {
      ir::Expr e = Expr(idx);
      if (kind == 0 && Hit()) e = ir::Add(e, ir::IntImm(delta));
      out.push_back(e);
    }
    return out;
  }

  ir::Expr Expr(const ir::Expr& e) {
    if (!e) return e;
    switch (e->kind) {
      case ir::ExprKind::kBinary:
        return ir::Binary(e->op, Expr(e->a), Expr(e->b));
      case ir::ExprKind::kSelect:
        return ir::Select(Expr(e->a), Expr(e->b), Expr(e->c));
      case ir::ExprKind::kLoad:
        return ir::Load(e->buffer, Indices(e->indices));
      case ir::ExprKind::kCall: {
        std::vector<ir::Expr> args;
        for (const auto& a : e->args) args.push_back(Expr(a));
        auto call = std::make_shared<ir::ExprNode>(*e);
        call->args = std::move(args);
        return call;
      }
      default:
        return e;
    }
  }

  ir::Stmt Stmt(const ir::Stmt& s) {
    if (!s) return s;
    switch (s->kind) {
      case ir::StmtKind::kFor: {
        ir::Expr extent = s->extent;
        ir::ForAnnotation ann = s->ann;
        if (kind == 1 && Hit()) extent = ir::Add(extent, ir::IntImm(1));
        if (kind == 2 && Hit()) {
          ann.unroll = ann.IsUnrolled() ? 0 : -1;
          ann.vectorized = false;
        }
        ir::Expr min = Expr(s->min);
        extent = Expr(extent);
        return ir::For(s->var, min, extent, Stmt(s->body), ann);
      }
      case ir::StmtKind::kStore: {
        if (kind == 3 && Hit()) return ir::Block({});
        std::vector<ir::Expr> indices = Indices(s->indices);
        return ir::Store(s->buffer, std::move(indices), Expr(s->value));
      }
      case ir::StmtKind::kBlock: {
        std::vector<ir::Stmt> stmts;
        for (const auto& child : s->stmts) stmts.push_back(Stmt(child));
        return ir::Block(std::move(stmts));
      }
      case ir::StmtKind::kIf: {
        ir::Expr cond = Expr(s->cond);
        ir::Stmt then_body = Stmt(s->then_body);
        return ir::If(cond, then_body, Stmt(s->else_body));
      }
      case ir::StmtKind::kWriteChannel:
        return ir::WriteChannel(s->buffer, Expr(s->value));
    }
    return s;
  }
};

/// How many sites of `kind` a body has (a dry run of the mutator).
std::int64_t CountSites(const ir::Stmt& body, int kind) {
  IrMutator count{kind, 0, -1};
  (void)count.Stmt(body);
  return -1 - count.site;
}

void RecordIrMutants(Manifest& out, const std::vector<ir::Kernel>& kernels) {
  constexpr int kPerKernel = 24;
  Rng rng(34);
  common::Fnv digest;
  std::size_t findings = 0, mutants = 0;
  for (const ir::Kernel& k : kernels) {
    for (int n = 0; n < kPerKernel; ++n) {
      IrMutator mutator;
      mutator.kind = static_cast<int>(rng.Below(4));
      mutator.delta = rng.Below(2) == 0 ? 1 : -1;
      const std::int64_t sites = CountSites(k.body, mutator.kind);
      if (sites == 0) continue;
      mutator.site = static_cast<std::int64_t>(
          rng.Below(static_cast<std::uint64_t>(sites)));
      ir::Kernel mutant = k;
      mutant.body = mutator.Stmt(k.body);
      analysis::DiagnosticEngine diags;
      (void)analysis::VerifyKernel(mutant, diags);
      findings += MixFindings(digest, diags);
      ++mutants;
    }
  }
  out["mutants/ir/digest"] = Hex(digest.h);
  out["mutants/ir/findings"] = std::to_string(findings);
  out["mutants/ir/mutants"] = std::to_string(mutants);
}

/// Every statement list of a kernel body, pre-order.
void Bodies(std::vector<srclint::SrcStmtPtr>& body,
            std::vector<std::vector<srclint::SrcStmtPtr>*>& out) {
  out.push_back(&body);
  for (auto& s : body) {
    Bodies(s->body, out);
    Bodies(s->then_body, out);
    Bodies(s->else_body, out);
  }
}

void RecordSourceMutants(Manifest& out,
                         const std::vector<std::string>& sources) {
  constexpr int kPerKernel = 12;
  Rng rng(23);
  common::Fnv digest;
  std::size_t findings = 0, mutants = 0;
  for (const std::string& source : sources) {
    for (int n = 0; n < kPerKernel; ++n) {
      srclint::SrcProgram program = srclint::ParseProgram(source);
      std::vector<std::vector<srclint::SrcStmtPtr>*> bodies;
      Bodies(program.kernels[0].body, bodies);
      std::vector<std::pair<std::vector<srclint::SrcStmtPtr>*, std::size_t>>
          sites;
      for (auto* body : bodies) {
        for (std::size_t i = 0; i < body->size(); ++i) {
          sites.emplace_back(body, i);
        }
      }
      if (sites.empty()) continue;
      const auto [body, i] = sites[rng.Below(sites.size())];
      switch (rng.Below(3)) {
        case 0:  // delete
          body->erase(body->begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:  // swap with a neighbour
          if (body->size() > 1) {
            std::swap((*body)[i], (*body)[i + 1 < body->size() ? i + 1
                                                               : i - 1]);
          }
          break;
        default: {  // wrap in an if, as its then or its else branch
          auto wrap = std::make_unique<srclint::SrcStmt>();
          wrap->kind = srclint::SrcStmtKind::kIf;
          wrap->cond = srclint::Bin("<", srclint::Int(0), srclint::Int(1));
          (rng.Below(2) == 0 ? wrap->then_body : wrap->else_body)
              .push_back(std::move((*body)[i]));
          (*body)[i] = std::move(wrap);
          break;
        }
      }
      analysis::DiagnosticEngine diags;
      (void)srclint::LintSource(srclint::ToSource(program), diags);
      findings += MixFindings(digest, diags);
      ++mutants;
    }
  }
  out["mutants/src/digest"] = Hex(digest.h);
  out["mutants/src/findings"] = std::to_string(findings);
  out["mutants/src/mutants"] = std::to_string(mutants);
}

Manifest Build() {
  Rng rng(42);
  const graph::Graph lenet = nets::BuildLeNet5(rng);
  const graph::Graph mobilenet = nets::BuildMobileNetV1(rng);
  const graph::Graph resnet = nets::BuildResNet(18, rng);
  Manifest m;
  Corpus corpus;
  RecordRuntime(m, lenet);
  RecordSourceLint(m, lenet, mobilenet, resnet);
  RecordDse(m, mobilenet);
  for (const fpga::BoardSpec& board : fpga::EvaluationBoards()) {
    for (core::OptimizationRecipe recipe : core::PipelineLadder()) {
      Record(m, "lenet", lenet, core::ExecutionMode::kPipelined, recipe, "",
             board, corpus);
      recipe.concurrent_execution = true;
      Record(m, "lenet", lenet, core::ExecutionMode::kPipelined, recipe,
             "+ce", board, corpus);
    }
    const std::pair<const char*, const graph::Graph*> nets[] = {
        {"lenet", &lenet}, {"mobilenet", &mobilenet}, {"resnet18", &resnet}};
    for (const auto& [name, g] : nets) {
      Record(m, name, *g, core::ExecutionMode::kFolded, core::FoldedBase(),
             "", board, corpus);
    }
    const std::pair<const char*, const graph::Graph*> shipped_nets[] = {
        {"mobilenet", &mobilenet}, {"resnet18", &resnet}};
    for (const auto& [name, g] : shipped_nets) {
      core::OptimizationRecipe recipe = g == &mobilenet
                                            ? core::FoldedMobileNet(board.key)
                                            : core::FoldedResNet();
      Record(m, name, *g, core::ExecutionMode::kFolded, recipe, "", board,
             corpus);
      recipe.pipeline_tail = true;
      Record(m, name, *g, core::ExecutionMode::kFolded, recipe, "+tail",
             board, corpus);
    }
  }
  RecordIrMutants(m, corpus.kernels);
  RecordSourceMutants(m, corpus.sources);
  return m;
}

std::string ToJson(const Manifest& m) {
  std::ostringstream os;
  os << "{\n";
  std::size_t i = 0;
  for (const auto& [key, digest] : m) {
    os << "  \"" << key << "\": \"" << digest << '"'
       << (++i < m.size() ? ",\n" : "\n");
  }
  os << "}\n";
  return os.str();
}

/// Reads back the one-entry-per-line form ToJson writes.
Manifest FromJson(std::istream& in) {
  Manifest m;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t quote[4];
    std::size_t from = 0;
    bool entry = true;
    for (std::size_t& q : quote) {
      q = line.find('"', from);
      if (q == std::string::npos) {
        entry = false;
        break;
      }
      from = q + 1;
    }
    if (!entry) continue;
    m[line.substr(quote[0] + 1, quote[1] - quote[0] - 1)] =
        line.substr(quote[2] + 1, quote[3] - quote[2] - 1);
  }
  return m;
}

int Check(const Manifest& now, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "clflow_golden: cannot read %s\n", path.c_str());
    return 2;
  }
  const Manifest want = FromJson(in);
  int moved = 0;
  for (const auto& [key, digest] : want) {
    const auto it = now.find(key);
    if (it == now.end()) {
      std::printf("vanished  %s\n", key.c_str());
      ++moved;
    } else if (it->second != digest) {
      std::printf("moved     %s  %s -> %s\n", key.c_str(), digest.c_str(),
                  it->second.c_str());
      ++moved;
    }
  }
  for (const auto& [key, digest] : now) {
    if (want.find(key) == want.end()) {
      std::printf("appeared  %s  %s\n", key.c_str(), digest.c_str());
      ++moved;
    }
  }
  std::printf("%zu artifacts, %d changed against %s\n", now.size(), moved,
              path.c_str());
  return moved == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fputs(ToJson(Build()).c_str(), stdout);
    return 0;
  }
  if (args.size() == 2 && args[0] == "--check") return Check(Build(), args[1]);
  std::fprintf(stderr, "usage: clflow_golden [--check FILE]\n");
  return 2;
}

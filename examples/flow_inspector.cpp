// Flow inspector: compiles a network for a board, writes every artifact
// the real flow would produce (the OpenCL kernels, the SS5.2 host program,
// the fit report and the fused graph), then runs one subcommand over the
// compiled design: compile, lint, profile, run, serve or chaos.
// `example_flow_inspector help` prints the usage text, generated from the
// flag table below. Every run arms the flight recorder: a
// RuntimeFaultError or VerifyError escaping Compile or Run dumps the
// recent event ring to <base>_flightrec.json.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/dataflow_checker.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/dse.hpp"
#include "core/fallback.hpp"
#include "core/host_codegen.hpp"
#include "fpga/report.hpp"
#include "ha/chaos.hpp"
#include "ha/replica_set.hpp"
#include "nets/nets.hpp"
#include "ocl/trace.hpp"
#include "perfmodel/reference.hpp"
#include "prof/report.hpp"
#include "resilience/fault.hpp"
#include "serve/observatory.hpp"
#include "srclint/inject.hpp"
#include "srclint/srclint.hpp"

namespace {

using namespace clflow;

// --- The command line ------------------------------------------------------

enum class Kind {
  kSwitch,  ///< no value
  kText,    ///< one value
  kList,    ///< one value per occurrence, repeatable
  kNumber,  ///< a whole number in [lo, hi]
};

struct Flag {
  std::string_view name;
  Kind kind;
  std::string_view help;
  std::string_view metavar = {};  ///< the value's name in the usage text
  std::string_view needs = {};    ///< another flag this one requires
  std::uint64_t lo = 1, hi = UINT64_MAX;  ///< kNumber's range
};

struct Command {
  std::string_view name;
  std::string_view help;
  std::vector<Flag> flags;
};

using K = Kind;
const std::vector<Command> kCommands = {
    {"compile", "write the artifacts only",
     {{"--dse", K::kSwitch, "explore folded tilings, compile the best"},
      {"--jobs", K::kNumber, "DSE worker threads", "N", "--dse", 1, 256},
      {"--dse-dominance", K::kSwitch, "prune dominated tilings", {}, "--dse"},
      {"--fallback", K::kSwitch, "compile through the fallback ladder"},
      {"--over-tile", K::kSwitch, "1x1 tiling 8/7/16 (fails s10sx routing)"},
      {"--report", K::kSwitch, "print telemetry, write <base>_metrics.json"},
      {"--trace-out", K::kText, "write the Chrome trace", "FILE"}}},
    {"lint", "print the gate's findings; exit 1 on any error",
     {{"--src", K::kSwitch, "also srclint the OpenCL: <base>_srclint.json"},
      {"--inject", K::kText,
       "corrupt the emission (parse sig chan-endpoint unroll chan-type "
       "restrict) or lint a bad kernel (loop-dep oob dead-store uninit)",
       "MODE", "--src"},
      {"--break-channel", K::kSwitch, "read a channel nothing writes"},
      {"--promote", K::kList, "raise CODE to error severity", "CODE"},
      {"--demote", K::kList, "lower CODE to warning severity", "CODE"}}},
    {"profile", "attribute one image: <base>_profile.{txt,json,html}", {}},
    {"run", "one image vs the oracle; exit 2 if it diverges or faults",
     {{"--inject-fault", K::kList, "arm a fault (board 0 with --replicas)",
       "SPEC"},
      {"--replicas", K::kNumber, "run on N boards", "N", {}, 1, 64},
      {"--monitor", K::kSwitch,
       "then the SLO monitor: <base>_monitor.json, <base>_metrics.prom"}}},
    {"serve", "Poisson and bursty campaigns: <base>_observatory* files",
     {{"--requests", K::kNumber, "requests per campaign (240)", "N", {}, 1,
       1000000},
      {"--seed", K::kNumber, "load-generator seed (2021)", "N", {}, 0},
      {"--replicas", K::kNumber, "serve on N boards", "N", {}, 1, 64},
      {"--inject-fault", K::kList, "arm a fault on board 0", "SPEC"}}},
    {"chaos", "seeded faults over 2-board replica sets; exit 3 on a miss",
     {{"--scenarios", K::kNumber, "scenarios (200)", "N", {}, 1, 100000},
      {"--seed", K::kNumber, "campaign seed (2021)", "N", {}, 0},
      {"--report", K::kSwitch, "write <base>_chaos.json"}}},
    {"help", "print this text", {}},
};

constexpr std::string_view kNets[] = {"lenet", "mobilenet", "resnet18",
                                      "resnet34"};
constexpr std::string_view kBoards[] = {"a10", "s10sx", "s10mx"};
constexpr std::string_view kModes[] = {"pipelined", "folded"};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: example_flow_inspector <command> [net [board [mode "
               "[outdir]]]] [flags]\n  net lenet|mobilenet|resnet18|resnet34 "
               "(lenet), board a10|s10sx|s10mx (s10sx),\n  mode "
               "pipelined|folded (pipelined for lenet), outdir (.) gets the "
               "<base> = <net>_<board>\n  artifacts .cl, _host.cpp, "
               "_fit_report.txt and _graph.txt\n");
  for (const Command& c : kCommands) {
    std::fprintf(out, "\n%s: %s\n", c.name.data(), c.help.data());
    for (const Flag& f : c.flags) {
      std::string line = std::string(f.name) + " " + std::string(f.metavar);
      line.resize(std::max<std::size_t>(line.size(), 20), ' ');
      line += " " + std::string(f.help);
      if (!f.needs.empty()) line += " [needs " + std::string(f.needs) + "]";
      std::fprintf(out, "  %s\n", line.c_str());
    }
  }
}

/// Parses all of `text` as a whole number in [lo, hi].
std::optional<std::uint64_t> ParseWhole(const std::string& text,
                                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

/// A parsed command line: the subcommand, its positionals, and every flag
/// occurrence in order, each value already checked against the table.
struct Args {
  const Command* cmd = nullptr;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string_view, std::string>> given;

  std::vector<std::string> List(std::string_view flag) const {
    std::vector<std::string> out;
    for (const auto& [name, value] : given) {
      if (name == flag) out.push_back(value);
    }
    return out;
  }
  bool Has(std::string_view flag) const { return !List(flag).empty(); }
  std::string Text(std::string_view flag) const {
    return Has(flag) ? List(flag).front() : std::string();
  }
  std::uint64_t Num(std::string_view flag, std::uint64_t fallback) const {
    return Has(flag) ? *ParseWhole(Text(flag), 0, UINT64_MAX) : fallback;
  }
  std::string Positional(std::size_t i, std::string fallback) const {
    return i < positional.size() ? positional[i] : std::move(fallback);
  }
};

/// Fills `args` from argv; returns what is wrong, or "" when nothing is.
std::string Parse(int argc, char** argv, Args& args) {
  const std::string name = argc > 1 ? argv[1] : "";
  const auto cmd = std::find_if(kCommands.begin(), kCommands.end(),
                                [&](const Command& c) { return c.name == name; });
  if (cmd == kCommands.end()) {
    return name.empty() ? "missing command" : "unknown command " + name;
  }
  args.cmd = &*cmd;
  const auto flag_named = [&](std::string_view flag) {
    return std::find_if(cmd->flags.begin(), cmd->flags.end(),
                        [&](const Flag& f) { return f.name == flag; });
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (args.positional.size() == 4) return "unexpected '" + arg + "'";
      args.positional.push_back(arg);
      continue;
    }
    const auto f = flag_named(arg);
    if (f == cmd->flags.end()) return name + " does not take " + arg;
    if (f->kind != Kind::kList && args.Has(f->name)) return arg + " twice";
    std::string value;
    if (f->kind != Kind::kSwitch) {
      if (i + 1 >= argc) return arg + " needs a value";
      value = argv[++i];
    }
    if (f->kind == Kind::kNumber && !ParseWhole(value, f->lo, f->hi)) {
      return arg + " takes a whole number from " + std::to_string(f->lo) +
             " to " + std::to_string(f->hi) + ", not '" + value + "'";
    }
    args.given.emplace_back(f->name, std::move(value));
  }
  for (const auto& given : args.given) {
    const std::string_view needs = flag_named(given.first)->needs;
    if (!needs.empty() && !args.Has(needs)) {
      return std::string(given.first) + " needs " + std::string(needs);
    }
  }
  if (args.Has("--monitor") && args.Has("--replicas")) {
    return "--monitor watches one board; drop --replicas";
  }
  const auto known = [](const auto& names, const std::string& s) {
    return std::find(std::begin(names), std::end(names), s) != std::end(names);
  };
  if (!known(kNets, args.Positional(0, "lenet")) ||
      !known(kBoards, args.Positional(1, "s10sx")) ||
      !known(kModes, args.Positional(2, "folded"))) {
    return "unknown net, board or mode";
  }
  return "";
}

// --- Shared helpers --------------------------------------------------------

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << contents;
  std::printf("wrote %-28s (%zu bytes)\n", path.c_str(), contents.size());
}

/// Per-phase compile timings from the tracer: top-level phases plus one
/// indented level, with the IR-pass spam left to the aggregated pass table.
void PrintCompilePhases(const core::Deployment& d) {
  std::printf("\n--- compile phases (wall clock) ---\n");
  Table table({"Phase", "Wall us", "Detail"});
  for (const auto& span : d.telemetry().tracer.spans()) {
    if (span.depth > 1) continue;
    std::string detail;
    for (const auto& [key, value] : span.args) {
      detail += (detail.empty() ? "" : " ") + key + "=" + value;
    }
    table.AddRow({std::string(static_cast<std::size_t>(span.depth) * 2, ' ') +
                      span.name,
                  Table::Num(static_cast<double>(span.dur_us), 0), detail});
  }
  table.Print();
  std::printf("\n--- compile & pass metrics ---\n");
  d.telemetry().registry.SummaryTable().Print();
}

/// True when `output` equals the graph oracle's output bit for bit.
bool MatchesOracle(const core::Deployment& d, const Tensor& image,
                   const Tensor& output) {
  const Tensor expected = graph::Execute(d.fused_graph(), image, 1);
  return std::ranges::equal(output.Reshaped(expected.shape()).data(),
                            expected.data());
}

/// What every subcommand shares: the net, the options it compiled with,
/// the compiled design, one input image and the --inject-fault plan.
struct Design {
  graph::Graph net;
  std::string board_key;
  std::string base;  ///< <outdir>/<net>_<board>
  core::DeployOptions opts;
  std::optional<core::DseResult> dse;
  std::optional<core::Deployment> d;
  Tensor image;
  std::optional<resilience::FaultPlan> plan;
};

/// A replica set of `replicas` boards with the fault plan armed on board 0.
std::unique_ptr<ha::ReplicaSet> MakeReplicaSet(const Design& x, int replicas,
                                               std::string flightrec_prefix) {
  ha::HaOptions haopts;
  haopts.replicas = replicas;
  haopts.flightrec_prefix = std::move(flightrec_prefix);
  auto rs = std::make_unique<ha::ReplicaSet>(x.net, x.opts, haopts);
  if (x.plan) {
    rs->set_fault_injector(
        0, std::make_shared<resilience::FaultInjector>(*x.plan));
  }
  return rs;
}

// --- Subcommands -----------------------------------------------------------

/// compile --dse: ranks folded tilings and points opts.recipe at the best.
int ExploreTilings(const Args& args, Design& x) {
  core::DseOptions dopts;
  dopts.jobs = static_cast<int>(args.Num("--jobs", 1));
  dopts.dominance_prune = args.Has("--dse-dominance");
  std::printf("exploring folded tilings for %s on %s (%d job(s))...\n",
              x.net.name().c_str(), x.opts.board.name.c_str(), dopts.jobs);
  const core::DseResult& dse = x.dse.emplace(core::ExploreFoldedTilings(
      x.net, x.opts.board, dopts, x.opts.cost_model));
  std::printf("\n--- DSE: %zu ranked of %zu considered ---\n",
              dse.ranked.size(), dse.considered);
  Table ranked({"Rank", "C1/W2/C2", "FPS", "fmax MHz", "DSPs", "ALUT %"});
  for (std::size_t i = 0; i < dse.ranked.size(); ++i) {
    const core::DseCandidate& c = dse.ranked[i];
    ranked.AddRow({std::to_string(i + 1),
                   std::to_string(c.conv1x1.c1) + "/" +
                       std::to_string(c.conv1x1.w2) + "/" +
                       std::to_string(c.conv1x1.c2),
                   Table::Num(c.predicted_fps, 1), Table::Num(c.fmax_mhz, 0),
                   std::to_string(c.dsps), Table::Pct(c.alut_frac)});
  }
  ranked.Print();
  // Rejection counters, top_k truncation and compile-cache statistics.
  obs::Registry reg;
  dse.ExportMetrics(reg);
  reg.SummaryTable().Print();
  if (dse.ranked.empty()) {
    std::fprintf(stderr, "DSE found no feasible configuration\n");
    return 1;
  }
  x.opts.recipe = dse.BestRecipe(x.board_key);
  return 0;
}

/// lint, before any artifact is written: the gate's findings, then
/// srclint's with --src. Returns 1 on any error-severity finding.
int Lint(const Args& args, Design& x) {
  core::Deployment& d = *x.d;
  auto& diags = d.diagnostics();
  if (args.Has("--break-channel")) {
    // A consumer of a channel nothing writes: it would deadlock inside
    // ocl::Runtime, and the dataflow checker rejects it statically (CLF201).
    analysis::Plan plan = d.AnalysisPlan();
    analysis::PlanStep bogus;
    bogus.kernel = "k_injected_consumer";
    bogus.reads.push_back("ch_nonexistent");
    plan.steps.push_back(std::move(bogus));
    analysis::CheckDataflow(plan, diags);
  }
  std::printf("\n--- static analysis (%d error(s), %d warning(s)) ---\n",
              diags.error_count(), diags.warning_count());
  if (!diags.diagnostics().empty()) diags.SummaryTable().Print();
  if (diags.HasErrors()) {
    std::fprintf(stderr, "lint: %d error(s)\n", diags.error_count());
    return 1;
  }
  if (!args.Has("--src")) return 0;

  // A fresh engine: the compile gate already ran srclint once; this is the
  // offline view of the same check (optionally over a corrupted emission
  // or a built-in defective kernel).
  analysis::DiagnosticEngine sdiags;
  for (const auto& [code, severity] : x.opts.analysis.severity_overrides) {
    sdiags.OverrideSeverity(code, severity);
  }
  const std::string inject = args.Text("--inject");
  if (const char* snippet =
          inject.empty() ? nullptr : srclint::SyntheticDefectSnippet(inject)) {
    srclint::LintSource(snippet, sdiags);
    std::printf("\nsrclint: built-in '%s' kernel, linted plan-free\n",
                inject.c_str());
  } else {
    std::optional<std::string> source = d.GeneratedSource();
    if (!inject.empty()) {
      source = srclint::InjectDefect(inject, std::move(*source));
      if (!source) {
        std::fprintf(stderr, "--inject %s: unknown mode or no anchor text "
                     "in this design's emission\n", inject.c_str());
        return 1;
      }
      std::printf("\nsrclint: emission corrupted with mode '%s'\n",
                  inject.c_str());
    }
    std::vector<const ir::Kernel*> planned;
    for (const auto& pk : d.kernels()) planned.push_back(&pk.built.kernel);
    srclint::LintProgram(*source, planned, sdiags);
  }
  std::printf("\n--- srclint (%d error(s), %d warning(s)) ---\n",
              sdiags.error_count(), sdiags.warning_count());
  if (!sdiags.diagnostics().empty()) sdiags.SummaryTable().Print();
  WriteFile(x.base + "_srclint.json", sdiags.ToJson());
  if (sdiags.HasErrors()) {
    std::fprintf(stderr, "srclint: %d error(s)\n", sdiags.error_count());
    return 1;
  }
  return 0;
}

/// compile --report / --trace-out: one timing image drives the runtime
/// metrics (queues, channel stalls, transfers, kernel drift) and the trace.
int CompileOutputs(const Args& args, Design& x) {
  const std::string trace_out = args.Text("--trace-out");
  if (!args.Has("--report") && trace_out.empty()) return 0;
  core::Deployment& d = *x.d;
  const auto run = d.Run(x.image, /*functional=*/false);
  const double fps = 1.0 / run.latency.seconds();
  if (args.Has("--report")) {
    PrintCompilePhases(d);
    obs::Registry reg;
    d.ExportRuntimeMetrics(reg);
    if (x.dse) x.dse->ExportMetrics(reg);
    const double tf_cpu_fps = perfmodel::TensorflowCpuFps(x.net);
    reg.gauge("perf.fps").Set(fps);
    reg.gauge("perf.ref.tf_cpu_fps").Set(tf_cpu_fps);
    reg.gauge("perf.ref.tvm4_fps").Set(perfmodel::TvmCpuFps(x.net, 4));
    reg.gauge("perf.ref.tf_gpu_fps").Set(perfmodel::TensorflowGpuFps(x.net));
    reg.gauge("perf.speedup_vs_tf_cpu").Set(fps / tf_cpu_fps);
    std::printf("\n--- runtime & perfmodel metrics (one image, simulated: "
                "latency %.1f us, %.1f fps) ---\n",
                run.latency.us(), fps);
    reg.SummaryTable().Print();
    WriteFile(x.base + "_metrics.json",
              "{\"compile\":" + d.telemetry().registry.ToJson() +
                  ",\"runtime\":" + reg.ToJson() +
                  ",\"diagnostics\":" + d.diagnostics().ToJson() + "}");
  }
  if (!trace_out.empty()) {
    WriteFile(trace_out, ocl::ExportChromeTrace(
                             d.runtime().event_pool(),
                             d.telemetry().tracer.spans(),
                             x.net.name() + "@" + x.board_key));
  }
  return 0;
}

int Profile(Design& x) {
  core::Deployment& d = *x.d;
  (void)d.Run(x.image, /*functional=*/false);  // a warm image first
  const prof::Profile p = prof::BuildProfile(d, x.image);
  prof::EmitDiagnostics(p, d.diagnostics());
  std::printf("\n%s", prof::ToText(p).c_str());
  if (!d.diagnostics().diagnostics().empty()) {
    std::printf("\n--- profiler diagnostics ---\n");
    d.diagnostics().SummaryTable().Print();
  }
  WriteFile(x.base + "_profile.txt", prof::ToText(p));
  WriteFile(x.base + "_profile.json", prof::ToJson(p));
  WriteFile(x.base + "_profile.html", prof::ToHtml(p));
  return 0;
}

int Run(const Args& args, Design& x) {
  if (args.Has("--replicas")) {
    // The image through a replica set, then the ha.* gauges (per-board
    // health, dispatches, faults, quarantines and probes).
    const int replicas = static_cast<int>(args.Num("--replicas", 1));
    std::printf("\n--- replica set: %d board(s)%s ---\n", replicas,
                x.plan ? ", fault plan armed on board 0" : "");
    const auto rs = MakeReplicaSet(x, replicas, x.base + "_ha_");
    const ha::HaRunResult r = rs->Run(x.image, /*functional=*/true);
    const bool exact = MatchesOracle(*x.d, x.image, r.output);
    std::printf(
        "batch served by %s after %d failover(s): latency %.1f us, "
        "recovery %.1f us, output %s the oracle\n",
        r.used_fallback ? "the folded fallback"
                        : ("board " + std::to_string(r.board)).c_str(),
        r.failovers(), r.latency.us(), r.recovery_time.us(),
        exact ? "bit-exactly matches" : "DIVERGES from");
    obs::Registry hareg;
    rs->ExportMetrics(hareg);
    std::printf("\n--- ha metrics ---\n");
    hareg.SummaryTable().Print();
    if (!rs->diagnostics().diagnostics().empty()) {
      rs->diagnostics().SummaryTable().Print();
    }
    return exact ? 0 : 2;
  }
  core::Deployment& d = *x.d;
  auto& rt = d.runtime();
  std::shared_ptr<resilience::FaultInjector> injector;
  if (x.plan) {
    injector = std::make_shared<resilience::FaultInjector>(*x.plan);
    rt.set_fault_injector(injector);
    std::printf("\n--- fault injection (seed %llu, %zu spec(s)) ---\n",
                static_cast<unsigned long long>(x.plan->seed),
                x.plan->specs.size());
  }
  int rc = 0;
  try {
    const auto r = d.Run(x.image, /*functional=*/true);
    const bool exact = MatchesOracle(d, x.image, r.output);
    std::printf("%s run: latency %.1f us, output %s the oracle\n",
                injector ? "recovered" : "functional", r.latency.us(),
                exact ? "bit-exactly matches" : "DIVERGES from");
    if (!exact) rc = 2;
  } catch (const RuntimeFaultError& e) {
    std::fprintf(stderr,
                 "unrecovered runtime fault: %s\n  code=%s kernel=%s "
                 "channel=%s attempts=%d\n  %s\nflight recorder dumped to "
                 "%s\n",
                 e.what(), e.code().c_str(), e.kernel().c_str(),
                 e.channel().c_str(), e.attempts(), e.queue_snapshot().c_str(),
                 x.opts.flightrec_path.c_str());
    rc = 2;
  }
  if (injector) {
    for (const auto& f : injector->injected()) {
      std::printf("injected: %s\n", f.ToString().c_str());
    }
    std::printf(
        "recovery: %lld transfer retries, %lld kernel reruns, %lld "
        "reprograms, %.1f us backoff\n",
        static_cast<long long>(rt.xfer_retries()),
        static_cast<long long>(rt.kernel_reruns()),
        static_cast<long long>(rt.reprograms()), rt.backoff_time().us());
    if (!d.diagnostics().diagnostics().empty()) {
      d.diagnostics().SummaryTable().Print();
    }
    rt.set_fault_injector(nullptr);  // the monitor's requests run fault-free
  }
  if (rc != 0 || !args.Has("--monitor")) return rc;

  // --monitor: a batch of timing requests through the SLO monitor. The
  // simulated clock is deterministic, so a healthy deployment shows zero
  // violations against a budget 5% above one timing request; faults and
  // fmax droop push requests over it and burn the error budget.
  telemetry::SloSpec spec;
  spec.latency_objective_us =
      d.Run(x.image, /*functional=*/false).latency.us() * 1.05;
  spec.window = 16;
  telemetry::SloMonitor slo(spec);
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const auto r = d.Run(x.image, /*functional=*/false);
    slo.ObserveRequest(ocl::SummarizeRequest(rt.event_pool(), r.trace_id),
                       &d.diagnostics());
  }
  std::printf("\n--- SLO monitor (%d requests) ---\n%s", kRequests,
              slo.ToText().c_str());
  obs::Registry reg;
  slo.ExportMetrics(reg);
  d.ExportRuntimeMetrics(reg);
  WriteFile(x.base + "_monitor.json", slo.ToJson());
  WriteFile(x.base + "_metrics.prom", reg.ToPrometheus());
  return 0;
}

/// serve: pinned-seed load campaigns, a Poisson trace (steady state) and a
/// bursty one (queueing under overload), through the same target. Each
/// campaign gets a fresh replica set so health state never leaks between
/// them -- that is what makes the digests reproducible.
int Serve(const Args& args, Design& x) {
  const int replicas = static_cast<int>(args.Num("--replicas", 0));
  serve::LoadgenOptions lo;
  lo.seed = args.Num("--seed", 2021);
  lo.requests = static_cast<int>(args.Num("--requests", 240));
  std::printf("\n--- observatory: %d request(s)/campaign, seed %llu, %d "
              "replica(s) ---\n",
              lo.requests, static_cast<unsigned long long>(lo.seed), replicas);
  auto campaign = [&](serve::TraceShape shape) {
    lo.shape = shape;
    return serve::BuildObservatory(
        replicas > 0
            ? serve::RunLoadCampaign(*MakeReplicaSet(x, replicas, ""),
                                     x.image, lo)
            : serve::RunLoadCampaign(*x.d, x.image, lo),
        x.net.name() + " @ " + x.board_key);
  };
  const serve::Observatory obs_p = campaign(serve::TraceShape::kPoisson);
  const serve::Observatory obs_b = campaign(serve::TraceShape::kBursty);
  Table summary({"Campaign", "p50 us", "p99 us", "Goodput", "Achieved rps",
                 "Peak occ", "Failovers", "Errors"});
  for (const serve::Observatory* o : {&obs_p, &obs_b}) {
    summary.AddRow({o->shape, Table::Num(o->p50_us, 1),
                    Table::Num(o->p99_us, 1), Table::Pct(o->goodput),
                    Table::Num(o->achieved_rps, 1),
                    Table::Pct(o->peak_occupancy),
                    std::to_string(o->failovers), std::to_string(o->errors)});
  }
  summary.Print();
  WriteFile(x.base + "_observatory.html", obs_p.ToHtml());
  WriteFile(x.base + "_observatory_bursty.html", obs_b.ToHtml());
  WriteFile(x.base + "_observatory.json", "{\"poisson\":" + obs_p.ToJson() +
                                              ",\"bursty\":" + obs_b.ToJson() +
                                              "}");
  WriteFile(x.base + "_observatory_trace.json", obs_p.ToChromeTrace());
  std::printf("observatory-digest: poisson %016llx bursty %016llx\n",
              static_cast<unsigned long long>(obs_p.digest),
              static_cast<unsigned long long>(obs_b.digest));
  return 0;
}

int Chaos(const Args& args, Design& x) {
  ha::ChaosOptions copts;
  copts.scenarios = static_cast<int>(args.Num("--scenarios", 200));
  copts.seed = args.Num("--seed", 2021);
  copts.jobs = HardwareThreads();
  copts.flightrec_prefix = x.base + "_chaos_";  // <base>_chaos_s<i>_board<j>_*
  std::printf("\n--- chaos campaign: %d scenario(s), seed %llu, %d "
              "replica(s), %d job(s) ---\n",
              copts.scenarios, static_cast<unsigned long long>(copts.seed),
              copts.replicas, copts.jobs);
  const ha::ChaosReport rep = ha::RunChaosCampaign(x.net, x.opts, copts);
  std::printf("%sdigest %016llx\n", rep.SummaryTable().c_str(),
              static_cast<unsigned long long>(rep.Digest()));
  if (args.Has("--report")) WriteFile(x.base + "_chaos.json", rep.ToJson());
  if (rep.ok()) return 0;
  std::fprintf(stderr, "chaos: %d scenario(s) violated an invariant\n",
               rep.failed);
  return 3;
}

/// The shared prologue's compile: plain, or through the fallback ladder.
/// Returns nonzero when no design comes out.
int Compile(const Args& args, Design& x) {
  if (!args.Has("--fallback")) {
    try {
      x.d = core::Deployment::Compile(x.net, x.opts);
      return 0;
    } catch (const VerifyError& e) {
      std::fprintf(stderr, "static analysis failed:\n%sflight recorder "
                   "dumped to %s\n", e.what(), x.opts.flightrec_path.c_str());
      return 1;
    }
  }
  core::FallbackResult fb = core::CompileWithFallback(x.net, x.opts);
  std::printf("\n--- fallback ladder (%zu attempt(s)) ---\n",
              fb.attempts.size());
  for (const auto& a : fb.attempts) std::printf("%s\n", a.ToString().c_str());
  if (!fb.ok()) {
    std::fprintf(stderr, "fallback: ladder exhausted without a "
                 "synthesizable design\n");
    return 1;
  }
  if (fb.recovered()) {
    std::printf("recovered after %zu attempts\n", fb.attempts.size());
  }
  x.d.emplace(std::move(*fb.deployment));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Design x;
  std::string error = Parse(argc, argv, args);
  try {
    for (const std::string& spec : args.List("--inject-fault")) {
      if (!x.plan) x.plan.emplace().seed = 17;
      x.plan->specs.push_back(resilience::ParseFaultSpec(spec));
    }
  } catch (const Error& e) {
    if (error.empty()) error = e.what();
  }
  if (!error.empty()) {
    std::fprintf(stderr, "example_flow_inspector: %s\n\n", error.c_str());
    PrintUsage(stderr);
    return 1;
  }
  const std::string_view cmd = args.cmd->name;
  if (cmd == "help") {
    PrintUsage(stdout);
    return 0;
  }

  const std::string net_name = args.Positional(0, "lenet");
  x.board_key = args.Positional(1, "s10sx");
  Rng rng(17);
  x.net = net_name == "lenet"       ? nets::BuildLeNet5(rng)
          : net_name == "mobilenet" ? nets::BuildMobileNetV1(rng)
          : nets::BuildResNet(net_name == "resnet18" ? 18 : 34, rng);
  x.base = args.Positional(3, ".") + "/" + x.net.name() + "_" + x.board_key;

  core::DeployOptions& opts = x.opts;
  opts.board = fpga::BoardByKey(x.board_key);
  opts.flightrec_path = x.base + "_flightrec.json";
  const bool pipelined =
      args.Positional(2, net_name == "lenet" ? "pipelined" : "folded") ==
      "pipelined";
  if (pipelined) {
    opts.mode = core::ExecutionMode::kPipelined;
    opts.recipe = core::PipelineTvmAutorun();
    opts.recipe.concurrent_execution = true;
  } else {
    opts.mode = core::ExecutionMode::kFolded;
    opts.recipe = net_name == "mobilenet" ? core::FoldedMobileNet(x.board_key)
                  : net_name == "lenet"   ? core::FoldedBase()
                                          : core::FoldedResNet();
  }
  if (args.Has("--over-tile")) {
    // The Table 6.6 sweep's known routing casualty on Stratix 10 SX:
    // C1/W2/C2 = 8/7/16 synthesizes but fails to route. With --fallback
    // the ladder walks it back to a routable configuration.
    opts.recipe.conv1x1 = core::ConvTiling{8, 7, 16, true};
    opts.recipe.name += "+overtile";
  }
  for (const auto& [flag, code] : args.given) {
    if (flag == "--promote" || flag == "--demote") {
      opts.analysis.severity_overrides[code] =
          flag == "--promote" ? analysis::Severity::kError
                              : analysis::Severity::kWarning;
    }
  }
  if (args.Has("--dse") && pipelined) {
    std::fprintf(stderr, "--dse applies to folded execution only\n");
    return 1;
  }
  if (args.Has("--dse")) {
    if (const int rc = ExploreTilings(args, x); rc != 0) return rc;
  }
  std::printf("compiling %s for %s (%s)...\n", x.net.name().c_str(),
              opts.board.name.c_str(), pipelined ? "pipelined" : "folded");
  if (const int rc = Compile(args, x); rc != 0) return rc;
  core::Deployment& d = *x.d;
  if (cmd == "lint") {
    if (const int rc = Lint(args, x); rc != 0) return rc;
  }

  WriteFile(x.base + "_fit_report.txt", fpga::WriteFitReport(d.bitstream()));
  if (!d.ok()) {
    std::printf("design does not synthesize: %s\n",
                d.bitstream().status_detail.c_str());
    if (args.Has("--report")) PrintCompilePhases(d);
    return 0;
  }
  WriteFile(x.base + ".cl", d.GeneratedSource());
  WriteFile(x.base + "_host.cpp", core::EmitHostProgram(d));
  WriteFile(x.base + "_graph.txt", d.fused_graph().ToString());
  std::printf("\nfmax %.0f MHz, %zu kernels, %zu invocations/pass\n",
              d.bitstream().fmax_mhz, d.kernels().size(),
              d.invocations().size());
  x.image = Tensor::Random(x.net.node(x.net.input_id()).output_shape, rng,
                           0.0f, 1.0f);

  if (cmd == "compile") return CompileOutputs(args, x);
  if (cmd == "profile") return Profile(x);
  if (cmd == "run") return Run(args, x);
  if (cmd == "serve") return Serve(args, x);
  if (cmd == "chaos") return Chaos(args, x);
  return 0;  // lint already ran
}

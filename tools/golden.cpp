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
//   clflow_golden                 print the manifest (sorted JSON)
//   clflow_golden --check FILE    compare against FILE; list every key
//                                 that moved, appeared or vanished, and
//                                 exit 1 when any did
//
// A refactor that must not change behaviour keeps the committed manifest
// (tests/golden.json) byte-identical; a deliberate change regenerates it
// and names the artifacts that moved.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "core/host_codegen.hpp"
#include "fpga/report.hpp"
#include "ha/chaos.hpp"
#include "ha/replica_set.hpp"
#include "nets/nets.hpp"
#include "ocl/trace.hpp"
#include "serve/loadgen.hpp"

namespace {

using namespace clflow;

using Manifest = std::map<std::string, std::string>;

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
            const std::string& variant, const fpga::BoardSpec& board) {
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
}

Manifest Build() {
  Rng rng(42);
  const graph::Graph lenet = nets::BuildLeNet5(rng);
  const graph::Graph mobilenet = nets::BuildMobileNetV1(rng);
  const graph::Graph resnet = nets::BuildResNet(18, rng);
  Manifest m;
  RecordRuntime(m, lenet);
  for (const fpga::BoardSpec& board : fpga::EvaluationBoards()) {
    for (core::OptimizationRecipe recipe : core::PipelineLadder()) {
      Record(m, "lenet", lenet, core::ExecutionMode::kPipelined, recipe, "",
             board);
      recipe.concurrent_execution = true;
      Record(m, "lenet", lenet, core::ExecutionMode::kPipelined, recipe,
             "+ce", board);
    }
    const std::pair<const char*, const graph::Graph*> nets[] = {
        {"lenet", &lenet}, {"mobilenet", &mobilenet}, {"resnet18", &resnet}};
    for (const auto& [name, g] : nets) {
      Record(m, name, *g, core::ExecutionMode::kFolded, core::FoldedBase(),
             "", board);
    }
    const std::pair<const char*, const graph::Graph*> shipped_nets[] = {
        {"mobilenet", &mobilenet}, {"resnet18", &resnet}};
    for (const auto& [name, g] : shipped_nets) {
      core::OptimizationRecipe recipe = g == &mobilenet
                                            ? core::FoldedMobileNet(board.key)
                                            : core::FoldedResNet();
      Record(m, name, *g, core::ExecutionMode::kFolded, recipe, "", board);
      recipe.pipeline_tail = true;
      Record(m, name, *g, core::ExecutionMode::kFolded, recipe, "+tail",
             board);
    }
  }
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

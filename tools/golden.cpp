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
#include "nets/nets.hpp"

namespace {

using namespace clflow;

using Manifest = std::map<std::string, std::string>;

std::string Digest(const std::string& bytes) {
  common::Fnv f;
  f.Bytes(bytes.data(), bytes.size());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(f.h));
  return hex;
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

Manifest Build() {
  Rng rng(42);
  const graph::Graph lenet = nets::BuildLeNet5(rng);
  const graph::Graph mobilenet = nets::BuildMobileNetV1(rng);
  const graph::Graph resnet = nets::BuildResNet(18, rng);
  Manifest m;
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

// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation chapter and prints the same rows/series, annotated with the
// paper's published value where one exists so the reader can compare
// shape directly (see EXPERIMENTS.md for the full ledger).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "nets/nets.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "perfmodel/reference.hpp"

namespace clflow::bench {

inline constexpr std::uint64_t kBenchSeed = 2021;  // thesis year

inline core::Deployment DeployPipelined(const graph::Graph& g,
                                        core::OptimizationRecipe recipe,
                                        const fpga::BoardSpec& board,
                                        bool concurrent = false) {
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = std::move(recipe);
  o.recipe.concurrent_execution = concurrent;
  o.board = board;
  o.functional_threads = HardwareThreads();
  return core::Deployment::Compile(g, o);
}

inline core::Deployment DeployFolded(const graph::Graph& g,
                                     core::OptimizationRecipe recipe,
                                     const fpga::BoardSpec& board) {
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = std::move(recipe);
  o.board = board;
  o.functional_threads = HardwareThreads();
  return core::Deployment::Compile(g, o);
}

/// "1234 (paper 5678)" annotation cell.
inline std::string WithPaper(double model, double paper, int digits = 0) {
  return Table::Num(model, digits) + " (paper " + Table::Num(paper, digits) +
         ")";
}

inline void Banner(const char* what, const char* paper_ref) {
  std::printf("=== %s ===\n", what);
  std::printf("reproduces %s; simulated FPGA platform (see DESIGN.md). "
              "'paper' columns quote the thesis.\n\n",
              paper_ref);
}

/// Median of a non-empty sample: the upper middle element after sorting.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Machine-readable bench output, the schema prof::ParseBenchSnapshot and
/// the bench_diff tool consume:
///
///   {"bench":"<name>",
///    "git_describe":"...",                 // when CLFLOW_GIT_DESCRIBE set
///    "metrics":{"<key>":<number>,...}}     // flat, sorted by key
///
/// Every bench binary writes BENCH_<name>.json next to itself so runs can
/// be diffed (CI gates the LeNet and DSE benches against the committed
/// baselines under bench/results/) and plotted without scraping tables.
/// Keys are sorted so committed baselines diff cleanly across refreshes.
class BenchSnapshot {
 public:
  explicit BenchSnapshot(std::string name) : name_(std::move(name)) {}

  void Metric(const std::string& key, double v) { metrics_[key] = v; }

  /// Writes BENCH_<name>.json; prints the path on success and exits the
  /// process with status 1 when the file cannot be written.
  void Write() const {
    std::string out = "{\"bench\":\"" + obs::JsonEscape(name_) + "\"";
    if (const char* gd = std::getenv("CLFLOW_GIT_DESCRIBE");
        gd != nullptr && gd[0] != '\0') {
      out += ",\"git_describe\":\"" + obs::JsonEscape(gd) + "\"";
    }
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [key, v] : metrics_) {
      if (!first) out += ",";
      first = false;
      out += '"';
      out += obs::JsonEscape(key);
      out += "\":";
      out += obs::JsonNum(v);
    }
    out += "}}";
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream f(path);
    if (!f) {
      // A stale snapshot must not pass for this run's results.
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    f << out << "\n";
    std::printf("\nwrote %s (%zu metrics)\n", path.c_str(), metrics_.size());
  }

 private:
  std::string name_;
  std::map<std::string, double> metrics_;
};

}  // namespace clflow::bench

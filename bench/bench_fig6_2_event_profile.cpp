// Reproduces Figure 6.2: OpenCL event-profiling breakdown (kernel / buffer
// write / buffer read time) for the LeNet Base and Autorun bitstreams on
// each platform. The figure's point: the S10MX spends most of its time on
// buffer writes (its engineering-sample BSP has very slow host-to-device
// transfers), and profiling itself serializes the host.
#include "bench_util.hpp"

using namespace clflow;

int main() {
  bench::Banner("LeNet event-profiling breakdown (us per image)",
                "Figure 6.2");

  Rng rng(bench::kBenchSeed);
  graph::Graph lenet = nets::BuildLeNet5(rng);
  Tensor image = nets::SyntheticMnistImage(rng);

  Table table({"Board", "Bitstream", "Kernel us", "Write us", "Read us",
               "Write share"});
  bench::BenchSnapshot json("fig6_2_event_profile");
  for (const auto& board : fpga::EvaluationBoards()) {
    for (const auto* recipe_name : {"Base", "Autorun"}) {
      core::OptimizationRecipe recipe = std::string(recipe_name) == "Base"
                                            ? core::PipelineBase()
                                            : core::PipelineAutorun();
      auto d = bench::DeployPipelined(lenet, recipe, board);
      const auto breakdown = d.ProfileEvents(image);
      const double total =
          (breakdown.kernel + breakdown.write + breakdown.read).seconds();
      table.AddRow({board.name, recipe_name,
                    Table::Num(breakdown.kernel.us(), 1),
                    Table::Num(breakdown.write.us(), 1),
                    Table::Num(breakdown.read.us(), 1),
                    Table::Pct(breakdown.write.seconds() / total)});
      const std::string tag = std::string(board.key) + "." + recipe_name;
      json.Metric(tag + ".kernel_us", breakdown.kernel.us());
      json.Metric(tag + ".write_us", breakdown.write.us());
      json.Metric(tag + ".read_us", breakdown.read.us());
    }
  }
  table.Print();
  json.Write();
  std::printf(
      "\nNote: with event profiling enabled the host blocks on every\n"
      "command (SS5.2), so these totals exceed the unprofiled latency --\n"
      "the same caveat the paper attaches to this figure.\n");
  return 0;
}

// Reproduces Tables 6.17-6.19: comparison against the three related
// systems the paper analyzes -- Caffeinated FPGAs (DiCecco et al.),
// TensorFlow-to-Cloud-FPGAs (Hadjis et al.), and DNNWeaver (Sharma et
// al.). Their numbers are published constants; ours are measured from the
// simulated deployments, mirroring the paper's own methodology (and its
// caveats about cross-platform comparisons).
#include "bench_util.hpp"

using namespace clflow;

namespace {

double OpClassGflops(core::Deployment& d, const std::string& op_class) {
  for (const auto& e : d.ProfileOps()) {
    if (e.op_class == op_class) return e.gflops;
  }
  return 0.0;
}

}  // namespace

int main() {
  bench::Banner("Comparison with related work", "Tables 6.17-6.19");

  Rng rng(bench::kBenchSeed);
  bench::BenchSnapshot json("tab6_17_related_work");

  // --- Table 6.17: vs Caffeinated FPGAs (3x3 conv GFLOPS) --------------------
  {
    graph::Graph r34 = nets::BuildResNet(34, rng);
    auto d = bench::DeployFolded(r34, core::FoldedResNet(),
                                 fpga::Stratix10SX());
    const double ours = OpClassGflops(d, "3x3 conv S=1");
    json.Metric("resnet34_3x3_gflops", ours);
    // Their engine uses the Winograd F(2,3) transform (2.25x fewer
    // multiplies for 3x3/stride-1 convolutions); ours is direct.
    Table t({"", "DiCecco et al. [18]", "This work"});
    t.AddRow({"Workload", "3x3 convs, 4 nets (geomean)",
              "3x3 convs in ResNet-34"});
    t.AddRow({"Platform", "Virtex 7 (batch 32-64)", "Stratix 10 SX (batch 1)"});
    t.AddRow({"Precision", "32b float (Winograd)", "32b float (direct)"});
    t.AddRow({"GFLOPS", "50 (published)", Table::Num(ours, 1)});
    t.AddRow({"Ratio", "1.00x",
              Table::Speedup(ours / 50.0) + " (paper 1.41x)"});
    t.Print();
    std::printf("\n");
  }

  // --- Table 6.18: vs TensorFlow-to-Cloud-FPGAs ------------------------------
  {
    graph::Graph lenet = nets::BuildLeNet5(rng);
    Tensor image = nets::SyntheticMnistImage(rng);
    auto d = bench::DeployPipelined(lenet, core::PipelineTvmAutorun(),
                                    fpga::Stratix10SX(), true);
    const double fps = d.EstimateFps(image);
    const double latency_ms = 1000.0 / fps;
    json.Metric("lenet_latency_ms", latency_ms);
    Table t({"", "Hadjis et al. [27]", "This work"});
    t.AddRow({"Workload", "LeNet (batch 1)", "LeNet (batch 1)"});
    t.AddRow({"Platform", "UltraScale+ VU9P, 32b fixed",
              "Stratix 10 SX, 32b float"});
    t.AddRow({"Latency/image", "0.656 ms (published)",
              Table::Num(latency_ms, 3) + " ms"});
    t.AddRow({"Speedup", "1.00x",
              Table::Speedup(0.656 / latency_ms) + " (paper 3.23x)"});
    t.Print();

    graph::Graph r34 = nets::BuildResNet(34, rng);
    auto dr = bench::DeployFolded(r34, core::FoldedResNet(),
                                  fpga::Stratix10SX());
    Tensor img = nets::SyntheticImagenetImage(rng);
    const double gflops =
        dr.EstimateFps(img) * graph::GraphCost(r34).flops / 1e9;
    std::printf("ResNet: their ResNet-50 36.1 GFLOPS (published) vs our "
                "ResNet-34 %.1f GFLOPS (paper: 29.8, i.e. 17.5%% slower)\n\n",
                gflops);
  }

  // --- Table 6.19: vs DNNWeaver ----------------------------------------------
  {
    graph::Graph lenet = nets::BuildLeNet5(rng);
    graph::Graph mob = nets::BuildMobileNetV1(rng);
    Tensor mnist = nets::SyntheticMnistImage(rng);
    Tensor img = nets::SyntheticImagenetImage(rng);
    auto dl = bench::DeployPipelined(lenet, core::PipelineTvmAutorun(),
                                     fpga::Arria10(), true);
    auto dm = bench::DeployFolded(mob, core::FoldedMobileNet("a10"),
                                  fpga::Arria10());
    const double lenet_vs_cpu =
        dl.EstimateFps(mnist) / perfmodel::TensorflowCpuFps(lenet);
    const double mob_gflops =
        dm.ok() ? dm.EstimateFps(img) * graph::GraphCost(mob).flops / 1e9
                : 0.0;
    json.Metric("lenet_vs_cpu_speedup", lenet_vs_cpu);
    json.Metric("mobilenet_a10_gflops", mob_gflops);
    Table t({"", "DNNWeaver [55]", "This work"});
    t.AddRow({"Workload", "LeNet / AlexNet", "LeNet / MobileNetV1"});
    t.AddRow({"Platform", "Arria 10 GX, 16b fixed", "Arria 10 GX, 32b float"});
    t.AddRow({"LeNet vs CPU", "12x Xeon-E3 (published)",
              Table::Speedup(lenet_vs_cpu) + " Xeon-8280 (paper 2.47x)"});
    t.AddRow({"Large-net GFLOPS", "184.33 AlexNet (published)",
              Table::Num(mob_gflops, 1) + " MobileNet (paper 20.0)"});
    t.AddRow({"Their advantage", "-",
              Table::Speedup(184.33 / std::max(mob_gflops, 1e-9)) +
                  " (paper 9.22x)"});
    t.Print();

    // Going beyond the paper: with an AlexNet builder available we can
    // compare on the *same* network DNNWeaver reports (the paper could
    // only offer MobileNet, with the caveat in its footnote 4).
    graph::Graph alex = nets::BuildAlexNet(rng);
    core::DeployOptions ao;
    ao.mode = core::ExecutionMode::kFolded;
    ao.recipe = core::FoldedResNet();
    ao.recipe.name = "Folded-AlexNet";
    ao.recipe.conv3x3 = {.c1 = 8, .w2 = 1, .c2 = 1};
    // The 11x11/5x5 entry convolutions stay window-rolled: fully
    // unrolling a 121-MAC window would blow the A10's BRAM on LSUs.
    ao.recipe.conv_large = {.c1 = 1, .w2 = 1, .c2 = 1,
                            .unroll_filter = false};
    ao.board = fpga::Arria10();
    auto da = core::Deployment::Compile(alex, ao);
    if (da.ok()) {
      Tensor aimg = Tensor::Full(Shape{1, 3, 227, 227}, 0.1f);
      const double agf =
          da.EstimateFps(aimg) * graph::GraphCost(alex).flops / 1e9;
      std::printf("\nsame-network extension: our AlexNet on the A10 runs at "
                  "%.1f GFLOPS vs DNNWeaver's 184.3 GFLOPS (%.0fx in their favor: "
                  "16b fixed + hand RTL vs 32b float + generated HLS, and "
                  "our 11x11/5x5 entry convolutions stay window-rolled to "
                  "fit the A10's BRAM)\n",
                  agf, 184.33 / agf);
    } else {
      std::printf("\nsame-network extension: AlexNet does not synthesize on "
                  "the A10 (%s)\n",
                  da.bitstream().status_detail.c_str());
    }
  }
  std::printf(
      "\nAs in the paper, these are *indicative* comparisons: different "
      "networks, precisions, batch sizes, and five years of process/tool "
      "gap (SS6.6).\n");
  json.Write();
  return 0;
}

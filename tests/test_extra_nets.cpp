// Tests for the comparison network AlexNet used in the SS6.6 analysis.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "nets/nets.hpp"

namespace clflow {
namespace {

const graph::Node& NodeByName(const graph::Graph& g, const std::string& name) {
  for (const auto& n : g.nodes()) {
    if (n.name == name) return n;
  }
  throw std::runtime_error("no node named " + name);
}

TEST(AlexNet, ArchitectureAndCost) {
  Rng rng(1);
  graph::Graph g = nets::BuildAlexNet(rng);
  EXPECT_EQ(NodeByName(g, "conv1").output_shape, (Shape{1, 96, 55, 55}));
  EXPECT_EQ(NodeByName(g, "pool1").output_shape, (Shape{1, 96, 27, 27}));
  EXPECT_EQ(NodeByName(g, "conv2").output_shape, (Shape{1, 256, 27, 27}));
  EXPECT_EQ(NodeByName(g, "conv5").output_shape, (Shape{1, 256, 13, 13}));
  EXPECT_EQ(NodeByName(g, "flatten").output_shape, (Shape{1, 9216}));
  EXPECT_EQ(NodeByName(g, "fc8").output_shape, (Shape{1, 1000}));
  const auto cost = graph::GraphCost(g);
  // The paper cites DNNWeaver's AlexNet at 1.33G FP ops; the ungrouped
  // variant computes about 2.2G (grouping halves conv2/4/5).
  EXPECT_NEAR(cost.flops, 2.2e9, 0.2e9);
  EXPECT_NEAR(static_cast<double>(cost.params), 61e6, 2e6);
}

TEST(AlexNet, FoldedDeploymentOnA10) {
  // The DNNWeaver comparison platform (Table 6.19) is the Arria 10.
  Rng rng(2);
  graph::Graph g = nets::BuildAlexNet(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedResNet();  // 3x3-centric kernels suit AlexNet's tail
  o.recipe.conv3x3 = {.c1 = 8, .w2 = 1, .c2 = 1};
  o.recipe.conv_large = {.c1 = 1, .w2 = 1, .c2 = 1};
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(g, o);
  ASSERT_TRUE(d.ok()) << d.bitstream().status_detail;
  Tensor image = Tensor::Full(Shape{1, 3, 227, 227}, 0.1f);
  EXPECT_GT(d.EstimateFps(image), 0.5);
}

}  // namespace
}  // namespace clflow

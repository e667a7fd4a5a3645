#include "nets/nets.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "cpu/ops.hpp"

namespace clflow::nets {

namespace {

using graph::Graph;
using graph::NodeId;

Tensor ConvWeights(Rng& rng, std::int64_t k, std::int64_t c, std::int64_t f) {
  return Tensor::HeNormal(Shape{k, c, f, f}, rng, c * f * f);
}

/// Random inference-mode batch norm folded into conv weights/bias -- the
/// same transformation the paper's Relay frontend applies (SS3.1).
struct Folded {
  Tensor weights, bias;
};

Folded FoldRandomBn(Rng& rng, Tensor weights, std::int64_t k) {
  Tensor gamma = Tensor::Random(Shape{k}, rng, 0.75f, 1.25f);
  Tensor beta = Tensor::Random(Shape{k}, rng, -0.1f, 0.1f);
  Tensor mean = Tensor::Random(Shape{k}, rng, -0.1f, 0.1f);
  Tensor variance = Tensor::Random(Shape{k}, rng, 0.5f, 1.5f);
  auto folded = cpu::FoldBatchNorm(weights, Tensor(), gamma, beta, mean,
                                   variance);
  return {std::move(folded.weights), std::move(folded.bias)};
}

}  // namespace

graph::Graph BuildLeNet5(Rng& rng) {
  Graph g;
  g.set_name("lenet5");
  NodeId x = g.AddInput(Shape{1, 1, 28, 28});

  // conv1: 3x3, 6 filters, stride 1 -> 6x26x26.
  x = g.AddConv2d(x, ConvWeights(rng, 6, 1, 3),
                  Tensor::Random(Shape{6}, rng, -0.05f, 0.05f), 1, "conv1",
                  Activation::kRelu);
  // pool1: 2x2 max, stride 2 -> 6x13x13.
  x = g.AddMaxPool(x, 2, 2, "pool1");
  // conv2: 3x3, 16 filters -> 16x11x11.
  x = g.AddConv2d(x, ConvWeights(rng, 16, 6, 3),
                  Tensor::Random(Shape{16}, rng, -0.05f, 0.05f), 1, "conv2",
                  Activation::kRelu);
  // pool2 -> 16x5x5.
  x = g.AddMaxPool(x, 2, 2, "pool2");
  x = g.AddFlatten(x, "flatten");  // 400
  x = g.AddDense(x, Tensor::HeNormal(Shape{120, 400}, rng, 400),
                 Tensor::Random(Shape{120}, rng, -0.05f, 0.05f), "dense1",
                 Activation::kRelu);
  x = g.AddDense(x, Tensor::HeNormal(Shape{84, 120}, rng, 120),
                 Tensor::Random(Shape{84}, rng, -0.05f, 0.05f), "dense2",
                 Activation::kRelu);
  x = g.AddDense(x, Tensor::HeNormal(Shape{10, 84}, rng, 84),
                 Tensor::Random(Shape{10}, rng, -0.05f, 0.05f), "dense3");
  g.AddSoftmax(x, "softmax");
  return g;
}

graph::Graph BuildMobileNetV1(Rng& rng) {
  Graph g;
  g.set_name("mobilenet_v1");
  NodeId x = g.AddInput(Shape{1, 3, 224, 224});

  std::int64_t c = 32;
  // conv_1: 3x3, 32 filters, stride 2 (padded to 226 first).
  x = g.AddPad(x, 1, "conv1_pad");
  {
    auto folded = FoldRandomBn(rng, ConvWeights(rng, 32, 3, 3), 32);
    x = g.AddConv2d(x, std::move(folded.weights), std::move(folded.bias), 2,
                    "conv1", Activation::kRelu6);
  }

  // 13 depthwise-separable stages: (stride, output channels).
  const std::pair<int, int> stages[] = {
      {1, 64},  {2, 128}, {1, 128}, {2, 256}, {1, 256},  {2, 512},
      {1, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512},  {2, 1024},
      {1, 1024}};
  int idx = 2;
  for (const auto& [stride, out_c] : stages) {
    const std::string base = "conv" + std::to_string(idx);
    const NodeId dw_in = g.AddPad(x, 1, base + "_dw_pad");
    {
      auto folded = FoldRandomBn(
          rng, Tensor::HeNormal(Shape{c, 1, 3, 3}, rng, 9), c);
      x = g.AddDepthwiseConv2d(dw_in, std::move(folded.weights),
                               std::move(folded.bias), stride, base + "_dw",
                               Activation::kRelu6);
    }
    {
      auto folded = FoldRandomBn(rng, ConvWeights(rng, out_c, c, 1), out_c);
      x = g.AddConv2d(x, std::move(folded.weights), std::move(folded.bias), 1,
                      base + "_pw", Activation::kRelu6);
    }
    c = out_c;
    ++idx;
  }

  // Global average pool 7x7 -> 1024, dense to 1000, softmax.
  x = g.AddAvgPool(x, 7, 1, "avg_pool");
  x = g.AddFlatten(x, "flatten");
  x = g.AddDense(x, Tensor::HeNormal(Shape{1000, 1024}, rng, 1024),
                 Tensor::Random(Shape{1000}, rng, -0.05f, 0.05f), "fc");
  g.AddSoftmax(x, "softmax");
  return g;
}

graph::Graph BuildResNet(int depth, Rng& rng) {
  CLFLOW_CHECK_MSG(depth == 18 || depth == 34,
                   "only ResNet-18/34 are in the paper's evaluation");
  Graph g;
  g.set_name("resnet" + std::to_string(depth));
  NodeId x = g.AddInput(Shape{1, 3, 224, 224});

  // conv1: 7x7, 64 filters, stride 2, pad 3 -> 64x112x112.
  x = g.AddPad(x, 3, "conv1_pad");
  {
    auto folded = FoldRandomBn(rng, ConvWeights(rng, 64, 3, 7), 64);
    x = g.AddConv2d(x, std::move(folded.weights), std::move(folded.bias), 2,
                    "conv1", Activation::kRelu);
  }
  // 3x3 max pool, stride 2, pad 1 -> 64x56x56.
  x = g.AddPad(x, 1, "pool1_pad");
  x = g.AddMaxPool(x, 3, 2, "pool1");

  // Stage config: {blocks(18), blocks(34), channels}.
  struct Stage {
    int blocks18, blocks34;
    std::int64_t channels;
  };
  const Stage stages[] = {{2, 3, 64}, {2, 4, 128}, {2, 6, 256}, {2, 3, 512}};
  std::int64_t in_c = 64;
  int stage_idx = 2;
  for (const Stage& st : stages) {
    const int blocks = depth == 18 ? st.blocks18 : st.blocks34;
    for (int b = 0; b < blocks; ++b) {
      const std::string base =
          "conv" + std::to_string(stage_idx) + "_" + std::to_string(b + 1);
      const std::int64_t stride = (b == 0 && st.channels != 64) ? 2 : 1;
      NodeId shortcut = x;

      // First 3x3 conv (optionally strided).
      NodeId y = g.AddPad(x, 1, base + "_pad_a");
      {
        auto folded =
            FoldRandomBn(rng, ConvWeights(rng, st.channels, in_c, 3),
                         st.channels);
        y = g.AddConv2d(y, std::move(folded.weights), std::move(folded.bias),
                        stride, base + "_a", Activation::kRelu);
      }
      // Second 3x3 conv (no activation: applied after the residual sum).
      y = g.AddPad(y, 1, base + "_pad_b");
      {
        auto folded =
            FoldRandomBn(rng, ConvWeights(rng, st.channels, st.channels, 3),
                         st.channels);
        y = g.AddConv2d(y, std::move(folded.weights), std::move(folded.bias),
                        1, base + "_b");
      }
      // Projection shortcut when the shape changes (1x1, stride 2).
      if (stride != 1 || in_c != st.channels) {
        auto folded =
            FoldRandomBn(rng, ConvWeights(rng, st.channels, in_c, 1),
                         st.channels);
        shortcut = g.AddConv2d(shortcut, std::move(folded.weights),
                               std::move(folded.bias), stride,
                               base + "_proj");
      }
      x = g.AddResidual(y, shortcut, base + "_add", Activation::kRelu);
      in_c = st.channels;
    }
    ++stage_idx;
  }

  // Global average pool 7x7 -> 512, dense to 1000, softmax.
  x = g.AddAvgPool(x, 7, 1, "avg_pool");
  x = g.AddFlatten(x, "flatten");
  x = g.AddDense(x, Tensor::HeNormal(Shape{1000, 512}, rng, 512),
                 Tensor::Random(Shape{1000}, rng, -0.05f, 0.05f), "fc");
  g.AddSoftmax(x, "softmax");
  return g;
}

graph::Graph BuildAlexNet(Rng& rng) {
  Graph g;
  g.set_name("alexnet");
  NodeId x = g.AddInput(Shape{1, 3, 227, 227});

  // conv1: 11x11, 96 filters, stride 4 -> 96x55x55.
  x = g.AddConv2d(x, ConvWeights(rng, 96, 3, 11),
                  Tensor::Random(Shape{96}, rng, -0.05f, 0.05f), 4, "conv1",
                  Activation::kRelu);
  x = g.AddMaxPool(x, 3, 2, "pool1");  // 96x27x27
  // conv2: 5x5, 256 filters, pad 2.
  x = g.AddPad(x, 2, "conv2_pad");
  x = g.AddConv2d(x, ConvWeights(rng, 256, 96, 5),
                  Tensor::Random(Shape{256}, rng, -0.05f, 0.05f), 1, "conv2",
                  Activation::kRelu);
  x = g.AddMaxPool(x, 3, 2, "pool2");  // 256x13x13
  // conv3-5: 3x3, pad 1.
  const std::int64_t chans[][2] = {{256, 384}, {384, 384}, {384, 256}};
  for (int i = 0; i < 3; ++i) {
    const std::string base = "conv" + std::to_string(3 + i);
    x = g.AddPad(x, 1, base + "_pad");
    x = g.AddConv2d(x, ConvWeights(rng, chans[i][1], chans[i][0], 3),
                    Tensor::Random(Shape{chans[i][1]}, rng, -0.05f, 0.05f), 1,
                    base, Activation::kRelu);
  }
  x = g.AddMaxPool(x, 3, 2, "pool5");  // 256x6x6
  x = g.AddFlatten(x, "flatten");      // 9216
  x = g.AddDense(x, Tensor::HeNormal(Shape{4096, 9216}, rng, 9216),
                 Tensor::Random(Shape{4096}, rng, -0.05f, 0.05f), "fc6",
                 Activation::kRelu);
  x = g.AddDense(x, Tensor::HeNormal(Shape{4096, 4096}, rng, 4096),
                 Tensor::Random(Shape{4096}, rng, -0.05f, 0.05f), "fc7",
                 Activation::kRelu);
  x = g.AddDense(x, Tensor::HeNormal(Shape{1000, 4096}, rng, 4096),
                 Tensor::Random(Shape{1000}, rng, -0.05f, 0.05f), "fc8");
  g.AddSoftmax(x, "softmax");
  return g;
}

Tensor SyntheticMnistImage(Rng& rng) {
  // A blurred random stroke pattern: deterministic, roughly digit-like
  // statistics (sparse bright strokes on a dark background).
  Tensor img(Shape{1, 1, 28, 28});
  auto d = img.data();
  for (int stroke = 0; stroke < 4; ++stroke) {
    double y = 4.0 + rng.NextDouble() * 20.0;
    double x = 4.0 + rng.NextDouble() * 20.0;
    double dy = rng.NextDouble() * 2.0 - 1.0;
    double dx = rng.NextDouble() * 2.0 - 1.0;
    for (int step = 0; step < 24; ++step) {
      const int iy = static_cast<int>(y), ix = static_cast<int>(x);
      if (iy >= 0 && iy < 28 && ix >= 0 && ix < 28) {
        d[static_cast<std::size_t>(iy * 28 + ix)] = 1.0f;
      }
      y += dy;
      x += dx;
      dy += rng.NextDouble() * 0.6 - 0.3;
      dx += rng.NextDouble() * 0.6 - 0.3;
    }
  }
  // 3x3 box blur for soft edges.
  Tensor blurred(Shape{1, 1, 28, 28});
  auto b = blurred.data();
  for (int yy = 0; yy < 28; ++yy) {
    for (int xx = 0; xx < 28; ++xx) {
      float acc = 0.0f;
      int count = 0;
      for (int oy = -1; oy <= 1; ++oy) {
        for (int ox = -1; ox <= 1; ++ox) {
          const int ny = yy + oy, nx = xx + ox;
          if (ny < 0 || ny >= 28 || nx < 0 || nx >= 28) continue;
          acc += d[static_cast<std::size_t>(ny * 28 + nx)];
          ++count;
        }
      }
      b[static_cast<std::size_t>(yy * 28 + xx)] =
          acc / static_cast<float>(count);
    }
  }
  return blurred;
}

Tensor SyntheticImagenetImage(Rng& rng) {
  return Tensor::Random(Shape{1, 3, 224, 224}, rng, 0.0f, 1.0f);
}

}  // namespace clflow::nets

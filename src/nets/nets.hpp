// Model zoo: the three CNNs the paper deploys (Tables 2.1-2.3).
//
// Pretrained Keras / image-classifiers weights are not available offline;
// parameters are seeded-random (He initialization, batch norm randomly
// parameterized then folded into convolutions exactly as the paper's flow
// does). SS6.1.1 of the paper itself evaluates on random inputs because
// input values do not alter computation time; correctness of the compiled
// accelerators is checked against the reference CPU execution of the same
// graph, not against ImageNet labels.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace clflow::nets {

/// LeNet-5 (Table 2.1): 28x28x1 input, two 3x3 convs with 2x2/stride-2 max
/// pools, three dense layers, softmax. ReLU activations. ~60K parameters,
/// ~0.4M FLOPs.
[[nodiscard]] graph::Graph BuildLeNet5(Rng& rng);

/// MobileNetV1 (Table 2.2): 224x224x3 input, 13 depthwise-separable
/// stages, global average pool, 1000-way dense + softmax. ReLU6. Batch
/// norms folded. ~4.2M parameters, ~1.1G FLOPs.
[[nodiscard]] graph::Graph BuildMobileNetV1(Rng& rng);

/// ResNet-18/34 (Table 2.3): basic residual blocks with identity and
/// 1x1-projection shortcuts. ReLU. Batch norms folded. ~11.7M / ~21.8M
/// parameters, ~3.6G / ~7.3G FLOPs.
[[nodiscard]] graph::Graph BuildResNet(int depth, Rng& rng);

/// AlexNet (ungrouped/CaffeNet variant, ReLU, no LRN): the network the
/// paper's related-work comparisons reference (DNNWeaver's 184-GFLOPS
/// accelerator and DiCecco et al.'s workloads, SS6.6). 227x227x3 input,
/// five convolutions, three dense layers. ~61M parameters, ~1.4G FLOPs.
[[nodiscard]] graph::Graph BuildAlexNet(Rng& rng);

/// A synthetic "MNIST-like" input batch: deterministic pseudo-digit
/// images in [0,1], shape [1,1,28,28].
[[nodiscard]] Tensor SyntheticMnistImage(Rng& rng);

/// A synthetic ImageNet-sized input, shape [1,3,224,224] (paper SS6.1.1:
/// random inputs, since values do not change computation time).
[[nodiscard]] Tensor SyntheticImagenetImage(Rng& rng);

}  // namespace clflow::nets

// Reference CPU operators.
//
// These are the functional oracle for every experiment: FPGA-simulated
// outputs are validated against them, and they double as the "TVM-nT"
// real-machine data points (threaded direct implementations, matching the
// paper's use of TVM's LLVM backend with an explicit thread count).
//
// All operators take batch-1 NCHW tensors, mirroring the paper's
// single-image inference assumption (§2.1.2: N = 1).
#pragma once

#include <cstdint>

#include "common/activation.hpp"
#include "tensor/tensor.hpp"

namespace clflow::cpu {

struct Conv2dParams {
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  Activation activation = Activation::kNone;
};

/// Standard convolution. input [1,C1,H,W] (x) weights [K,C1,F,F] -> [1,K,H2,W2].
/// bias may be undefined (no bias). Throws ShapeError on mismatch.
///
/// Conv2d/DepthwiseConv2d/Dense run an 8-wide SIMD path (portable
/// GCC/Clang vector extensions) when available: one vector lane per
/// output element, each lane accumulating in exactly the scalar loop's
/// order, so results are bit-identical to the *Scalar variants. The
/// *Scalar variants keep the plain loops as the oracle the SIMD path is
/// tested (and benchmarked) against.
///
/// The conv paths change only where lanes load from and how many outputs
/// share a load, never the order of an output's terms:
///  - Channel blocking: each Conv2d work item computes 4 output channels
///    of one output row, so one tap load feeds 4 accumulators. A tail
///    block computes its missing channels from a real filter and drops
///    them unstored.
///  - Flat 1x1: a stride-1 unpadded 1x1 conv tiles the flattened H*W
///    plane, so only a plane's last tile is partial. That tile is clamped
///    to end at the plane's end; its overlapping outputs are recomputed
///    bit-identically.
///  - Staged rows: any other padded or strided conv first copies each
///    input row into one zero-padded row per stride phase (the only extra
///    parallel dispatch; depthwise stages per channel inside its workers).
///    Every tap is then one contiguous vector load, and a padded tap adds
///    a +-0 product, which is a bitwise no-op because an accumulator is
///    never -0. Rows above or below the input are skipped, as in the
///    scalar loop.
[[nodiscard]] Tensor Conv2d(const Tensor& input, const Tensor& weights,
                            const Tensor& bias, const Conv2dParams& params,
                            int num_threads = 1);
[[nodiscard]] Tensor Conv2dScalar(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias,
                                  const Conv2dParams& params,
                                  int num_threads = 1);

/// Depthwise convolution. weights [C,1,F,F]; one filter per input channel.
[[nodiscard]] Tensor DepthwiseConv2d(const Tensor& input,
                                     const Tensor& weights, const Tensor& bias,
                                     const Conv2dParams& params,
                                     int num_threads = 1);
[[nodiscard]] Tensor DepthwiseConv2dScalar(const Tensor& input,
                                           const Tensor& weights,
                                           const Tensor& bias,
                                           const Conv2dParams& params,
                                           int num_threads = 1);

/// Fully-connected layer. input [1,C1] (or any shape with C1 elements,
/// flattened) (x) weights [C2,C1] + bias [C2] -> [1,C2].
[[nodiscard]] Tensor Dense(const Tensor& input, const Tensor& weights,
                           const Tensor& bias, Activation activation,
                           int num_threads = 1);
[[nodiscard]] Tensor DenseScalar(const Tensor& input, const Tensor& weights,
                                 const Tensor& bias, Activation activation,
                                 int num_threads = 1);

struct PoolParams {
  std::int64_t window = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;
};

[[nodiscard]] Tensor MaxPool2d(const Tensor& input, const PoolParams& params,
                               int num_threads = 1);
[[nodiscard]] Tensor AvgPool2d(const Tensor& input, const PoolParams& params,
                               int num_threads = 1);

/// Zero padding on H and W of an NCHW tensor.
[[nodiscard]] Tensor Pad2d(const Tensor& input, std::int64_t pad);

/// Element-wise activation over a whole tensor.
[[nodiscard]] Tensor Activate(const Tensor& input, Activation activation);

/// Element-wise sum (residual shortcut); shapes must match.
[[nodiscard]] Tensor Add(const Tensor& a, const Tensor& b,
                         Activation activation = Activation::kNone);

/// Numerically stabilized softmax over the last axis of a rank-1/2 tensor.
[[nodiscard]] Tensor Softmax(const Tensor& input);

/// Folds inference-mode batch norm (gamma, beta, mean, var) into
/// per-output-channel scale/shift applied to conv weights and bias,
/// returning {folded_weights, folded_bias}. This is how the paper's flow
/// handles batch norm: fused into the preceding convolution (§3.1).
struct FoldedBatchNorm {
  Tensor weights;
  Tensor bias;
};
[[nodiscard]] FoldedBatchNorm FoldBatchNorm(const Tensor& weights,
                                            const Tensor& bias,
                                            const Tensor& gamma,
                                            const Tensor& beta,
                                            const Tensor& mean,
                                            const Tensor& variance,
                                            float epsilon = 1e-5f);

}  // namespace clflow::cpu

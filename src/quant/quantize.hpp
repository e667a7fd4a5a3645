// Quantized (int8) inference -- the paper's first future-work item
// (SS8.1): "Reducing bit precision for weight/activation representation
// can reduce arithmetic complexity (i.e., pack more operations per DSP)
// and memory footprint ... This can lead to increased unrolling/tiling."
//
// This module implements real int8 arithmetic end-to-end:
//   * per-tensor symmetric quantization (scale only, zero-point 0);
//   * quantized conv / depthwise conv / dense with int32 accumulation and
//     requantization, plus int8 max-pool and pad;
//   * a graph-level quantizer that calibrates activation scales from a
//     set of calibration inputs and executes whole networks in int8;
//   * quality metrics against the float reference (SQNR, top-1 agreement).
//
// The FPGA side of the story (2 int ops per DSP, quartered LSU widths and
// cache footprints) is modeled by fpga::PrecisionSpec and exercised by
// bench_quantized_mobilenet.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace clflow::quant {

/// A tensor in per-tensor symmetric int8: real_value = scale * q.
struct QTensor {
  Shape shape;
  std::vector<std::int8_t> data;
  float scale = 1.0f;

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(data.size());
  }
};

/// Chooses the scale so that max|x| maps to 127 (symmetric, no clipping
/// on the calibration data).
[[nodiscard]] float ChooseScale(const Tensor& t);

[[nodiscard]] QTensor Quantize(const Tensor& t, float scale);
[[nodiscard]] QTensor QuantizeAuto(const Tensor& t);
[[nodiscard]] Tensor Dequantize(const QTensor& q);

/// Signal-to-quantization-noise ratio in dB between a float tensor and
/// its quantized representation (or any reconstruction of it).
[[nodiscard]] double SqnrDb(const Tensor& reference, const Tensor& actual);

// --- Quantized operators -----------------------------------------------------
// All operate on batch-1 NCHW, mirroring cpu::*; accumulation is int32;
// bias is pre-quantized to int32 at scale in.scale * w.scale; the output
// is requantized to out_scale with the activation applied in the real
// domain.

struct QConvParams {
  std::int64_t stride = 1;
  Activation activation = Activation::kNone;
  float out_scale = 1.0f;
};

[[nodiscard]] QTensor QConv2d(const QTensor& input, const QTensor& weights,
                              const std::vector<std::int32_t>& bias,
                              const QConvParams& params, int num_threads = 1);

[[nodiscard]] QTensor QDepthwiseConv2d(const QTensor& input,
                                       const QTensor& weights,
                                       const std::vector<std::int32_t>& bias,
                                       const QConvParams& params,
                                       int num_threads = 1);

[[nodiscard]] QTensor QDense(const QTensor& input, const QTensor& weights,
                             const std::vector<std::int32_t>& bias,
                             Activation activation, float out_scale,
                             int num_threads = 1);

[[nodiscard]] QTensor QMaxPool2d(const QTensor& input, std::int64_t window,
                                 std::int64_t stride);
[[nodiscard]] QTensor QAvgPool2d(const QTensor& input, std::int64_t window,
                                 std::int64_t stride);
[[nodiscard]] QTensor QPad2d(const QTensor& input, std::int64_t pad);
[[nodiscard]] QTensor QAdd(const QTensor& a, const QTensor& b,
                           Activation activation, float out_scale);

// --- Graph-level quantization --------------------------------------------------

/// A quantized network: int8 weights, int32 biases, and calibrated
/// per-node activation scales for an (already fused) graph.
class QuantizedGraph {
 public:
  /// Calibrates activation scales by executing the float graph on the
  /// given inputs (at least one) and taking per-node max|activation|.
  [[nodiscard]] static QuantizedGraph Calibrate(
      const graph::Graph& fused, const std::vector<Tensor>& calibration,
      int num_threads = 1);

  /// Runs int8 inference; the final output is dequantized to float
  /// (softmax, when present as the last node, computes in float as the
  /// paper's flow keeps it).
  [[nodiscard]] Tensor Execute(const Tensor& input,
                               int num_threads = 1) const;

  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }
  /// Total int8 parameter bytes (vs 4x that in float).
  [[nodiscard]] std::int64_t parameter_bytes() const;

 private:
  QuantizedGraph() = default;
  const graph::Graph* graph_ = nullptr;  // not owned; outlives this object
  std::unordered_map<graph::NodeId, float> act_scales_;
  std::unordered_map<graph::NodeId, QTensor> weights_;
  std::unordered_map<graph::NodeId, std::vector<std::int32_t>> biases_;
};

/// Fraction of inputs whose float and int8 argmax agree.
[[nodiscard]] double Top1Agreement(const graph::Graph& fused,
                                   const QuantizedGraph& q,
                                   const std::vector<Tensor>& inputs,
                                   int num_threads = 1);

}  // namespace clflow::quant

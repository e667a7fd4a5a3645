#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "cpu/ops.hpp"

namespace clflow::quant {

namespace {

std::int8_t Saturate(float v) {
  return static_cast<std::int8_t>(
      std::clamp(std::lround(v), long{-127}, long{127}));
}

}  // namespace

float ChooseScale(const Tensor& t) {
  float max_abs = 0.0f;
  for (float v : t.data()) max_abs = std::max(max_abs, std::fabs(v));
  return std::max(max_abs, 1e-8f) / 127.0f;
}

QTensor Quantize(const Tensor& t, float scale) {
  CLFLOW_CHECK_MSG(scale > 0.0f, "quantization scale must be positive");
  QTensor q;
  q.shape = t.shape();
  q.scale = scale;
  q.data.resize(static_cast<std::size_t>(t.size()));
  const auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    q.data[i] = Saturate(d[i] / scale);
  }
  return q;
}

QTensor QuantizeAuto(const Tensor& t) { return Quantize(t, ChooseScale(t)); }

Tensor Dequantize(const QTensor& q) {
  Tensor t(q.shape);
  auto d = t.data();
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    d[i] = static_cast<float>(q.data[i]) * q.scale;
  }
  return t;
}

double SqnrDb(const Tensor& reference, const Tensor& actual) {
  CLFLOW_CHECK_MSG(reference.shape() == actual.shape(),
                   "SQNR shape mismatch");
  double signal = 0.0, noise = 0.0;
  const auto r = reference.data(), a = actual.data();
  for (std::size_t i = 0; i < r.size(); ++i) {
    signal += static_cast<double>(r[i]) * r[i];
    const double e = static_cast<double>(r[i]) - a[i];
    noise += e * e;
  }
  if (noise == 0.0) return 120.0;  // effectively exact
  return 10.0 * std::log10(std::max(signal, 1e-30) / noise);
}

// ---------------------------------------------------------------------------

QTensor QConv2d(const QTensor& input, const QTensor& weights,
                const std::vector<std::int32_t>& bias,
                const QConvParams& params, int num_threads) {
  CLFLOW_CHECK_MSG(input.shape.rank() == 4 && weights.shape.rank() == 4,
                   "qconv expects rank-4 tensors");
  const std::int64_t c1 = input.shape[1], h1 = input.shape[2],
                     w1 = input.shape[3];
  const std::int64_t k = weights.shape[0], f = weights.shape[2];
  CLFLOW_CHECK_MSG(weights.shape[1] == c1, "qconv channel mismatch");
  CLFLOW_CHECK_MSG(bias.empty() || static_cast<std::int64_t>(bias.size()) == k,
                   "qconv bias size mismatch");
  const std::int64_t s = params.stride;
  const std::int64_t h2 = (h1 - f) / s + 1, w2 = (w1 - f) / s + 1;

  QTensor out;
  out.shape = Shape{1, k, h2, w2};
  out.scale = params.out_scale;
  out.data.resize(static_cast<std::size_t>(k * h2 * w2));
  const float acc_scale = input.scale * weights.scale;

  ParallelFor(0, k, num_threads, [&](std::int64_t oc) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        std::int32_t acc = bias.empty() ? 0 : bias[static_cast<std::size_t>(oc)];
        for (std::int64_t ic = 0; ic < c1; ++ic) {
          for (std::int64_t fy = 0; fy < f; ++fy) {
            const std::int8_t* in_row =
                input.data.data() + ((ic * h1 + oy * s + fy) * w1 + ox * s);
            const std::int8_t* w_row =
                weights.data.data() + ((oc * c1 + ic) * f + fy) * f;
            for (std::int64_t fx = 0; fx < f; ++fx) {
              acc += static_cast<std::int32_t>(in_row[fx]) *
                     static_cast<std::int32_t>(w_row[fx]);
            }
          }
        }
        const float real = ApplyActivation(
            params.activation, static_cast<float>(acc) * acc_scale);
        out.data[static_cast<std::size_t>((oc * h2 + oy) * w2 + ox)] =
            Saturate(real / params.out_scale);
      }
    }
  });
  return out;
}

QTensor QDepthwiseConv2d(const QTensor& input, const QTensor& weights,
                         const std::vector<std::int32_t>& bias,
                         const QConvParams& params, int num_threads) {
  const std::int64_t c = input.shape[1], h1 = input.shape[2],
                     w1 = input.shape[3];
  const std::int64_t f = weights.shape[2];
  CLFLOW_CHECK_MSG(weights.shape[0] == c && weights.shape[1] == 1,
                   "qdw weights must be [C,1,F,F]");
  const std::int64_t s = params.stride;
  const std::int64_t h2 = (h1 - f) / s + 1, w2 = (w1 - f) / s + 1;

  QTensor out;
  out.shape = Shape{1, c, h2, w2};
  out.scale = params.out_scale;
  out.data.resize(static_cast<std::size_t>(c * h2 * w2));
  const float acc_scale = input.scale * weights.scale;

  ParallelFor(0, c, num_threads, [&](std::int64_t ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        std::int32_t acc = bias.empty() ? 0 : bias[static_cast<std::size_t>(ch)];
        for (std::int64_t fy = 0; fy < f; ++fy) {
          const std::int8_t* in_row =
              input.data.data() + ((ch * h1 + oy * s + fy) * w1 + ox * s);
          const std::int8_t* w_row = weights.data.data() + (ch * f + fy) * f;
          for (std::int64_t fx = 0; fx < f; ++fx) {
            acc += static_cast<std::int32_t>(in_row[fx]) *
                   static_cast<std::int32_t>(w_row[fx]);
          }
        }
        const float real = ApplyActivation(
            params.activation, static_cast<float>(acc) * acc_scale);
        out.data[static_cast<std::size_t>((ch * h2 + oy) * w2 + ox)] =
            Saturate(real / params.out_scale);
      }
    }
  });
  return out;
}

QTensor QDense(const QTensor& input, const QTensor& weights,
               const std::vector<std::int32_t>& bias, Activation activation,
               float out_scale, int num_threads) {
  const std::int64_t c2 = weights.shape[0], c1 = weights.shape[1];
  CLFLOW_CHECK_MSG(input.size() == c1, "qdense input size mismatch");
  QTensor out;
  out.shape = Shape{1, c2};
  out.scale = out_scale;
  out.data.resize(static_cast<std::size_t>(c2));
  const float acc_scale = input.scale * weights.scale;
  ParallelFor(0, c2, num_threads, [&](std::int64_t j) {
    std::int32_t acc = bias.empty() ? 0 : bias[static_cast<std::size_t>(j)];
    const std::int8_t* w_row = weights.data.data() + j * c1;
    for (std::int64_t i = 0; i < c1; ++i) {
      acc += static_cast<std::int32_t>(input.data[static_cast<std::size_t>(i)]) *
             static_cast<std::int32_t>(w_row[i]);
    }
    const float real =
        ApplyActivation(activation, static_cast<float>(acc) * acc_scale);
    out.data[static_cast<std::size_t>(j)] = Saturate(real / out_scale);
  });
  return out;
}

QTensor QMaxPool2d(const QTensor& input, std::int64_t window,
                   std::int64_t stride) {
  const std::int64_t c = input.shape[1], h1 = input.shape[2],
                     w1 = input.shape[3];
  const std::int64_t h2 = (h1 - window) / stride + 1;
  const std::int64_t w2 = (w1 - window) / stride + 1;
  QTensor out;
  out.shape = Shape{1, c, h2, w2};
  out.scale = input.scale;  // max is scale-preserving
  out.data.resize(static_cast<std::size_t>(c * h2 * w2));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        std::int8_t best = -128;
        for (std::int64_t fy = 0; fy < window; ++fy) {
          for (std::int64_t fx = 0; fx < window; ++fx) {
            best = std::max(best,
                            input.data[static_cast<std::size_t>(
                                (ch * h1 + oy * stride + fy) * w1 +
                                ox * stride + fx)]);
          }
        }
        out.data[static_cast<std::size_t>((ch * h2 + oy) * w2 + ox)] = best;
      }
    }
  }
  return out;
}

QTensor QAvgPool2d(const QTensor& input, std::int64_t window,
                   std::int64_t stride) {
  const std::int64_t c = input.shape[1], h1 = input.shape[2],
                     w1 = input.shape[3];
  const std::int64_t h2 = (h1 - window) / stride + 1;
  const std::int64_t w2 = (w1 - window) / stride + 1;
  QTensor out;
  out.shape = Shape{1, c, h2, w2};
  out.scale = input.scale;  // |avg| <= max|in|
  out.data.resize(static_cast<std::size_t>(c * h2 * w2));
  const std::int64_t area = window * window;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        std::int32_t acc = 0;
        for (std::int64_t fy = 0; fy < window; ++fy) {
          for (std::int64_t fx = 0; fx < window; ++fx) {
            acc += input.data[static_cast<std::size_t>(
                (ch * h1 + oy * stride + fy) * w1 + ox * stride + fx)];
          }
        }
        out.data[static_cast<std::size_t>((ch * h2 + oy) * w2 + ox)] =
            Saturate(static_cast<float>(acc) / static_cast<float>(area));
      }
    }
  }
  return out;
}

QTensor QPad2d(const QTensor& input, std::int64_t pad) {
  const std::int64_t c = input.shape[1], h1 = input.shape[2],
                     w1 = input.shape[3];
  const std::int64_t h2 = h1 + 2 * pad, w2 = w1 + 2 * pad;
  QTensor out;
  out.shape = Shape{1, c, h2, w2};
  out.scale = input.scale;
  out.data.assign(static_cast<std::size_t>(c * h2 * w2), 0);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < h1; ++y) {
      std::copy_n(input.data.data() + (ch * h1 + y) * w1, w1,
                  out.data.data() + ((ch * h2 + y + pad) * w2 + pad));
    }
  }
  return out;
}

QTensor QAdd(const QTensor& a, const QTensor& b, Activation activation,
             float out_scale) {
  CLFLOW_CHECK_MSG(a.shape == b.shape, "qadd shape mismatch");
  QTensor out;
  out.shape = a.shape;
  out.scale = out_scale;
  out.data.resize(a.data.size());
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    const float real = ApplyActivation(
        activation, static_cast<float>(a.data[i]) * a.scale +
                        static_cast<float>(b.data[i]) * b.scale);
    out.data[i] = Saturate(real / out_scale);
  }
  return out;
}

// ---------------------------------------------------------------------------

QuantizedGraph QuantizedGraph::Calibrate(const graph::Graph& fused,
                                         const std::vector<Tensor>& calibration,
                                         int num_threads) {
  CLFLOW_CHECK_MSG(!calibration.empty(),
                   "calibration requires at least one input");
  QuantizedGraph q;
  q.graph_ = &fused;

  // Per-node max|activation| over the calibration set.
  std::unordered_map<graph::NodeId, float> max_abs;
  for (const Tensor& input : calibration) {
    std::unordered_map<graph::NodeId, Tensor> acts;
    (void)graph::Execute(fused, input, num_threads, &acts);
    for (const auto& [id, t] : acts) {
      float m = max_abs[id];
      for (float v : t.data()) m = std::max(m, std::fabs(v));
      max_abs[id] = m;
    }
  }
  for (const auto& n : fused.nodes()) {
    // Scale-preserving ops propagate their input's scale so the int8
    // payload can pass through untouched.
    switch (n.kind) {
      case graph::OpKind::kPad:
      case graph::OpKind::kMaxPool:
      case graph::OpKind::kAvgPool:
      case graph::OpKind::kFlatten:
        q.act_scales_[n.id] = 0.0f;  // resolved below from the producer
        break;
      default:
        q.act_scales_[n.id] =
            std::max(max_abs[n.id], 1e-8f) / 127.0f;
        break;
    }
  }
  for (const auto& n : fused.nodes()) {
    if (q.act_scales_.at(n.id) == 0.0f) {
      graph::NodeId src = n.inputs[0];
      while (q.act_scales_.at(src) == 0.0f) {
        src = fused.node(src).inputs[0];
      }
      q.act_scales_[n.id] = q.act_scales_.at(src);
    }
  }

  // Quantize parameters.
  for (const auto& n : fused.nodes()) {
    if (!n.weights.defined()) continue;
    QTensor w = QuantizeAuto(n.weights);
    const float in_scale = q.act_scales_.at(n.inputs[0]);
    std::vector<std::int32_t> bias;
    if (n.bias.defined()) {
      bias.resize(static_cast<std::size_t>(n.bias.size()));
      const float bias_scale = in_scale * w.scale;
      const auto b = n.bias.data();
      for (std::size_t i = 0; i < bias.size(); ++i) {
        bias[i] = static_cast<std::int32_t>(
            std::lround(b[i] / bias_scale));
      }
    }
    q.weights_[n.id] = std::move(w);
    q.biases_[n.id] = std::move(bias);
  }
  return q;
}

std::int64_t QuantizedGraph::parameter_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& [id, w] : weights_) {
    bytes += w.size();
    auto it = biases_.find(id);
    if (it != biases_.end()) {
      bytes += static_cast<std::int64_t>(it->second.size()) * 4;
    }
  }
  return bytes;
}

Tensor QuantizedGraph::Execute(const Tensor& input, int num_threads) const {
  const graph::Graph& g = *graph_;
  std::unordered_map<graph::NodeId, QTensor> values;
  values[g.input_id()] =
      Quantize(input, act_scales_.at(g.input_id()));

  Tensor float_result;  // set when the tail runs in float (softmax)
  for (const auto& n : g.nodes()) {
    if (n.kind == graph::OpKind::kInput) continue;
    const QTensor& a = values.at(n.inputs[0]);
    const float out_scale = act_scales_.at(n.id);
    QTensor r;
    switch (n.kind) {
      case graph::OpKind::kConv2d:
        r = QConv2d(a, weights_.at(n.id), biases_.at(n.id),
                    {.stride = n.stride, .activation = n.activation,
                     .out_scale = out_scale},
                    num_threads);
        break;
      case graph::OpKind::kDepthwiseConv2d:
        r = QDepthwiseConv2d(a, weights_.at(n.id), biases_.at(n.id),
                             {.stride = n.stride, .activation = n.activation,
                              .out_scale = out_scale},
                             num_threads);
        break;
      case graph::OpKind::kDense:
        r = QDense(a, weights_.at(n.id), biases_.at(n.id), n.activation,
                   out_scale, num_threads);
        break;
      case graph::OpKind::kMaxPool:
        r = QMaxPool2d(a, n.window, n.stride);
        break;
      case graph::OpKind::kAvgPool:
        r = QAvgPool2d(a, n.window, n.stride);
        break;
      case graph::OpKind::kPad:
        r = QPad2d(a, n.pad);
        break;
      case graph::OpKind::kAdd:
        r = QAdd(a, values.at(n.inputs[1]), n.activation, out_scale);
        break;
      case graph::OpKind::kFlatten: {
        r = a;
        r.shape = n.output_shape;
        break;
      }
      case graph::OpKind::kSoftmax: {
        // Softmax computes in float, as the paper's flow keeps it.
        float_result = cpu::Softmax(Dequantize(a));
        break;
      }
      case graph::OpKind::kActivation: {
        r = a;
        for (auto& v : r.data) {
          const float real = ApplyActivation(
              n.standalone_activation, static_cast<float>(v) * a.scale);
          v = Saturate(real / out_scale);
        }
        r.scale = out_scale;
        break;
      }
      case graph::OpKind::kInput:
        break;
    }
    if (n.kind == graph::OpKind::kSoftmax) {
      if (n.id == g.output_id()) return float_result;
      values[n.id] = Quantize(float_result, out_scale);
    } else {
      values[n.id] = std::move(r);
    }
  }
  return Dequantize(values.at(g.output_id()));
}

double Top1Agreement(const graph::Graph& fused, const QuantizedGraph& q,
                     const std::vector<Tensor>& inputs, int num_threads) {
  CLFLOW_CHECK(!inputs.empty());
  int agree = 0;
  for (const Tensor& input : inputs) {
    const Tensor f = graph::Execute(fused, input, num_threads);
    const Tensor i8 = q.Execute(input, num_threads);
    if (f.ArgMax() == i8.Reshaped(f.shape()).ArgMax()) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(inputs.size());
}

}  // namespace clflow::quant

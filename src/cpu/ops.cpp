#include "cpu/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

// Portable 8-wide SIMD via GCC/Clang vector extensions; other compilers
// fall back to the scalar loops. Lane-per-output vectorization: lane l
// computes output element base+l, accumulating terms in exactly the order
// the scalar loop would, so the SIMD results are bit-identical to the
// *Scalar oracles (adding a 0.0f term for a padded tap is a bitwise no-op
// because the accumulator can never be -0.0: +0 + -0 == +0).
//
// Conv2d and DepthwiseConv2d load every tap as one contiguous vector from
// the rows a TapLayout describes: the input planes themselves for a
// stride-1 unpadded conv, else rows staged once per call with the padding
// written as 0.0f and each stride phase de-interleaved. Conv2d computes 4 output channels per work
// item so one tap load feeds 4 accumulators, and runs a stride-1 unpadded
// 1x1 conv over the flattened H*W plane. None of this reorders any
// output's terms.
#if defined(__GNUC__) || defined(__clang__)
#define CLFLOW_CPU_SIMD 1
#else
#define CLFLOW_CPU_SIMD 0
#endif

namespace clflow::cpu {

namespace {

void CheckNchw(const Tensor& t, const char* what) {
  if (!t.defined() || t.shape().rank() != 4 || t.shape().batch() != 1) {
    throw ShapeError(std::string(what) + " must be a defined [1,C,H,W] tensor");
  }
}

/// Validated shape parameters shared by the scalar and SIMD conv paths.
struct Conv2dDims {
  std::int64_t c1, h1, w1, k, f, h2, w2;
};

Conv2dDims CheckConv2dShapes(const Tensor& input, const Tensor& weights,
                             const Tensor& bias, const Conv2dParams& params) {
  CheckNchw(input, "conv2d input");
  if (weights.shape().rank() != 4) throw ShapeError("conv2d weights not rank-4");
  Conv2dDims d;
  d.c1 = input.shape().channels();
  d.h1 = input.shape().height();
  d.w1 = input.shape().width();
  d.k = weights.shape()[0];
  d.f = weights.shape()[2];
  if (weights.shape()[1] != d.c1 || weights.shape()[3] != d.f) {
    throw ShapeError("conv2d weights shape mismatch: weights " +
                     weights.shape().ToString() + " vs input " +
                     input.shape().ToString());
  }
  if (bias.defined() && bias.size() != d.k) {
    throw ShapeError("conv2d bias size mismatch");
  }
  d.h2 = ConvOutDim(d.h1, d.f, params.stride, params.pad);
  d.w2 = ConvOutDim(d.w1, d.f, params.stride, params.pad);
  return d;
}

struct DepthwiseDims {
  std::int64_t c, h1, w1, f, h2, w2;
};

DepthwiseDims CheckDepthwiseShapes(const Tensor& input, const Tensor& weights,
                                   const Tensor& bias,
                                   const Conv2dParams& params) {
  CheckNchw(input, "depthwise conv input");
  if (weights.shape().rank() != 4 || weights.shape()[1] != 1) {
    throw ShapeError("depthwise weights must be [C,1,F,F]");
  }
  DepthwiseDims d;
  d.c = input.shape().channels();
  d.h1 = input.shape().height();
  d.w1 = input.shape().width();
  d.f = weights.shape()[2];
  if (weights.shape()[0] != d.c || weights.shape()[3] != d.f) {
    throw ShapeError("depthwise weights shape mismatch");
  }
  if (bias.defined() && bias.size() != d.c) {
    throw ShapeError("depthwise bias size mismatch");
  }
  d.h2 = ConvOutDim(d.h1, d.f, params.stride, params.pad);
  d.w2 = ConvOutDim(d.w1, d.f, params.stride, params.pad);
  return d;
}

struct DenseDims {
  std::int64_t c1, c2;
};

DenseDims CheckDenseShapes(const Tensor& input, const Tensor& weights,
                           const Tensor& bias) {
  if (!input.defined() || weights.shape().rank() != 2) {
    throw ShapeError("dense expects defined input and rank-2 weights");
  }
  DenseDims d;
  d.c2 = weights.shape()[0];
  d.c1 = weights.shape()[1];
  if (input.size() != d.c1) {
    throw ShapeError("dense input size " + std::to_string(input.size()) +
                     " != weights C1 " + std::to_string(d.c1));
  }
  if (bias.defined() && bias.size() != d.c2) {
    throw ShapeError("dense bias size mismatch");
  }
  return d;
}

#if CLFLOW_CPU_SIMD

typedef float V4f __attribute__((vector_size(16)));

/// 8 float lanes held as two native 4-wide halves. GCC lowers a 32-byte
/// generic vector through the stack when only SSE2 is enabled, so an
/// 8-lane accumulator would be reloaded and spilled on every add; two
/// 16-byte halves stay in xmm registers.
struct V8f {
  V4f lo, hi;

  V8f& operator+=(const V8f& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
};

inline V8f operator*(const V8f& a, const V8f& b) {
  return {a.lo * b.lo, a.hi * b.hi};
}

constexpr std::int64_t kLanes = 8;

/// Output channels per Conv2d work item: one tap load feeds this many
/// accumulators. 4 x 8 lanes is 8 xmm registers under SSE2, which leaves
/// room for the tap and the weight broadcasts.
constexpr int kConvBlock = 4;

inline V8f BroadcastV8(float v) {
  const V4f h = {v, v, v, v};
  return {h, h};
}

inline V8f LoadV8(const float* p) {
  V8f v;
  std::memcpy(&v.lo, p, sizeof(v.lo));
  std::memcpy(&v.hi, p + 4, sizeof(v.hi));
  return v;
}

/// Where a SIMD conv loads its taps from: one channel's rows are
/// `h * phases` rows of `row_len` floats. Row (ic, iy, q) holds phase q of
/// input row iy: element j is in[ic][iy][j * stride + q - pad], or 0.0f
/// where that falls in the padding. Tap fx of output column ox is then
/// element ox + fx / stride of phase fx % stride, so every tap of an
/// 8-lane tile is one contiguous vector load.
struct TapLayout {
  std::int64_t f, stride, pad;
  std::int64_t h;        ///< input rows per channel
  std::int64_t phases;   ///< the stride when staged, 1 in place
  std::int64_t row_len;  ///< floats per row
  /// The taps are the input rows themselves: with stride 1, no padding
  /// and full 8-lane tiles (see ForEachTile), no tap leaves its row.
  bool in_place;
  std::vector<std::int64_t> tap_off;  ///< fx -> tap offset from its row

  std::int64_t ChannelFloats() const { return h * phases * row_len; }
};

/// The tap layout of a conv over [h, w] input planes with `out_w` outputs
/// per row. A staged row is long enough for the last tile, which starts
/// at max(out_w, 8) - 8, plus its taps' reach of (f - 1) / stride.
TapLayout MakeTapLayout(std::int64_t f, std::int64_t stride, std::int64_t pad,
                        std::int64_t h, std::int64_t w, std::int64_t out_w) {
  const bool in_place = stride == 1 && pad == 0 && out_w >= kLanes;
  TapLayout t{f,
              stride,
              pad,
              h,
              in_place ? 1 : stride,
              in_place ? w : std::max(out_w, kLanes) + (f - 1) / stride,
              in_place,
              std::vector<std::int64_t>(f)};
  for (std::int64_t fx = 0; fx < f; ++fx) {
    t.tap_off[fx] = (fx % stride) * t.row_len + fx / stride;
  }
  return t;
}

/// Writes one channel's rows (TapLayout) from its [h, w] input plane.
void StagePlane(const float* plane, std::int64_t w, const TapLayout& t,
                float* dst) {
  for (std::int64_t iy = 0; iy < t.h; ++iy) {
    const float* src = plane + iy * w;
    for (std::int64_t q = 0; q < t.stride; ++q, dst += t.row_len) {
      for (std::int64_t j = 0; j < t.row_len; ++j) {
        const std::int64_t ix = j * t.stride + q - t.pad;
        dst[j] = (ix >= 0 && ix < w) ? src[ix] : 0.0f;
      }
    }
  }
}

/// Accumulates the 8-lane tile at output row oy, columns ox..ox+7, of B
/// output channels whose filters start at wk[0..B). Each lane adds its
/// terms in the scalar oracle's (ic, fy, fx) order and skips the rows the
/// scalar loop skips; a padded column tap adds a +-0 product, a bitwise
/// no-op (see the header comment).
template <int B>
std::array<V8f, B> AccumulateTile(const float* rows, const TapLayout& t,
                                  const float* const (&wk)[B], std::int64_t c1,
                                  std::int64_t oy, std::int64_t ox) {
  // Accumulate in a local array whose address never escapes, so it stays
  // in registers; the caller's copy is stored from. The layout is copied
  // into locals too, so it is not reloaded after every store.
  V8f acc[B] = {};
  const std::int64_t f = t.f, h = t.h, row_step = t.phases * t.row_len;
  const std::int64_t* tap_off = t.tap_off.data();
  for (std::int64_t ic = 0; ic < c1; ++ic) {
    for (std::int64_t fy = 0; fy < f; ++fy) {
      const std::int64_t iy = oy * t.stride + fy - t.pad;
      if (iy < 0 || iy >= h) continue;
      const float* row = rows + (ic * h + iy) * row_step + ox;
      const std::int64_t wo = (ic * f + fy) * f;
      for (std::int64_t fx = 0; fx < f; ++fx) {
        const V8f taps = LoadV8(row + tap_off[fx]);
        for (int j = 0; j < B; ++j) {
          acc[j] += taps * BroadcastV8(wk[j][wo + fx]);
        }
      }
    }
  }
  std::array<V8f, B> out;
  for (int j = 0; j < B; ++j) out[j] = acc[j];
  return out;
}

/// Visits the 8-lane tiles of an output row. A row narrower than 8 is one
/// partial tile; otherwise the last tile is clamped to end at the row's
/// end (recomputing a few outputs bit-identically), so every tile stores
/// whole and no tap load runs past its row.
template <typename Fn>
void ForEachTile(std::int64_t out_w, const Fn& fn) {
  const std::int64_t n = std::min(kLanes, out_w);
  for (std::int64_t ox = 0; ox < out_w; ox += kLanes) {
    fn(std::min(ox, out_w - n), n);
  }
}

/// Bias + activation + store for one 8-lane tile of outputs, applied
/// per lane with the same scalar ApplyActivation as the oracle.
inline void StoreLanes(float* dst, std::int64_t n, const V8f& acc,
                       const float* bias, Activation act) {
  alignas(32) float tmp[kLanes];
  std::memcpy(tmp, &acc, sizeof(tmp));
  for (std::int64_t l = 0; l < n; ++l) {
    float v = tmp[l];
    if (bias != nullptr) v += *bias;
    dst[l] = ApplyActivation(act, v);
  }
}

#endif  // CLFLOW_CPU_SIMD

}  // namespace

Tensor Conv2dScalar(const Tensor& input, const Tensor& weights,
                    const Tensor& bias, const Conv2dParams& params,
                    int num_threads) {
  const auto [c1, h1, w1, k, f, h2, w2] =
      CheckConv2dShapes(input, weights, bias, params);

  Tensor out(Shape{1, k, h2, w2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;

  ParallelFor(0, k, num_threads, [&](std::int64_t oc) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        float acc = 0.0f;
        for (std::int64_t ic = 0; ic < c1; ++ic) {
          for (std::int64_t fy = 0; fy < f; ++fy) {
            const std::int64_t iy = oy * s + fy - p;
            if (iy < 0 || iy >= h1) continue;
            const float* in_row = in.data() + (ic * h1 + iy) * w1;
            const float* w_row = w.data() + ((oc * c1 + ic) * f + fy) * f;
            for (std::int64_t fx = 0; fx < f; ++fx) {
              const std::int64_t ix = ox * s + fx - p;
              if (ix < 0 || ix >= w1) continue;
              acc += in_row[ix] * w_row[fx];
            }
          }
        }
        if (b != nullptr) acc += b[oc];
        o[(oc * h2 + oy) * w2 + ox] = ApplyActivation(act, acc);
      }
    }
  });
  return out;
}

Tensor Conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
              const Conv2dParams& params, int num_threads) {
#if !CLFLOW_CPU_SIMD
  return Conv2dScalar(input, weights, bias, params, num_threads);
#else
  const auto [c1, h1, w1, k, f, h2, w2] =
      CheckConv2dShapes(input, weights, bias, params);

  Tensor out(Shape{1, k, h2, w2});
  const float* in = input.data().data();
  const float* w = weights.data().data();
  float* o = out.data().data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;

  // A stride-1 unpadded 1x1 conv maps H*W contiguous input pixels to H*W
  // contiguous outputs, so it runs as one flat row per plane: only the
  // plane's last tile is clamped, however narrow the rows are.
  const bool flat = f == 1 && s == 1 && p == 0;
  const std::int64_t in_h = flat ? 1 : h1, in_w = flat ? h1 * w1 : w1;
  const std::int64_t out_h = flat ? 1 : h2, out_w = flat ? h2 * w2 : w2;

  // Stage the input once per call (the only extra dispatch) unless the
  // taps can be read in place.
  const TapLayout t = MakeTapLayout(f, s, p, in_h, in_w, out_w);
  const float* rows = in;
  std::vector<float> staged;
  if (!t.in_place) {
    staged.resize(static_cast<std::size_t>(c1 * t.ChannelFloats()));
    ParallelFor(0, c1, num_threads, [&](std::int64_t ic) {
      StagePlane(in + ic * in_h * in_w, in_w, t,
                 staged.data() + ic * t.ChannelFloats());
    });
    rows = staged.data();
  }

  // One item per (block of kConvBlock output channels, output row). A
  // tail block's missing channels reuse its first channel's filters: they
  // are computed but never stored.
  const std::int64_t blocks = (k + kConvBlock - 1) / kConvBlock;
  ParallelFor(0, blocks * out_h, num_threads, [&](std::int64_t item) {
    const std::int64_t oc0 = item / out_h * kConvBlock;
    const std::int64_t oy = item % out_h;
    const std::int64_t nb = std::min<std::int64_t>(kConvBlock, k - oc0);
    const float* wk[kConvBlock];
    for (int j = 0; j < kConvBlock; ++j) {
      wk[j] = w + (oc0 + (j < nb ? j : 0)) * c1 * f * f;
    }
    ForEachTile(out_w, [&](std::int64_t ox, std::int64_t n) {
      const auto acc = AccumulateTile(rows, t, wk, c1, oy, ox);
      for (std::int64_t j = 0; j < nb; ++j) {
        StoreLanes(o + ((oc0 + j) * out_h + oy) * out_w + ox, n, acc[j],
                   b != nullptr ? b + oc0 + j : nullptr, act);
      }
    });
  });
  return out;
#endif
}

Tensor DepthwiseConv2dScalar(const Tensor& input, const Tensor& weights,
                             const Tensor& bias, const Conv2dParams& params,
                             int num_threads) {
  const auto [c, h1, w1, f, h2, w2] =
      CheckDepthwiseShapes(input, weights, bias, params);

  Tensor out(Shape{1, c, h2, w2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;

  ParallelFor(0, c, num_threads, [&](std::int64_t ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        float acc = 0.0f;
        for (std::int64_t fy = 0; fy < f; ++fy) {
          const std::int64_t iy = oy * s + fy - p;
          if (iy < 0 || iy >= h1) continue;
          const float* in_row = in.data() + (ch * h1 + iy) * w1;
          const float* w_row = w.data() + (ch * f + fy) * f;
          for (std::int64_t fx = 0; fx < f; ++fx) {
            const std::int64_t ix = ox * s + fx - p;
            if (ix < 0 || ix >= w1) continue;
            acc += in_row[ix] * w_row[fx];
          }
        }
        if (b != nullptr) acc += b[ch];
        o[(ch * h2 + oy) * w2 + ox] = ApplyActivation(act, acc);
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2d(const Tensor& input, const Tensor& weights,
                       const Tensor& bias, const Conv2dParams& params,
                       int num_threads) {
#if !CLFLOW_CPU_SIMD
  return DepthwiseConv2dScalar(input, weights, bias, params, num_threads);
#else
  const auto [c, h1, w1, f, h2, w2] =
      CheckDepthwiseShapes(input, weights, bias, params);

  Tensor out(Shape{1, c, h2, w2});
  const float* in = input.data().data();
  const float* w = weights.data().data();
  float* o = out.data().data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;

  // Each channel reads only its own plane, so each worker stages one
  // channel at a time into its own buffer.
  const TapLayout t = MakeTapLayout(f, s, p, h1, w1, w2);
  ParallelChunks(0, c, num_threads, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> staged(
        static_cast<std::size_t>(t.in_place ? 0 : t.ChannelFloats()));
    for (std::int64_t ch = lo; ch < hi; ++ch) {
      const float* rows = in + ch * h1 * w1;
      if (!t.in_place) {
        StagePlane(rows, w1, t, staged.data());
        rows = staged.data();
      }
      const float* const wk[1] = {w + ch * f * f};
      for (std::int64_t oy = 0; oy < h2; ++oy) {
        ForEachTile(w2, [&](std::int64_t ox, std::int64_t n) {
          const auto acc = AccumulateTile(rows, t, wk, /*c1=*/1, oy, ox);
          StoreLanes(o + (ch * h2 + oy) * w2 + ox, n, acc[0],
                     b != nullptr ? b + ch : nullptr, act);
        });
      }
    }
  });
  return out;
#endif
}

Tensor DenseScalar(const Tensor& input, const Tensor& weights,
                   const Tensor& bias, Activation activation,
                   int num_threads) {
  const auto [c1, c2] = CheckDenseShapes(input, weights, bias);

  Tensor out(Shape{1, c2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;

  ParallelFor(0, c2, num_threads, [&](std::int64_t j) {
    const float* w_row = w.data() + j * c1;
    float acc = 0.0f;
    for (std::int64_t i = 0; i < c1; ++i) acc += in[static_cast<std::size_t>(i)] * w_row[i];
    if (b != nullptr) acc += b[j];
    o[static_cast<std::size_t>(j)] = ApplyActivation(activation, acc);
  });
  return out;
}

Tensor Dense(const Tensor& input, const Tensor& weights, const Tensor& bias,
             Activation activation, int num_threads) {
#if !CLFLOW_CPU_SIMD
  return DenseScalar(input, weights, bias, activation, num_threads);
#else
  const auto [c1, c2] = CheckDenseShapes(input, weights, bias);

  Tensor out(Shape{1, c2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;

  // Lane-per-output-neuron: 8 weight rows walk forward together, sharing
  // one broadcast of in[i] per step. This also breaks the scalar
  // version's single add-latency chain: one vector chain now carries 8
  // outputs.
  const std::int64_t blocks = (c2 + kLanes - 1) / kLanes;
  ParallelFor(0, blocks, num_threads, [&](std::int64_t blk) {
    const std::int64_t j0 = blk * kLanes;
    const std::int64_t n = std::min<std::int64_t>(kLanes, c2 - j0);
    if (n == kLanes) {
      const float* r0 = w.data() + (j0 + 0) * c1;
      const float* r1 = w.data() + (j0 + 1) * c1;
      const float* r2 = w.data() + (j0 + 2) * c1;
      const float* r3 = w.data() + (j0 + 3) * c1;
      const float* r4 = w.data() + (j0 + 4) * c1;
      const float* r5 = w.data() + (j0 + 5) * c1;
      const float* r6 = w.data() + (j0 + 6) * c1;
      const float* r7 = w.data() + (j0 + 7) * c1;
      V8f acc = BroadcastV8(0.0f);
      for (std::int64_t i = 0; i < c1; ++i) {
        const V8f wv = {{r0[i], r1[i], r2[i], r3[i]},
                      {r4[i], r5[i], r6[i], r7[i]}};
        acc += BroadcastV8(in[static_cast<std::size_t>(i)]) * wv;
      }
      alignas(32) float tmp[kLanes];
      std::memcpy(tmp, &acc, sizeof(tmp));
      for (std::int64_t l = 0; l < kLanes; ++l) {
        float v = tmp[l];
        if (b != nullptr) v += b[j0 + l];
        o[static_cast<std::size_t>(j0 + l)] = ApplyActivation(activation, v);
      }
    } else {
      for (std::int64_t j = j0; j < j0 + n; ++j) {
        const float* w_row = w.data() + j * c1;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < c1; ++i) {
          acc += in[static_cast<std::size_t>(i)] * w_row[i];
        }
        if (b != nullptr) acc += b[j];
        o[static_cast<std::size_t>(j)] = ApplyActivation(activation, acc);
      }
    }
  });
  return out;
#endif
}

namespace {

template <typename Reduce>
Tensor Pool2dImpl(const Tensor& input, const PoolParams& params,
                  int num_threads, Reduce reduce, bool average) {
  CheckNchw(input, "pool input");
  const std::int64_t c = input.shape().channels();
  const std::int64_t h1 = input.shape().height();
  const std::int64_t w1 = input.shape().width();
  const std::int64_t f = params.window;
  const std::int64_t h2 = ConvOutDim(h1, f, params.stride, params.pad);
  const std::int64_t w2 = ConvOutDim(w1, f, params.stride, params.pad);

  Tensor out(Shape{1, c, h2, w2});
  const auto in = input.data();
  auto o = out.data();

  ParallelFor(0, c, num_threads, [&](std::int64_t ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        float acc = average ? 0.0f : -std::numeric_limits<float>::infinity();
        std::int64_t count = 0;
        for (std::int64_t fy = 0; fy < f; ++fy) {
          const std::int64_t iy = oy * params.stride + fy - params.pad;
          if (iy < 0 || iy >= h1) continue;
          for (std::int64_t fx = 0; fx < f; ++fx) {
            const std::int64_t ix = ox * params.stride + fx - params.pad;
            if (ix < 0 || ix >= w1) continue;
            acc = reduce(acc, in[(ch * h1 + iy) * w1 + ix]);
            ++count;
          }
        }
        if (average && count > 0) acc /= static_cast<float>(count);
        o[(ch * h2 + oy) * w2 + ox] = acc;
      }
    }
  });
  return out;
}

}  // namespace

Tensor MaxPool2d(const Tensor& input, const PoolParams& params,
                 int num_threads) {
  return Pool2dImpl(
      input, params, num_threads,
      [](float a, float b) { return std::max(a, b); }, /*average=*/false);
}

Tensor AvgPool2d(const Tensor& input, const PoolParams& params,
                 int num_threads) {
  return Pool2dImpl(
      input, params, num_threads, [](float a, float b) { return a + b; },
      /*average=*/true);
}

Tensor Pad2d(const Tensor& input, std::int64_t pad) {
  CheckNchw(input, "pad input");
  CLFLOW_CHECK_MSG(pad >= 0, "negative padding");
  if (pad == 0) return input;
  const std::int64_t c = input.shape().channels();
  const std::int64_t h1 = input.shape().height();
  const std::int64_t w1 = input.shape().width();
  Tensor out(Shape{1, c, h1 + 2 * pad, w1 + 2 * pad});
  const auto in = input.data();
  auto o = out.data();
  const std::int64_t h2 = h1 + 2 * pad;
  const std::int64_t w2 = w1 + 2 * pad;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < h1; ++y) {
      const float* src = in.data() + (ch * h1 + y) * w1;
      float* dst = o.data() + (ch * h2 + y + pad) * w2 + pad;
      std::copy(src, src + w1, dst);
    }
  }
  return out;
}

Tensor Activate(const Tensor& input, Activation activation) {
  Tensor out = input.Clone();
  for (auto& v : out.data()) v = ApplyActivation(activation, v);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b, Activation activation) {
  if (a.shape() != b.shape()) {
    throw ShapeError("residual add shape mismatch: " + a.shape().ToString() +
                     " vs " + b.shape().ToString());
  }
  Tensor out(a.shape());
  const auto da = a.data(), db = b.data();
  auto o = out.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    o[i] = ApplyActivation(activation, da[i] + db[i]);
  return out;
}

Tensor Softmax(const Tensor& input) {
  CLFLOW_CHECK_MSG(input.defined() && input.size() > 0, "softmax on empty");
  Tensor out(input.shape());
  const auto in = input.data();
  auto o = out.data();
  // Max-subtraction for numerical stability, as TVM does (§2.1.2).
  const float max_v = *std::max_element(in.begin(), in.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < in.size(); ++i) {
    o[i] = std::exp(in[i] - max_v);
    sum += o[i];
  }
  for (auto& v : o) v /= sum;
  return out;
}

FoldedBatchNorm FoldBatchNorm(const Tensor& weights, const Tensor& bias,
                              const Tensor& gamma, const Tensor& beta,
                              const Tensor& mean, const Tensor& variance,
                              float epsilon) {
  const std::int64_t k = weights.shape()[0];
  for (const Tensor* t : {&gamma, &beta, &mean, &variance}) {
    if (t->size() != k) throw ShapeError("batch norm parameter size mismatch");
  }
  FoldedBatchNorm folded;
  folded.weights = weights.Clone();
  folded.bias = bias.defined() ? bias.Clone() : Tensor(Shape{k});

  const std::int64_t per_filter = weights.size() / k;
  auto w = folded.weights.data();
  auto b = folded.bias.data();
  const auto g = gamma.data(), bt = beta.data(), mu = mean.data(),
             var = variance.data();
  for (std::int64_t oc = 0; oc < k; ++oc) {
    const auto i = static_cast<std::size_t>(oc);
    const float scale = g[i] / std::sqrt(var[i] + epsilon);
    for (std::int64_t j = 0; j < per_filter; ++j) {
      w[static_cast<std::size_t>(oc * per_filter + j)] *= scale;
    }
    b[i] = (b[i] - mu[i]) * scale + bt[i];
  }
  return folded;
}

}  // namespace clflow::cpu

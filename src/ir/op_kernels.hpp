// Operator compute definitions and schedules.
//
// Builders construct scheduled kernels for every CNN operator the paper
// deploys, in both the naive form TVM's default HLS schedule produces
// (Listings 5.1/5.5/5.7: global-memory scratchpads, separate writeback
// loops, no unrolling) and the optimized forms of SS5.1 (fused activation,
// private-register accumulators, filter-loop unrolling, multi-dimensional
// tiling, read caches, channel I/O, symbolic shapes with stride pinning).
//
// Each builder is the one definition of its operator: the schedule struct
// it takes (ConvSchedule, DenseSchedule, ...) selects every optimization a
// recipe applies, and test_ir_kernels runs the naive and optimized forms
// through the IR interpreter against the CPU reference operators.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/activation.hpp"
#include "ir/stmt.hpp"

namespace clflow::ir {

/// Channel endpoints replacing global-memory activation I/O for pipelined
/// execution (SS4.6). Null pointers mean global-memory I/O.
struct ChannelIO {
  BufferPtr input;
  BufferPtr output;
};

/// A kernel plus its buffer roles (for host binding) and symbolic shape
/// parameters (for folded execution).
struct BuiltKernel {
  Kernel kernel;
  BufferPtr input;      ///< activations in (null when read from a channel)
  BufferPtr input2;     ///< second operand of residual add
  BufferPtr weights;    ///< null for weightless ops
  BufferPtr bias;       ///< null when the op has no bias
  BufferPtr output;     ///< activations out (null when written to a channel)
  /// Naive schedules' global scratchpads (TVM allocates workspaces in
  /// global memory); the host must bind storage for each.
  std::vector<BufferPtr> workspaces;
  /// Symbolic shape parameters by role: "C1" (input channels), "K"
  /// (filters), "HW" (input spatial extent), "N" (flat length); plus the
  /// stride arguments of symbolic buffers ("<buffer>_s<dim>").
  std::unordered_map<std::string, VarPtr> params;
};

// ---------------------------------------------------------------------------
// Convolution (standard and depthwise), SS5.1.1.

struct ConvSpec {
  std::int64_t c1 = 1;      ///< input channels
  std::int64_t h1 = 1;      ///< input height (pre-padded; kernels assume P=0)
  std::int64_t w1 = 1;      ///< input width
  std::int64_t k = 1;       ///< filters / output channels
  std::int64_t f = 3;       ///< filter size
  std::int64_t stride = 1;
  bool depthwise = false;   ///< weights [C,1,F,F] applied per channel
  bool has_bias = true;
  Activation activation = Activation::kNone;
};

struct ConvSchedule {
  /// Fuse the activation/bias into the compute loop (removes the separate
  /// writeback loop and its scratchpad dependence). Requires cached_writes.
  bool fuse_activation = false;
  /// Accumulate in private registers instead of a global scratchpad.
  bool cached_writes = false;
  /// Fully unroll the ry/rx filter loops.
  bool unroll_filter = false;
  /// Tiling/unrolling factors (1 = untiled): C1vec, W2vec, C2vec.
  std::int64_t tile_c1 = 1;
  std::int64_t tile_w2 = 1;
  std::int64_t tile_c2 = 1;
  /// Stage weights into a local BRAM cache before computing.
  bool weight_cache = false;
  /// Parameterized kernel: C1, K, HW become symbolic arguments and buffers
  /// carry symbolic strides (SS5.3).
  bool symbolic = false;
  /// Bind the innermost stride arguments to 1 (Listing 5.11) so AOC can
  /// coalesce; only meaningful with `symbolic`.
  bool pin_strides = false;
};

[[nodiscard]] BuiltKernel BuildConv2dKernel(const ConvSpec& spec,
                                            const ConvSchedule& sched,
                                            const std::string& name,
                                            const ChannelIO& io = {});

// ---------------------------------------------------------------------------
// Fully-connected, SS5.1.2.

struct DenseSpec {
  std::int64_t c1 = 1;
  std::int64_t c2 = 1;
  bool has_bias = true;
  Activation activation = Activation::kNone;
};

struct DenseSchedule {
  bool cached_writes = false;  ///< private dot-product accumulator
  std::int64_t unroll_k = 1;   ///< strip-mine + unroll factor on the k loop
  bool input_cache = false;    ///< stage the input vector into local BRAM
};

[[nodiscard]] BuiltKernel BuildDenseKernel(const DenseSpec& spec,
                                           const DenseSchedule& sched,
                                           const std::string& name,
                                           const ChannelIO& io = {});

// ---------------------------------------------------------------------------
// Pooling.

struct PoolSpec {
  std::int64_t c = 1;
  std::int64_t h1 = 1;
  std::int64_t w1 = 1;
  std::int64_t f = 2;
  std::int64_t stride = 2;
  bool is_max = true;  ///< false = average pooling
};

struct PoolSchedule {
  bool optimized = false;  ///< private accumulator + unrolled window
};

[[nodiscard]] BuiltKernel BuildPoolKernel(const PoolSpec& spec,
                                          const PoolSchedule& sched,
                                          const std::string& name,
                                          const ChannelIO& io = {});

// ---------------------------------------------------------------------------
// Softmax, SS5.1.3.

struct SoftmaxSpec {
  std::int64_t n = 1;
};

/// optimized = false reproduces Listing 5.7 (invariant max/sum recomputed
/// per output, global workspaces); true reproduces Listing 5.8.
[[nodiscard]] BuiltKernel BuildSoftmaxKernel(const SoftmaxSpec& spec,
                                             bool optimized,
                                             const std::string& name,
                                             const ChannelIO& io = {});

// ---------------------------------------------------------------------------
// Zero padding. TVM's generated padding kernel uses flattened div/mod
// addressing and a select -- cheap on CPUs, hostile to AOC (SS6.3.2). The
// builder reproduces exactly that shape; there is deliberately no optimized
// variant (Table 4.1 applies no optimizations to padding).

struct PadSpec {
  std::int64_t c = 1;
  std::int64_t h1 = 1;
  std::int64_t w1 = 1;
  std::int64_t pad = 1;
  bool symbolic = false;  ///< C and HW symbolic (folded execution)
};

[[nodiscard]] BuiltKernel BuildPadKernel(const PadSpec& spec,
                                         const std::string& name,
                                         const ChannelIO& io = {});

// ---------------------------------------------------------------------------
// Residual addition (ResNet shortcuts; fused with ReLU).

struct AddSpec {
  std::int64_t n = 1;  ///< flat element count
  Activation activation = Activation::kNone;
  bool symbolic = false;
};

[[nodiscard]] BuiltKernel BuildAddKernel(const AddSpec& spec,
                                         std::int64_t unroll,
                                         const std::string& name);

// ---------------------------------------------------------------------------
// Flat copy (flatten layers / channel pass-through).

[[nodiscard]] BuiltKernel BuildCopyKernel(std::int64_t n,
                                          const std::string& name,
                                          const ChannelIO& io = {});

}  // namespace clflow::ir

// Schedule primitives as IR -> IR rewrites.
//
// Every shipped kernel is built in its scheduled form by the parameterized
// builders of ir/op_kernels.hpp; their schedule structs (ConvSchedule,
// DenseSchedule, ...) are the one place a recipe's optimizations live. The
// rewrites here are the two that apply to an already-built kernel:
//
//   * SplitLoop         - strip mining / tiling (SS4.2), for operators
//                         written outside the builders
//   * PinStrideVars     - bind symbolic strides to 1 so AOC can coalesce
//                         accesses of parameterized kernels (SS5.3)
//
// Each primitive validates applicability and throws ScheduleError on
// illegal use; semantics preservation is tested against the IR interpreter.
// The compile gate verifies the finished kernel (analysis::VerifyKernel).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/stmt.hpp"

namespace clflow::ir {

/// Finds the (unique) For statement binding `var_name` in the tree;
/// throws ScheduleError if absent.
[[nodiscard]] Stmt FindLoop(const Stmt& root, const std::string& var_name);

/// Strip-mines the loop named `var_name` by `factor` into an outer loop
/// `<name>_o` and an inner loop `<name>_i` (body index rewritten to
/// outer*factor + inner). The loop extent must be a constant evenly
/// divisible by the factor -- the paper explicitly avoids epilogue loops
/// (SS4.11 requirement 2). When `vectorize_inner` is set, the inner loop is
/// annotated for full unrolling, which is how tiling feeds vectorization in
/// the thesis schedules.
[[nodiscard]] Stmt SplitLoop(const Stmt& root, const std::string& var_name,
                             std::int64_t factor, bool vectorize_inner = true);

/// Binds every shape-parameter variable named in `vars` to the constant 1
/// throughout the kernel (the stride-pinning workaround of Listing 5.11).
void PinStrideVars(Kernel& kernel, const std::vector<std::string>& vars);

/// Simplifies all expressions in a statement tree (constant folding).
[[nodiscard]] Stmt SimplifyStmt(const Stmt& root);

}  // namespace clflow::ir

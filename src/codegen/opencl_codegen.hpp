// OpenCL C code generation.
//
// Emits Intel-FPGA-flavoured OpenCL C from scheduled kernels: the .cl
// source that the paper feeds to AOC. The emitted text mirrors the
// thesis's listings -- #pragma unroll for annotated loops, channel
// declarations with depth attributes, autorun/max_global_work_dim
// attributes, restrict-qualified global pointers, and int arguments for
// symbolic shapes/strides. aocsim consumes the IR directly; the generated
// source exists so the flow is inspectable end-to-end and is verified by
// golden tests.
#pragma once

#include <string>
#include <vector>

#include "ir/stmt.hpp"

namespace clflow::codegen {

/// Emits one kernel definition (no channel declarations). Buffers the
/// kernel never stores to are const-qualified.
[[nodiscard]] std::string EmitKernel(const ir::Kernel& kernel);

/// Emits a full .cl translation unit: the cl_intel_channels extension
/// pragma and channel declarations (deduplicated across kernels) when any
/// kernel uses channels, then every kernel.
[[nodiscard]] std::string EmitProgram(
    const std::vector<const ir::Kernel*>& kernels);

/// Emits a single expression (exposed for tests).
[[nodiscard]] std::string EmitExpr(const ir::Expr& expr);

/// The OpenCL C spelling of a scalar type ("float" / "int"). Shared by
/// the kernel emitter and the program-level channel declarations so every
/// emission site agrees on the dtype mapping.
[[nodiscard]] std::string_view ClTypeName(ir::ScalarType t);

}  // namespace clflow::codegen

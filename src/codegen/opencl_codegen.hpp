// OpenCL C code generation.
//
// Builds Intel-FPGA-flavoured OpenCL C from scheduled kernels: the .cl
// source that the paper feeds to AOC. The code mirrors the thesis's
// listings -- #pragma unroll for annotated loops, channel declarations
// with depth attributes, autorun/max_global_work_dim attributes,
// restrict-qualified global pointers, and int arguments for symbolic
// shapes/strides.
//
// The emitter builds a source tree (codegen/ast.hpp), which the compile
// gate lints directly; srclint::ToSource is the one printer. aocsim
// consumes the IR directly; the source exists so the flow is inspectable
// end-to-end and is verified by golden tests.
#pragma once

#include <string>
#include <vector>

#include "codegen/ast.hpp"
#include "ir/stmt.hpp"

namespace clflow::codegen {

/// Builds one kernel definition (no channel declarations). Buffers the
/// kernel never stores to are const-qualified.
[[nodiscard]] srclint::SrcKernel BuildKernel(const ir::Kernel& kernel);

/// Builds a full .cl translation unit: the cl_intel_channels extension
/// pragma and one declaration per channel of ir::ProgramChannels (by name,
/// in first-use order) when any kernel uses channels, then every kernel.
/// Throws IrError when one channel name carries two types or depths.
[[nodiscard]] srclint::SrcProgram BuildProgram(
    const std::vector<const ir::Kernel*>& kernels);

/// BuildKernel(kernel), printed alone.
[[nodiscard]] std::string EmitKernel(const ir::Kernel& kernel);

/// ToSource(BuildProgram(kernels)).
[[nodiscard]] std::string EmitProgram(
    const std::vector<const ir::Kernel*>& kernels);

}  // namespace clflow::codegen

// OpenCL host-program generation.
//
// The paper implements a custom OpenCL C++ host program (SS5.2) with:
// parameter/buffer loading, toggleable event profiling via macros, kernel
// re-use across layers with per-layer arguments, one command queue per
// kernel for concurrent execution, asynchronous enqueues, and output
// verification hooks. EmitHostProgram generates exactly that program for
// a compiled deployment -- the .cpp a user would build against the real
// Intel OpenCL SDK to drive the board the simulation models.
#pragma once

#include <string>

#include "core/deployment.hpp"

namespace clflow::core {

/// The host program loads the bitstream from "network.aocx".
[[nodiscard]] std::string EmitHostProgram(const Deployment& deployment);

}  // namespace clflow::core

// The IR verifier: post-schedule well-formedness and safety checks over
// scheduled kernels (tentpole layer 2 of clflow-verify).
//
// The memory-safety checks are the access model's (access_model.hpp):
// this file is its IR front end, walking the statement tree into an
// AccessStream and wording the engine's findings. srclint words the same
// findings for the emitted source.
//
// VerifyKernel checks one scheduled kernel. The compile gate
// (core::Deployment::RunAnalysisGate) runs it on every finished kernel,
// after the builders and stride pinning, so each tree is verified once.
// The tree checks:
//
//   * CLF102  buffer out-of-bounds: the engine's corner-interval rule,
//             reported where it is proven over constant loop boxes and
//             constant extents, so it catches illegal tilings without
//             false positives; guarded accesses (inside Select arms or If
//             bodies, e.g. the padding kernels) are skipped.
//   * CLF103  cross-lane dependences in unrolled/vectorized loops: a
//             store and a load of one buffer whose elements coincide for
//             two different lanes, enclosing loops at their first
//             iteration and any other shared term (an inner loop's
//             variable, a shape parameter) cancelling. Reductions (store
//             and load of the same element) are legal -- AOC builds adder
//             trees for them -- and are excluded.
//   * CLF105  unroll/vectorize annotations on non-constant extents, which
//             AOC refuses to compile.
//
// and the signature-dependent checks:
//
//   * CLF101  def-before-use: every variable must be bound by an
//             enclosing loop or declared as a scalar argument.
//   * CLF104  scope violations: stores to read-only constant buffers,
//             indexed access to channel-scope buffers, channel intrinsics
//             on non-channel buffers (plus everything Kernel::Validate
//             rejects, converted to a diagnostic).
//   * CLF106  loads from on-chip (local/private) buffers that no store
//             ever initializes.
//
// It returns the number of error-severity diagnostics added, so the gate
// can abort precisely when a kernel is broken.
#pragma once

#include "analysis/access_model.hpp"
#include "analysis/diag.hpp"
#include "ir/stmt.hpp"

namespace clflow::analysis {

[[nodiscard]] int VerifyKernel(const ir::Kernel& kernel,
                               DiagnosticEngine& engine);

/// The access stream behind VerifyKernel's CLF102/103/106: the IR front
/// end of the access model, for comparing with srclint's.
[[nodiscard]] AccessStream KernelAccessStream(const ir::Kernel& kernel);

}  // namespace clflow::analysis

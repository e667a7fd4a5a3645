// Tensor IR interpreter.
//
// Executes kernels directly on host memory. Slow by construction (an AST
// walk per element), so it is used for semantics verification: the
// schedule-primitive tests check that transformed IR computes the same
// values as the untransformed IR and the CPU reference operators. The
// full-network benches use the compiled reference operators for functional
// execution and the AOC model for timing (see DESIGN.md).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>

#include "ir/stmt.hpp"

namespace clflow::ir {

/// Execution environment: backing storage for buffers, values for symbolic
/// shape parameters, and channel FIFO state (shared across kernels so a
/// pipelined group can be run producer-first). A channel's FIFO is keyed
/// by its name, its only identity: producer and consumer may hold
/// distinct channel objects.
class InterpEnv {
 public:
  /// Binds a buffer to host storage. The span must outlive execution and
  /// be large enough for the buffer's (bound) shape.
  void BindBuffer(const BufferPtr& buffer, std::span<float> storage);

  /// Binds a symbolic shape parameter.
  void BindVar(const VarPtr& var, std::int64_t value);

  [[nodiscard]] std::span<float> storage(const BufferNode* buffer) const;
  [[nodiscard]] bool HasBuffer(const BufferNode* buffer) const;
  [[nodiscard]] std::int64_t var_value(const VarNode* var) const;

  [[nodiscard]] std::deque<float>& channel(const std::string& name);
  /// Total elements currently queued across all channels (0 after a
  /// well-balanced pipelined run).
  [[nodiscard]] std::size_t PendingChannelElements() const;

 private:
  std::unordered_map<const BufferNode*, std::span<float>> buffers_;
  std::unordered_map<const VarNode*, std::int64_t> vars_;
  std::unordered_map<std::string, std::deque<float>> channels_;
};

/// Executes a kernel body against the environment. Kernel-local buffers are
/// allocated internally. Throws IrError on unbound buffers/vars or on a
/// read from an empty channel (which in hardware would deadlock -- running
/// kernels of a pipelined group in topological order avoids this).
void RunKernel(const Kernel& kernel, InterpEnv& env);

/// Evaluates a scalar expression (all loads resolved via env).
[[nodiscard]] double EvalScalar(const Expr& e, const InterpEnv& env);

}  // namespace clflow::ir

// Error handling primitives for clflow.
//
// The library reports unrecoverable usage errors (shape mismatches, invalid
// schedules, out-of-range arguments) with exceptions derived from
// clflow::Error. Conditions that a caller is expected to handle as part of
// normal operation -- most prominently synthesis "fit" and "route" failures,
// which the paper treats as data points rather than bugs -- are modelled as
// status values on the relevant result structs instead.
#pragma once

#include <stdexcept>
#include <string>

namespace clflow {

/// Base class for all clflow exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when tensor shapes or dtypes are inconsistent.
class ShapeError : public Error {
 public:
  explicit ShapeError(const std::string& what) : Error(what) {}
};

/// Thrown when a schedule primitive is applied illegally
/// (e.g. splitting a loop by a non-dividing factor without allowing tails).
///
/// what() starts with the "CLFxxx: " diagnostic code classifying the
/// failure (the CLF4xx family of analysis/codes.hpp), which
/// core::CompileWithFallback logs with each failed attempt. The string
/// constructor reports code CLF405.
class ScheduleError : public Error {
 public:
  explicit ScheduleError(const std::string& what)
      : ScheduleError("CLF405", what) {}
  ScheduleError(const std::string& code, const std::string& what)
      : Error(code + ": " + what) {}
};

/// Thrown when the static-analysis gate in Deployment::Compile finds
/// error-severity diagnostics; what() carries the rendered diagnostics.
class VerifyError : public Error {
 public:
  explicit VerifyError(const std::string& what) : Error(what) {}
};

/// Thrown on malformed IR (unbound variables, unknown buffers, ...).
class IrError : public Error {
 public:
  explicit IrError(const std::string& what) : Error(what) {}
};

/// Thrown on misuse of the simulated OpenCL runtime
/// (unset kernel arguments, reads from unwritten buffers, ...).
class RuntimeApiError : public Error {
 public:
  explicit RuntimeApiError(const std::string& what) : Error(what) {}
};

/// A structured runtime failure: a CLF5xx code plus the kernel/channel it
/// points at, a rendered queue-state snapshot taken when the fault was
/// detected, and the number of recovery attempts spent before giving up.
/// Derives from RuntimeApiError so callers that only distinguish
/// "runtime misuse" keep working; the diagnostics layer
/// (Deployment::Run) re-renders these uniformly with compile-time
/// findings.
class RuntimeFaultError : public RuntimeApiError {
 public:
  RuntimeFaultError(std::string code, const std::string& what,
                    std::string kernel = "", std::string channel = "",
                    std::string queue_snapshot = "", int attempts = 0)
      : RuntimeApiError(code + ": " + what),
        code_(std::move(code)),
        kernel_(std::move(kernel)),
        channel_(std::move(channel)),
        queue_snapshot_(std::move(queue_snapshot)),
        attempts_(attempts) {}

  /// The "CLF5xx" diagnostic code classifying this fault.
  [[nodiscard]] const std::string& code() const { return code_; }
  [[nodiscard]] const std::string& kernel() const { return kernel_; }
  /// The stalled/violated channel ("" when not channel-related).
  [[nodiscard]] const std::string& channel() const { return channel_; }
  /// Human-readable per-queue state at detection time.
  [[nodiscard]] const std::string& queue_snapshot() const {
    return queue_snapshot_;
  }
  /// Recovery attempts consumed before the fault was declared fatal.
  [[nodiscard]] int attempts() const { return attempts_; }

 private:
  std::string code_;
  std::string kernel_;
  std::string channel_;
  std::string queue_snapshot_;
  int attempts_ = 0;
};

namespace detail {
[[noreturn]] void ThrowCheckFailure(const char* file, int line,
                                    const char* expr, const std::string& msg);
}  // namespace detail

/// Internal invariant check. Unlike assert(), CLFLOW_CHECK is always active;
/// the simulator is a measurement instrument and silent corruption of a
/// result is worse than an abort.
#define CLFLOW_CHECK(expr)                                                    \
  do {                                                                        \
    if (!(expr)) [[unlikely]] {                                               \
      ::clflow::detail::ThrowCheckFailure(__FILE__, __LINE__, #expr, "");     \
    }                                                                         \
  } while (false)

#define CLFLOW_CHECK_MSG(expr, msg)                                           \
  do {                                                                        \
    if (!(expr)) [[unlikely]] {                                               \
      ::clflow::detail::ThrowCheckFailure(__FILE__, __LINE__, #expr, (msg));  \
    }                                                                         \
  } while (false)

}  // namespace clflow

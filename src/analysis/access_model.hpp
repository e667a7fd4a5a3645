// The access model: one engine behind the memory-safety checks of the IR
// verifier (CLF102/103/106) and of srclint (CLF805/806/808/809).
//
// A front end walks its own tree -- ir::Stmt in ir_verifier.cpp, the
// emitted SrcKernel in srclint/analyses.cpp -- into an AccessStream: the
// loop nest plus the memory accesses in execution order, each index an
// exact affine form over loop variables and symbolic parameters. Variables
// and arrays are ids the front end hands out (keyed by ir::VarNode* or by
// identifier). The engine proves each property once:
//
//   * CheckBounds: an index's iteration corners, with parameters >= 1,
//     against the declared extent;
//   * Dependences: one per-dimension equation between a write's and a
//     read's element, solved for a collision between the lanes of an
//     unrolled loop or for a constant loop-carried distance;
//   * CheckInit: one may-stored walk in execution order.
//
// Findings are structured; each front end words them in its own terms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace clflow::analysis {

/// constant + sum(coeff * var) over variable ids.
struct Affine {
  std::int64_t constant = 0;
  std::vector<std::pair<int, std::int64_t>> terms;  ///< sorted ids, no zeros

  [[nodiscard]] static Affine Const(std::int64_t c) { return {c, {}}; }
  [[nodiscard]] static Affine Var(int id) { return {0, {{id, 1}}}; }
  [[nodiscard]] bool IsConst() const { return terms.empty(); }
  friend bool operator==(const Affine&, const Affine&) = default;
};

/// nullopt: not affine (division, calls, loads, ...), or overflowed.
using MaybeAffine = std::optional<Affine>;

/// a + k * b; k * a; a * b when either side is a constant.
[[nodiscard]] MaybeAffine Sum(const MaybeAffine& a, const MaybeAffine& b,
                              std::int64_t k = 1);
[[nodiscard]] MaybeAffine Scale(const MaybeAffine& a, std::int64_t k);
[[nodiscard]] MaybeAffine Product(const MaybeAffine& a, const MaybeAffine& b);

struct AccessLoop {
  int var = -1;
  MaybeAffine lo, hi;      ///< inclusive range, over parameters only
  std::int64_t lanes = 0;  ///< > 1: unrolled, lanes run concurrently
  int parent = -1;         ///< enclosing loop, -1 at top level
  int depth = 0;           ///< number of enclosing loops
  std::size_t begin = 0, end = 0;  ///< the body's events
};

struct AccessEvent {
  enum Kind { kRead, kWrite, kIf, kElse, kEndIf } kind = kRead;
  int array = -1;
  std::vector<MaybeAffine> index;  ///< one form per dimension
  int loop = -1;   ///< innermost enclosing loop
  int guard = -1;  ///< loops around the innermost if/select arm; -1: none
  int loc = 0;     ///< the front end's token (srclint: the line)
};

/// One kernel's loop nest and memory accesses in execution order.
struct AccessStream {
  std::vector<std::string> vars;  ///< names, by id
  std::vector<std::string> arrays;
  std::vector<std::vector<MaybeAffine>> extents;  ///< by array; may be empty
  std::vector<AccessLoop> loops;                  ///< in pre-order
  std::vector<AccessEvent> events;

  [[nodiscard]] int AddVar(std::string name);
  [[nodiscard]] int AddArray(std::string name, std::vector<MaybeAffine> dims);
  /// [lo, hi] over enclosing loop variables and parameters.
  void BeginLoop(int var, const MaybeAffine& lo, const MaybeAffine& hi,
                 std::int64_t lanes = 0);
  void EndLoop();
  /// if (cond) then else: the branches are guarded.
  void If();
  void Else();
  void EndIf();
  /// Guards the accesses up to PopGuard (select/ternary arms).
  void PushGuard();
  void PopGuard();
  std::size_t Access(bool write, int array, std::vector<MaybeAffine> index,
                     int loc = 0);

  /// The loop being walked, -1 at top level.
  [[nodiscard]] int loop() const { return loop_; }
  /// The innermost loop around `loop` (itself included) binding `var`.
  [[nodiscard]] int Binder(int var, int loop) const;
  /// `a` with each loop variable of `loop`'s nest replaced by the end of
  /// its range that minimizes (or maximizes) it: a form over parameters
  /// only, attained by an iteration that occurs.
  [[nodiscard]] MaybeAffine ParamBound(const MaybeAffine& a, int loop,
                                       bool want_max) const;

 private:
  int loop_ = -1;
  std::vector<int> guards_;
};

/// One dimension of an access that is out of bounds for every parameter
/// valuation >= 1: below zero (`value`: the highest low end) or reaching
/// the extent (`value`: the smallest overshoot).
struct DimBound {
  std::size_t dim = 0;
  bool below = false;
  std::int64_t value = 0;
  MaybeAffine lo, hi;  ///< the index's range over parameters
};

/// Guarded accesses are never claimed: guards are how the emitter pads.
[[nodiscard]] std::vector<DimBound> CheckBounds(const AccessStream& stream,
                                                std::size_t event);

/// A write and a read of one array in a loop's body, the first such pair
/// per (loop, array).
struct DependencePair {
  int loop = -1;
  std::size_t write = 0, read = 0;
  std::int64_t distance = 0;  ///< read iteration (lane) - write iteration
};

enum class Dependence {
  /// Unrolled loops where one lane reads an element another lane writes,
  /// enclosing loops fixed at their first iteration. Pairs at the same
  /// element (reductions) are legal.
  kLaneCollision,
  /// Unguarded pairs where iteration v reads what v - distance wrote, one
  /// distance >= 1 for every dimension.
  kCarried,
};

[[nodiscard]] std::vector<DependencePair> Dependences(
    const AccessStream& stream, Dependence kind);

/// Per array, from one walk that carries the set of arrays some path has
/// stored to: an if's branches start from one set and join by union; a
/// loop body is walked once, which is exact because the set only grows.
struct InitState {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  bool read = false;
  std::size_t first_write = kNone;     ///< event index
  std::size_t unreached_read = kNone;  ///< lowest-loc read no store reaches
};

[[nodiscard]] std::vector<InitState> CheckInit(const AccessStream& stream);

}  // namespace clflow::analysis

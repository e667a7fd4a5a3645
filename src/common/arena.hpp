// Bump (arena) allocation and string interning for the compile path.
//
// The IR layer allocates hundreds of thousands of small, immutable
// `ExprNode`/`StmtNode` objects per compile (lowering builds them, every
// schedule pass copies them, Substitute/Simplify churn through them).
// Allocating each node with `make_shared` costs a malloc round-trip per
// node and scatters the tree across the heap; freeing a discarded
// candidate costs one free per node. The Arena replaces that with pointer
// bumps into large blocks: allocation is a few instructions, locality
// follows construction order, and the whole tree is released wholesale
// when the arena dies.
//
// Lifetime model: arena-backed nodes are created with `MakeArenaShared`,
// which uses `std::allocate_shared` with an allocator that *owns a
// `shared_ptr<Arena>`*. The control block keeps a copy of that allocator,
// so the arena outlives every node carved from it — even nodes that
// escape the compile that built them (the `CompileCache` memoizes whole
// kernels indefinitely). `deallocate` is a no-op; memory is reclaimed
// when the last node of an arena drops its reference and the arena's
// blocks are freed in one shot.
//
// Scoping: `ArenaScope` installs a thread-local "current arena"; while a
// scope is active, `ir::` node constructors allocate from it. Without a
// scope they fall back to `make_shared`, so code that builds IR outside a
// compile (tests, examples) is unaffected. Scopes nest and are strictly
// per-thread — parallel DSE workers each install their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace clflow::common {

/// FNV-1a over a byte string. Shared by the interner and the compile
/// cache's content-key fingerprints so an interned key's hash can seed a
/// cache fingerprint without rehashing the bytes.
[[nodiscard]] std::uint64_t FnvHash(std::string_view s) noexcept;

/// A bump allocator. Not thread-safe: each compiling thread owns its own
/// arena (enforced by the thread-local ArenaScope).
class Arena : public std::enable_shared_from_this<Arena> {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Oversized requests get a dedicated block.
  [[nodiscard]] void* Allocate(std::size_t bytes, std::size_t align);

  /// Bytes handed out since construction.
  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  /// Bytes reserved from the system (>= bytes_used).
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  /// Number of Allocate calls since construction.
  [[nodiscard]] std::size_t num_allocations() const {
    return num_allocations_;
  }
  /// Number of blocks currently held.
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Block& NewBlock(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t block_bytes_;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t num_allocations_ = 0;
};

/// Minimal std-allocator adapter over a shared Arena. The shared_ptr
/// keeps the arena alive for as long as any allocation (or any
/// allocate_shared control block) still references it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(std::shared_ptr<Arena> arena)
      : arena_(std::move(arena)) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other)  // NOLINT(google-explicit-constructor)
      : arena_(other.arena_) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}  // wholesale free at arena death

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena_;
  }

 private:
  template <typename U>
  friend class ArenaAllocator;
  std::shared_ptr<Arena> arena_;
};

/// RAII scope installing `arena` as the current thread's allocation
/// target for `MakeArenaShared`. Nests; restores the previous scope on
/// destruction.
class ArenaScope {
 public:
  explicit ArenaScope(std::shared_ptr<Arena> arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// The innermost active scope's arena on this thread, or nullptr.
  [[nodiscard]] static const std::shared_ptr<Arena>* Current();

 private:
  std::shared_ptr<Arena> arena_;
  ArenaScope* prev_;
};

/// `make_shared` that lands in the current thread's scoped arena when one
/// is active, and on the heap otherwise.
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> MakeArenaShared(Args&&... args) {
  if (const std::shared_ptr<Arena>* arena = ArenaScope::Current()) {
    return std::allocate_shared<T>(ArenaAllocator<T>(*arena),
                                   std::forward<Args>(args)...);
  }
  return std::make_shared<T>(std::forward<Args>(args)...);
}

/// An interned string: a stable view into the interner's arena plus the
/// FNV-1a hash computed once at intern time.
struct InternedString {
  std::string_view view;
  std::uint64_t hash = 0;
};

/// Deduplicating string pool. Each distinct string is copied once into an
/// internal arena; later interns of an equal string return the same view
/// and its precomputed hash. Views stay valid for the interner's
/// lifetime. Not thread-safe unless noted by the owner (CompileCache
/// wraps its pool in the cache mutex).
class StringInterner {
 public:
  explicit StringInterner(std::size_t block_bytes = 16 * 1024);

  /// Interns `s`, copying it into the pool on first sight.
  InternedString Intern(std::string_view s);

  /// Number of distinct strings held.
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  /// Bytes of string payload held (sum of distinct lengths).
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }
  /// Intern calls that found an existing entry.
  [[nodiscard]] std::size_t hits() const { return hits_; }

 private:
  Arena arena_;
  // Keyed by view into the arena copy; value is the precomputed FNV hash.
  // The map keeps the default std::hash (word-at-a-time, much faster to
  // probe with than byte-serial FNV); FNV runs once per distinct string,
  // at copy-in time, purely to seed content-key fingerprints.
  std::unordered_map<std::string_view, std::uint64_t> map_;
  std::size_t payload_bytes_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace clflow::common

// FNV-1a digest builder shared by every content digest in clflow: the
// string interner's hashes, compile-cache keys, histogram / time-series /
// loadgen digests, the chaos report digest and the DSE ranked digest.
//
// Integers mix byte by byte in little-endian order and doubles mix their
// IEEE-754 bit pattern, so a digest is the same on every host. The
// default seed is clflow's historical offset basis (not the textbook
// 0xcbf29ce484222325); a caller that needs another seed sets `h` before
// mixing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace clflow::common {

struct Fnv {
  static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  std::uint64_t h = kOffset;

  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
  }
  /// Length-prefixed, so consecutive strings cannot alias ("ab","c" vs
  /// "a","bc").
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= kPrime;
    }
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U64(v ? 1 : 0); }
  void F64(double v) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    U64(u);
  }
};

}  // namespace clflow::common

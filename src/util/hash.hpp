#pragma once
/// \file hash.hpp
/// \brief FNV-1a hashing for small plain-data keys.
///
/// The path finder's distinct-candidate count hashes each candidate
/// polyline with fnv1a_word (one multiply per coordinate) and probes an
/// open-addressing table, verifying every hash match with a full polyline
/// compare: O(n) probes for n candidates, and the hash only groups them —
/// no collision can change which candidates count as distinct. FNV-1a is
/// deterministic across platforms and runs, which the routing determinism
/// contract requires (no seeding by address or time).

#include <cstddef>
#include <cstdint>

namespace ocr::util {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// Folds \p len bytes into \p seed (pass a previous result to chain).
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                                 std::uint64_t seed = kFnv1aOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    seed ^= p[i];
    seed *= kFnv1aPrime;
  }
  return seed;
}

/// Folds one trivially-copyable value into \p seed.
template <typename T>
std::uint64_t fnv1a_value(const T& value,
                          std::uint64_t seed = kFnv1aOffset) {
  return fnv1a_bytes(&value, sizeof(T), seed);
}

/// Folds one 64-bit word into \p seed as a single FNV-1a step (not the
/// byte-wise fnv1a_value of the same word). Its low bits depend only on
/// the inputs' low bits, so index tables by the high bits.
inline constexpr std::uint64_t fnv1a_word(std::uint64_t word,
                                          std::uint64_t seed = kFnv1aOffset) {
  return (seed ^ word) * kFnv1aPrime;
}

}  // namespace ocr::util

#pragma once
/// \file chunked.hpp
/// \brief ChunkedVector: a fixed-size-indexed array whose storage
/// materializes in 64-element chunks on first write.
///
/// The 100k-net instances put the dense per-track containers out of
/// business: a TrackGrid over a 200k-dbu die carries ~40k tracks, and a
/// dense per-track record array (or overlay slot array) pays
/// construction, copy and cache-miss cost for every one of them even
/// though a single net's search touches a few dozen. The
/// ChunkedVector keeps only a directory of chunk pointers; a chunk
/// (64 consecutive indices) exists once something in it has been written.
/// Reads of absent indices answer with a shared default value, writes
/// materialize the chunk filled with that default — so the container is
/// observationally identical to a dense vector initialized to the default,
/// while untouched regions cost one null pointer.
///
/// Copying copies only the present chunks (a TrackGrid copy inherits
/// exactly the occupied part of the die). The container never shrinks
/// short of reset().
///
/// Thread contract: same as std::vector — const access is a pure read
/// (at()/find() never materialize), any mutation (touch()) follows the
/// owner's single-writer rules.

#include <cstddef>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace ocr::util {

template <typename T>
class ChunkedVector {
 public:
  static constexpr std::size_t kChunkShift = 6;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  ChunkedVector() = default;
  explicit ChunkedVector(T default_value)
      : default_(std::move(default_value)) {}

  ChunkedVector(const ChunkedVector& other)
      : default_(other.default_), size_(other.size_) {
    chunks_.resize(other.chunks_.size());
    for (std::size_t c = 0; c < other.chunks_.size(); ++c) {
      if (other.chunks_[c] != nullptr) {
        chunks_[c] = clone_chunk(*other.chunks_[c]);
      }
    }
  }
  ChunkedVector& operator=(const ChunkedVector& other) {
    if (this != &other) {
      ChunkedVector copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  ChunkedVector(ChunkedVector&&) noexcept = default;
  ChunkedVector& operator=(ChunkedVector&&) noexcept = default;

  /// Sizes the container for \p size indices and drops every chunk (all
  /// indices read as the default again).
  void reset(std::size_t size) {
    size_ = size;
    chunks_.clear();
    chunks_.resize((size + kChunkSize - 1) >> kChunkShift);
  }

  std::size_t size() const { return size_; }

  /// The value at \p i; a shared reference to the default when the chunk
  /// is absent. Pure read, never materializes.
  const T& at(std::size_t i) const {
    OCR_ASSERT(i < size_, "ChunkedVector index out of range");
    const Chunk* chunk = chunks_[i >> kChunkShift].get();
    return chunk == nullptr ? default_ : (*chunk)[i & (kChunkSize - 1)];
  }

  /// Mutable pointer to the value at \p i, nullptr when its chunk was
  /// never materialized (callers use this for skip-if-absent mutations).
  T* find(std::size_t i) {
    OCR_ASSERT(i < size_, "ChunkedVector index out of range");
    Chunk* chunk = chunks_[i >> kChunkShift].get();
    return chunk == nullptr ? nullptr : &(*chunk)[i & (kChunkSize - 1)];
  }
  const T* find(std::size_t i) const {
    OCR_ASSERT(i < size_, "ChunkedVector index out of range");
    const Chunk* chunk = chunks_[i >> kChunkShift].get();
    return chunk == nullptr ? nullptr : &(*chunk)[i & (kChunkSize - 1)];
  }

  /// The value at \p i, materializing its chunk (filled with the default)
  /// when absent.
  T& touch(std::size_t i) {
    OCR_ASSERT(i < size_, "ChunkedVector index out of range");
    std::unique_ptr<Chunk>& slot = chunks_[i >> kChunkShift];
    if (slot == nullptr) {
      slot = std::make_unique<Chunk>();
      slot->reserve(kChunkSize);
      for (std::size_t k = 0; k < kChunkSize; ++k) {
        slot->push_back(default_);
      }
    }
    return (*slot)[i & (kChunkSize - 1)];
  }

  bool chunk_present(std::size_t i) const {
    OCR_ASSERT(i < size_, "ChunkedVector index out of range");
    return chunks_[i >> kChunkShift] != nullptr;
  }

  std::size_t materialized_chunks() const {
    std::size_t n = 0;
    for (const auto& chunk : chunks_) n += chunk != nullptr ? 1 : 0;
    return n;
  }

  /// Calls \p fn(index, element) for every element of every materialized
  /// chunk, in ascending index order. Elements still holding the default
  /// are included (they are materialized). Const overload is a pure read.
  template <typename Fn>
  void for_each_present(Fn&& fn) const {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk* chunk = chunks_[c].get();
      if (chunk == nullptr) continue;
      const std::size_t base = c << kChunkShift;
      const std::size_t limit = chunk_limit(c);
      for (std::size_t k = 0; k < limit; ++k) fn(base + k, (*chunk)[k]);
    }
  }
  template <typename Fn>
  void for_each_present(Fn&& fn) {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      Chunk* chunk = chunks_[c].get();
      if (chunk == nullptr) continue;
      const std::size_t base = c << kChunkShift;
      const std::size_t limit = chunk_limit(c);
      for (std::size_t k = 0; k < limit; ++k) fn(base + k, (*chunk)[k]);
    }
  }

  /// Bytes of directly-owned storage: the chunk directory plus every
  /// materialized chunk's element array. Heap owned *by* the elements
  /// (e.g. a track record's runs and gaps) is the caller's to add via
  /// for_each_present.
  std::size_t storage_bytes() const {
    std::size_t bytes = chunks_.capacity() * sizeof(std::unique_ptr<Chunk>);
    for (const auto& chunk : chunks_) {
      if (chunk != nullptr) {
        bytes += sizeof(Chunk) + chunk->capacity() * sizeof(T);
      }
    }
    return bytes;
  }

 private:
  using Chunk = std::vector<T>;

  std::unique_ptr<Chunk> clone_chunk(const Chunk& src) const {
    auto chunk = std::make_unique<Chunk>();
    *chunk = src;
    return chunk;
  }

  /// Valid element count of chunk \p c (the last chunk may be partial;
  /// its tail slots exist but are never exposed).
  std::size_t chunk_limit(std::size_t c) const {
    const std::size_t base = c << kChunkShift;
    return size_ - base < kChunkSize ? size_ - base : kChunkSize;
  }

  T default_{};
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace ocr::util

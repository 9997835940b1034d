// ChunkedArray: an append-only sequence whose elements never move.
//
// Elements live in fixed-size chunks, each reserved whole when it opens, so
// references stay valid across appends (like std::deque) while an append
// allocates only when it opens a chunk: one block per kChunk elements, not
// one per element as libstdc++'s std::deque does for elements over 256 B.
// Nor does growth copy elements, as a doubling std::vector would. Index
// access is one divide and one modulo by a power of two.
#pragma once

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace arvis {

template <class T, std::size_t kChunk>
class ChunkedArray {
  static_assert(std::has_single_bit(kChunk));

 public:
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ % kChunk == 0) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunk);
    }
    ++size_;
    return chunks_.back().emplace_back(std::forward<Args>(args)...);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return chunks_[i / kChunk][i % kChunk];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return chunks_[i / kChunk][i % kChunk];
  }

 private:
  std::vector<std::vector<T>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace arvis

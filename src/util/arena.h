// Chunked bump allocator with pointer-stable storage.
//
// The corpus layer (core::CertCorpus) copies every certificate's DER into an
// Arena and hands out views into it; those views must stay valid while rows
// keep being appended. The Arena therefore never reallocates or moves a
// chunk: when the current chunk is full a new one is added, and oversized
// requests get a dedicated chunk of their own. This is the stability
// contract docs/corpus.md documents and tests/corpus_test.cpp asserts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/bytes.h"

namespace rev::util {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 1u << 20)
      : chunk_bytes_(chunk_bytes ? chunk_bytes : 1u << 20) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Allocates `n` bytes of uninitialized, never-moving storage (chunks are
  // not zero-filled: Copy/CopyString overwrite every byte they hand out).
  // n == 0 returns an empty span.
  std::span<std::uint8_t> Allocate(std::size_t n) {
    if (n == 0) return {};
    if (n > chunk_bytes_) {
      // Dedicated chunk, inserted *behind* the current one so the current
      // chunk's remaining tail stays usable.
      auto chunk = std::make_unique_for_overwrite<std::uint8_t[]>(n);
      std::uint8_t* data = chunk.get();
      if (chunks_.empty()) {
        chunks_.push_back(std::move(chunk));
        used_in_current_ = chunk_bytes_;  // back() is full: force a new chunk
      } else {
        chunks_.insert(chunks_.end() - 1, std::move(chunk));
      }
      bytes_used_ += n;
      return {data, n};
    }
    if (chunks_.empty() || used_in_current_ + n > chunk_bytes_) {
      chunks_.push_back(
          std::make_unique_for_overwrite<std::uint8_t[]>(chunk_bytes_));
      used_in_current_ = 0;
    }
    std::uint8_t* data = chunks_.back().get() + used_in_current_;
    used_in_current_ += n;
    bytes_used_ += n;
    return {data, n};
  }

  // Copies `src` into the arena and returns a stable view of the copy.
  BytesView Copy(BytesView src) {
    std::span<std::uint8_t> dst = Allocate(src.size());
    if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
    return {dst.data(), dst.size()};
  }

  std::string_view CopyString(std::string_view s) {
    std::span<std::uint8_t> dst = Allocate(s.size());
    if (!s.empty()) std::memcpy(dst.data(), s.data(), s.size());
    return {reinterpret_cast<const char*>(dst.data()), dst.size()};
  }

  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t num_chunks() const { return chunks_.size(); }

 private:
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::size_t chunk_bytes_;
  std::size_t used_in_current_ = 0;
  std::size_t bytes_used_ = 0;
};

}  // namespace rev::util

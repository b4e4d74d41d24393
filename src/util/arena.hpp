// Arena — a bump allocator for per-worker / per-document scratch memory.
//
// The streaming publication pipeline (xml/stream_parser.hpp) parses every
// inbound document into short-lived records: element names, decoded text
// chunks, attribute values. Allocating those from the general heap costs a
// malloc/free pair per record on the hottest path in the broker; the arena
// replaces that with pointer bumps. Memory is grabbed from the arena in
// aligned slices, never freed individually, and reclaimed wholesale by
// reset() — which keeps the already-grown blocks, so a long-lived arena
// (one per worker, one per parser) reaches a steady state where a whole
// document parses with zero heap traffic.
//
// Not thread-safe: one arena belongs to one thread (that is the point —
// per-worker arenas shard the allocator, as each match worker keeps its
// own scratch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace xroute {

class Arena {
 public:
  /// First block size; subsequent blocks double up to kMaxBlockBytes.
  static constexpr std::size_t kMinBlockBytes = 4 << 10;
  static constexpr std::size_t kMaxBlockBytes = 1 << 20;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `size` bytes aligned to `align` (a power of two). Never returns
  /// nullptr; size 0 yields a valid one-past pointer.
  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
    std::size_t cursor = (cursor_ + (align - 1)) & ~(align - 1);
    if (cursor + size > limit_) return allocate_slow(size, align);
    void* out = base_ + cursor;
    cursor_ = cursor + size;
    return out;
  }

  /// Typed array of default-initialised Ts (trivially destructible only:
  /// the arena never runs destructors).
  template <typename T>
  T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Copies `text` into the arena; the returned view lives until reset().
  std::string_view copy(std::string_view text) {
    char* out = static_cast<char*>(allocate(text.size(), 1));
    std::memcpy(out, text.data(), text.size());
    return {out, text.size()};
  }

  /// Reclaims everything allocated so far. The largest block is kept (the
  /// rest are released), so repeated parse/reset cycles stop allocating
  /// once the high-water mark is reached.
  void reset() {
    if (blocks_.empty()) return;
    // Keep only the biggest block: it is the most recently grown one, and
    // a steady workload fits in it entirely.
    std::size_t best = 0;
    for (std::size_t i = 1; i < blocks_.size(); ++i) {
      if (blocks_[i].size > blocks_[best].size) best = i;
    }
    if (best != 0) std::swap(blocks_[0], blocks_[best]);
    blocks_.resize(1);
    base_ = blocks_[0].bytes.get();
    cursor_ = 0;
    limit_ = blocks_[0].size;
    total_allocated_ = 0;
  }

  /// Bytes handed out since the last reset (diagnostics).
  std::size_t bytes_allocated() const { return total_allocated_; }
  /// Bytes held across resets (capacity diagnostics).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::size_t size = 0;
  };

  void* allocate_slow(std::size_t size, std::size_t align) {
    std::size_t want = size + align;
    std::size_t next = blocks_.empty() ? kMinBlockBytes : limit_ * 2;
    if (next > kMaxBlockBytes) next = kMaxBlockBytes;
    if (next < want) next = want;  // oversized one-off request
    Block block;
    block.bytes = std::make_unique<std::uint8_t[]>(next);
    block.size = next;
    base_ = block.bytes.get();
    cursor_ = 0;
    limit_ = next;
    blocks_.push_back(std::move(block));
    std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(base_);
    std::size_t skew = (align - (raw & (align - 1))) & (align - 1);
    void* out = base_ + skew;
    cursor_ = skew + size;
    total_allocated_ += size;
    return out;
  }

  std::uint8_t* base_ = nullptr;
  std::size_t cursor_ = 0;
  std::size_t limit_ = 0;
  std::size_t total_allocated_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace xroute

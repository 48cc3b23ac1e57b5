// Convenience wrapper for application data buffers.
//
// Allocates a region in a simulated address space, with optional deliberate
// misalignment (to exercise the §4.5 word-alignment fallback), and provides
// deterministic fill/verify patterns so integration tests can check that the
// bytes that arrive are the bytes that were sent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "mem/address_space.h"

namespace nectar::mem {

class UserBuffer {
 public:
  UserBuffer(AddressSpace& as, std::size_t size, std::size_t misalign = 0)
      : as_(&as), size_(size), addr_(as.allocate(size, misalign)) {}
  UserBuffer(const UserBuffer&) = delete;
  UserBuffer& operator=(const UserBuffer&) = delete;
  UserBuffer(UserBuffer&& o) noexcept
      : as_(o.as_), size_(o.size_), addr_(o.addr_) {
    o.as_ = nullptr;
  }
  ~UserBuffer() {
    if (as_) as_->deallocate(addr_);
  }

  [[nodiscard]] VAddr addr() const noexcept { return addr_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] AddressSpace& space() const noexcept { return *as_; }

  [[nodiscard]] std::span<std::byte> view() { return as_->write_view(addr_, size_); }
  [[nodiscard]] std::span<const std::byte> view() const {
    return as_->read_view(addr_, size_);
  }

  // Deterministic byte pattern parameterized by `seed`; position-dependent so
  // reordering or truncation is detected, not just corruption.
  void fill_pattern(std::uint32_t seed);

  // Verify that [offset, offset+len) holds the pattern that fill_pattern
  // (same seed) would have produced at stream position `stream_pos`. Returns
  // the index of the first mismatch, or SIZE_MAX if all bytes match.
  [[nodiscard]] std::size_t verify_pattern(std::uint32_t seed, std::size_t offset,
                                           std::size_t len,
                                           std::size_t stream_pos) const;

  // The pattern byte at absolute stream position `pos` for `seed`. Inline:
  // every verified byte of a transfer goes through it.
  [[nodiscard]] static std::byte pattern_byte(std::uint32_t seed,
                                              std::size_t pos) noexcept {
    // Cheap position-mixing hash.
    std::uint64_t x = (static_cast<std::uint64_t>(seed) << 32) ^ pos;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::byte>(x & 0xff);
  }

  // Number of bytes of `data` that differ from the pattern for `seed`, where
  // data[i] is expected to hold pattern byte (stream_pos + i) mod `period`
  // (a sender looping over one `period`-byte pattern buffer; SIZE_MAX for a
  // stream that never wraps). Walks the span in runs that do not wrap, so
  // there is no division per byte. `period` must be non-zero.
  [[nodiscard]] static std::size_t count_mismatches(
      std::span<const std::byte> data, std::uint32_t seed,
      std::size_t stream_pos, std::size_t period = SIZE_MAX) noexcept;

  [[nodiscard]] Uio as_uio(std::size_t off = 0, std::size_t len = SIZE_MAX);

 private:
  AddressSpace* as_;
  std::size_t size_;
  VAddr addr_;
};

}  // namespace nectar::mem

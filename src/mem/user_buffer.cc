#include "mem/user_buffer.h"

#include <algorithm>
#include <cassert>

namespace nectar::mem {

std::size_t UserBuffer::count_mismatches(std::span<const std::byte> data,
                                         std::uint32_t seed,
                                         std::size_t stream_pos,
                                         std::size_t period) noexcept {
  assert(period > 0);
  std::size_t errors = 0;
  std::size_t pos = stream_pos % period;
  const std::byte* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const std::size_t run = std::min(left, period - pos);
    for (std::size_t i = 0; i < run; ++i)
      errors += p[i] != pattern_byte(seed, pos + i) ? 1 : 0;
    p += run;
    left -= run;
    pos = 0;
  }
  return errors;
}

void UserBuffer::fill_pattern(std::uint32_t seed) {
  auto v = view();
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = pattern_byte(seed, i);
}

std::size_t UserBuffer::verify_pattern(std::uint32_t seed, std::size_t offset,
                                       std::size_t len, std::size_t stream_pos) const {
  auto v = as_->read_view(addr_ + offset, len);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != pattern_byte(seed, stream_pos + i)) return i;
  }
  return SIZE_MAX;
}

Uio UserBuffer::as_uio(std::size_t off, std::size_t len) {
  if (len == SIZE_MAX) len = size_ - off;
  Uio u;
  u.space = as_;
  u.iov.push_back(UioVec{addr_ + off, len});
  return u;
}

}  // namespace nectar::mem

#include "kernapp/kernel_socket.h"

#include "mem/user_buffer.h"

namespace nectar::kernapp {

using mbuf::Mbuf;

Mbuf* make_pattern_chain(mbuf::MbufPool& pool, std::size_t len, std::uint32_t seed,
                         std::size_t stream_pos) {
  Mbuf* head = nullptr;
  Mbuf** link = &head;
  std::size_t produced = 0;
  while (produced < len) {
    Mbuf* c = pool.get_cluster(false);
    const std::size_t take = std::min(len - produced, c->trailing_space());
    // Fill directly into the cluster.
    std::byte tmp[512];
    std::size_t off = 0;
    while (off < take) {
      const std::size_t n = std::min<std::size_t>(take - off, sizeof tmp);
      for (std::size_t i = 0; i < n; ++i)
        tmp[i] = mem::UserBuffer::pattern_byte(seed, stream_pos + produced + off + i);
      c->append(std::span<const std::byte>{tmp, n});
      off += n;
    }
    *link = c;
    link = &c->next;
    produced += take;
  }
  return head;
}

std::size_t verify_pattern_chain(const Mbuf* m, std::uint32_t seed,
                                 std::size_t stream_pos) {
  std::size_t errors = 0;
  std::size_t pos = stream_pos;
  for (; m != nullptr; m = m->next) {
    const auto sp = m->span();
    errors += mem::UserBuffer::count_mismatches(sp, seed, pos);
    pos += sp.size();
  }
  return errors;
}

}  // namespace nectar::kernapp

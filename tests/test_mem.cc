// Unit tests: simulated address spaces, uio descriptors, the Table 2 VM cost
// model, and the lazy-unpin pin cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "mem/pin_cache.h"
#include "mem/user_buffer.h"
#include "tests/test_util.h"

namespace nectar::mem {
namespace {

TEST(AddressSpace, AllocateTranslateRoundTrip) {
  AddressSpace as("t");
  const VAddr a = as.allocate(1000);
  EXPECT_EQ(page_offset(a), 0u);  // page aligned by default
  auto w = as.write_view(a, 1000);
  w[0] = std::byte{0xaa};
  w[999] = std::byte{0xbb};
  auto r = as.read_view(a + 999, 1);
  EXPECT_EQ(r[0], std::byte{0xbb});
}

TEST(AddressSpace, OutOfRangeFaults) {
  AddressSpace as("t");
  const VAddr a = as.allocate(100);
  EXPECT_THROW(as.read_view(a + 50, 51), std::out_of_range);
  EXPECT_THROW(as.read_view(a - 1, 1), std::out_of_range);
  EXPECT_NO_THROW(as.read_view(a, 100));
  EXPECT_FALSE(as.valid(a + 100, 1));
  EXPECT_TRUE(as.valid(a, 100));
}

TEST(AddressSpace, GuardGapsBetweenRegions) {
  AddressSpace as("t");
  const VAddr a = as.allocate(100);
  const VAddr b = as.allocate(100);
  EXPECT_GT(b, a + 100);  // never adjacent
  EXPECT_FALSE(as.valid(a + 100, 1));
  as.deallocate(a);
  EXPECT_FALSE(as.valid(a, 1));
  EXPECT_TRUE(as.valid(b, 100));
}

TEST(AddressSpace, MisalignedAllocation) {
  AddressSpace as("t");
  const VAddr a = as.allocate(64, 2);
  EXPECT_EQ(page_offset(a), 2u);
  EXPECT_NE(a % 4, 0u);
}

TEST(AddressSpace, PagesSpanned) {
  EXPECT_EQ(pages_spanned(0, 0), 0u);
  EXPECT_EQ(pages_spanned(0, 1), 1u);
  EXPECT_EQ(pages_spanned(0, kPageSize), 1u);
  EXPECT_EQ(pages_spanned(0, kPageSize + 1), 2u);
  EXPECT_EQ(pages_spanned(kPageSize - 1, 2), 2u);  // straddles a boundary
}

TEST(Uio, SliceAcrossVectors) {
  AddressSpace as("t");
  const VAddr a = as.allocate(100);
  const VAddr b = as.allocate(100);
  Uio u;
  u.space = &as;
  u.iov = {{a, 100}, {b, 100}};
  EXPECT_EQ(u.total_len(), 200u);

  Uio s = u.slice(90, 20);  // 10 from each
  ASSERT_EQ(s.iov.size(), 2u);
  EXPECT_EQ(s.iov[0].base, a + 90);
  EXPECT_EQ(s.iov[0].len, 10u);
  EXPECT_EQ(s.iov[1].base, b);
  EXPECT_EQ(s.iov[1].len, 10u);
  EXPECT_THROW(u.slice(150, 100), std::out_of_range);
}

TEST(Uio, WordAlignment) {
  AddressSpace as("t");
  Uio u;
  u.space = &as;
  u.iov = {{as.allocate(64), 64}};
  EXPECT_TRUE(u.word_aligned());
  Uio v;
  v.space = &as;
  v.iov = {{as.allocate(64, 2), 64}};
  EXPECT_FALSE(v.word_aligned());
}

TEST(UserBuffer, PatternFillVerify) {
  AddressSpace as("t");
  UserBuffer buf(as, 4096);
  buf.fill_pattern(5);
  EXPECT_EQ(buf.verify_pattern(5, 0, 4096, 0), SIZE_MAX);
  EXPECT_NE(buf.verify_pattern(6, 0, 4096, 0), SIZE_MAX);   // wrong seed
  EXPECT_NE(buf.verify_pattern(5, 0, 4096, 1), SIZE_MAX);   // wrong position
  buf.view()[100] ^= std::byte{1};
  EXPECT_EQ(buf.verify_pattern(5, 0, 4096, 0), 100u);  // locates the error
}

// The reference count_mismatches must match: one modulo per byte.
std::size_t naive_mismatches(std::span<const std::byte> data, std::uint32_t seed,
                             std::size_t stream_pos, std::size_t period) {
  std::size_t errors = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (data[i] != UserBuffer::pattern_byte(seed, (stream_pos + i) % period))
      ++errors;
  return errors;
}

std::vector<std::byte> pattern_span(std::uint32_t seed, std::size_t stream_pos,
                                    std::size_t period, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = UserBuffer::pattern_byte(seed, (stream_pos + i) % period);
  return v;
}

TEST(UserBuffer, CountMismatchesMatchesNaiveLoop) {
  std::mt19937_64 rng(0x5eed);
  for (const std::size_t period : {std::size_t{1024}, std::size_t{64 * 1024}, SIZE_MAX}) {
    // Starts just before, exactly on, and just after a wrap, then random ones.
    const std::size_t wrap = period == SIZE_MAX ? std::size_t{1} << 40 : 3 * period;
    std::vector<std::size_t> starts = {wrap - 7, wrap, wrap + 5};
    for (int i = 0; i < 6; ++i) starts.push_back(rng() % (wrap * 2));
    for (const std::size_t start : starts) {
      const auto seed = static_cast<std::uint32_t>(rng());
      const std::size_t n = 1 + rng() % (2 * std::min<std::size_t>(period, 96 * 1024));
      auto data = pattern_span(seed, start, period, n);
      const std::size_t flips = rng() % 16;
      for (std::size_t f = 0; f < flips; ++f)
        data[rng() % n] ^= static_cast<std::byte>(1 + rng() % 255);
      EXPECT_EQ(UserBuffer::count_mismatches(data, seed, start, period),
                naive_mismatches(data, seed, start, period))
          << "period " << period << " start " << start << " n " << n;
    }
  }
}

TEST(UserBuffer, CountMismatchesCountsInjectedCorruptionExactly) {
  const std::uint32_t seed = 42;
  const std::size_t period = 1024;
  const std::size_t start = 5 * period - 10;  // wraps after 10 bytes
  auto data = pattern_span(seed, start, period, 3000);
  EXPECT_EQ(UserBuffer::count_mismatches(data, seed, start, period), 0u);
  // The last byte before the wrap, the first byte after it, and two more.
  for (const std::size_t i : {std::size_t{9}, std::size_t{10}, std::size_t{11},
                              std::size_t{10 + period}})
    data[i] ^= std::byte{0x80};
  EXPECT_EQ(UserBuffer::count_mismatches(data, seed, start, period), 4u);
  // The same bytes read as a stream that never wraps are almost all wrong.
  EXPECT_GT(UserBuffer::count_mismatches(data, seed, start), 2000u);
}

TEST(UserBuffer, CountMismatchesOfEmptySpanIsZero) {
  EXPECT_EQ(UserBuffer::count_mismatches({}, 1, 0, 1024), 0u);
  EXPECT_EQ(UserBuffer::count_mismatches({}, 1, 1023), 0u);
}

struct VmFixture : ::testing::Test {
  sim::Simulator simu;
  sim::Cpu cpu{simu};
  sim::AccountId acct{cpu.make_account("t")};
  Vm vm{simu, cpu, VmCosts{}};
  AddressSpace as{"t"};
};

TEST_F(VmFixture, Table2Costs) {
  EXPECT_EQ(vm.pin_cost(1), sim::usec(35 + 29));
  EXPECT_EQ(vm.pin_cost(4), sim::usec(35 + 29 * 4));
  EXPECT_EQ(vm.unpin_cost(10), sim::usec(48 + 39));
  EXPECT_EQ(vm.map_cost(2), sim::usec(6 + 9));
  EXPECT_EQ(vm.pin_cost(0), 0);
}

TEST_F(VmFixture, PinUnpinBookkeeping) {
  const VAddr a = as.allocate(3 * kPageSize);
  testutil::run_task_void(simu, vm.pin(as, a, 3 * kPageSize, acct,
                                       sim::Priority::Normal));
  EXPECT_EQ(vm.pinned_pages(), 3u);
  EXPECT_TRUE(vm.is_pinned(as, a));
  EXPECT_TRUE(vm.is_pinned(as, a + 2 * kPageSize));
  EXPECT_FALSE(vm.is_pinned(as, a + 3 * kPageSize));
  // Nested pin: counts stack.
  testutil::run_task_void(simu, vm.pin(as, a, kPageSize, acct,
                                       sim::Priority::Normal));
  testutil::run_task_void(simu, vm.unpin(as, a, 3 * kPageSize, acct,
                                         sim::Priority::Normal));
  EXPECT_TRUE(vm.is_pinned(as, a));  // one count remains on page 0
  EXPECT_EQ(vm.pinned_pages(), 1u);
  testutil::run_task_void(simu, vm.unpin(as, a, kPageSize, acct,
                                         sim::Priority::Normal));
  EXPECT_EQ(vm.pinned_pages(), 0u);
}

TEST_F(VmFixture, UnpinUnpinnedThrows) {
  const VAddr a = as.allocate(kPageSize);
  EXPECT_THROW(
      testutil::run_task_void(simu, vm.unpin(as, a, kPageSize, acct,
                                             sim::Priority::Normal)),
      std::logic_error);
}

TEST_F(VmFixture, PinChargesCpuTime) {
  const VAddr a = as.allocate(4 * kPageSize);
  testutil::run_task_void(simu, vm.pin(as, a, 4 * kPageSize, acct,
                                       sim::Priority::Normal));
  EXPECT_EQ(cpu.busy(acct), sim::usec(35 + 29 * 4));
}

TEST_F(VmFixture, PinInvalidRangeThrows) {
  EXPECT_THROW(testutil::run_task_void(
                   simu, vm.pin(as, 0xdead0000, 64, acct, sim::Priority::Normal)),
               std::out_of_range);
}

TEST_F(VmFixture, PinCacheHitsSkipCosts) {
  PinCache cache(vm, 64);
  const VAddr a = as.allocate(4 * kPageSize);
  testutil::run_task_void(simu, cache.acquire(as, a, 4 * kPageSize, acct,
                                              sim::Priority::Normal));
  const auto first_cost = cpu.busy(acct);
  EXPECT_EQ(cache.stats().page_misses, 4u);
  // Re-acquiring the same buffer is free.
  testutil::run_task_void(simu, cache.acquire(as, a, 4 * kPageSize, acct,
                                              sim::Priority::Normal));
  EXPECT_EQ(cpu.busy(acct), first_cost);
  EXPECT_EQ(cache.stats().page_hits, 4u);
  EXPECT_EQ(cache.resident_pages(), 4u);
  // release is lazy: pages stay pinned.
  testutil::run_task_void(simu, cache.release(as, a, 4 * kPageSize, acct,
                                              sim::Priority::Normal));
  EXPECT_EQ(vm.pinned_pages(), 4u);
}

TEST_F(VmFixture, PinCacheEvictsLru) {
  PinCache cache(vm, 2);
  const VAddr a = as.allocate(kPageSize);
  const VAddr b = as.allocate(kPageSize);
  const VAddr c = as.allocate(kPageSize);
  auto acq = [&](VAddr v) {
    testutil::run_task_void(simu,
                            cache.acquire(as, v, kPageSize, acct,
                                          sim::Priority::Normal));
  };
  acq(a);
  acq(b);
  acq(c);  // evicts a
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(vm.is_pinned(as, a));
  EXPECT_TRUE(vm.is_pinned(as, b));
  EXPECT_TRUE(vm.is_pinned(as, c));
  acq(b);  // refresh b
  acq(a);  // evicts c (LRU), not b
  EXPECT_TRUE(vm.is_pinned(as, b));
  EXPECT_FALSE(vm.is_pinned(as, c));
}

TEST_F(VmFixture, PinCacheDisabledIsEager) {
  PinCache cache(vm, 0);
  EXPECT_FALSE(cache.enabled());
  const VAddr a = as.allocate(kPageSize);
  testutil::run_task_void(simu, cache.acquire(as, a, kPageSize, acct,
                                              sim::Priority::Normal));
  EXPECT_TRUE(vm.is_pinned(as, a));
  testutil::run_task_void(simu, cache.release(as, a, kPageSize, acct,
                                              sim::Priority::Normal));
  EXPECT_FALSE(vm.is_pinned(as, a));
}

TEST_F(VmFixture, PinCacheFlushUnpinsAll) {
  PinCache cache(vm, 16);
  const VAddr a = as.allocate(4 * kPageSize);
  testutil::run_task_void(simu, cache.acquire(as, a, 4 * kPageSize, acct,
                                              sim::Priority::Normal));
  testutil::run_task_void(simu, cache.flush(acct, sim::Priority::Normal));
  EXPECT_EQ(vm.pinned_pages(), 0u);
  EXPECT_EQ(cache.resident_pages(), 0u);
}

}  // namespace
}  // namespace nectar::mem

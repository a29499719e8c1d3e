#include "host/memory.hpp"

#include <gtest/gtest.h>

namespace ntbshmem::host {
namespace {

TEST(MemoryArenaTest, AllocatesAlignedRegions) {
  MemoryArena arena(1 << 20);
  Region a = arena.allocate(100, 64);
  Region b = arena.allocate(200, 4096);
  EXPECT_EQ(a.offset % 64, 0u);
  EXPECT_EQ(b.offset % 4096, 0u);
  EXPECT_GE(b.offset, a.offset + a.size);
}

TEST(MemoryArenaTest, ExhaustionThrows) {
  MemoryArena arena(1024);
  arena.allocate(1000);
  EXPECT_THROW(arena.allocate(100), OutOfMemory);
}

TEST(MemoryArenaTest, ExactFitSucceeds) {
  MemoryArena arena(1024);
  Region r = arena.allocate(1024, 1);
  EXPECT_EQ(r.size, 1024u);
  EXPECT_THROW(arena.allocate(1, 1), OutOfMemory);
}

TEST(MemoryArenaTest, BadAlignmentThrows) {
  MemoryArena arena(1024);
  EXPECT_THROW(arena.allocate(16, 3), std::invalid_argument);
  EXPECT_THROW(arena.allocate(16, 0), std::invalid_argument);
}

TEST(MemoryArenaTest, BytesAreBoundsChecked) {
  MemoryArena arena(1024);
  Region r = arena.allocate(128);
  EXPECT_NO_THROW(arena.bytes(r, 0, 128));
  EXPECT_NO_THROW(arena.bytes(r, 128, 0));
  EXPECT_THROW(arena.bytes(r, 0, 129), std::out_of_range);
  EXPECT_THROW(arena.bytes(r, 120, 16), std::out_of_range);
}

TEST(MemoryArenaTest, DataRoundTrips) {
  MemoryArena arena(1024);
  Region r = arena.allocate(16);
  auto w = arena.bytes(r);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<std::byte>(i);
  auto rd = arena.bytes(r, 4, 4);
  EXPECT_EQ(rd[0], static_cast<std::byte>(4));
  EXPECT_EQ(rd[3], static_cast<std::byte>(7));
}

// Owned arenas are lazily zeroed mappings: a fresh arena must still read as
// zero everywhere, and bounds and exhaustion behave as before.
TEST(MemoryArenaTest, FreshArenaReadsZeroAndKeepsBounds) {
  constexpr std::uint64_t kCap = 96ull << 20;
  MemoryArena arena(kCap, "lazy");
  EXPECT_EQ(arena.capacity(), kCap);
  const Region all = arena.allocate(kCap, 1);
  const auto bytes = arena.bytes(all);
  EXPECT_EQ(bytes[0], std::byte{0});
  EXPECT_EQ(bytes[kCap / 2], std::byte{0});
  EXPECT_EQ(bytes[kCap - 1], std::byte{0});
  bytes[kCap / 2] = std::byte{0x5a};
  EXPECT_EQ(arena.bytes(all, kCap / 2, 1)[0], std::byte{0x5a});
  EXPECT_THROW(arena.bytes(all, kCap - 1, 2), std::out_of_range);
  EXPECT_THROW(arena.allocate(1, 1), OutOfMemory);

  MemoryArena empty(0);
  EXPECT_EQ(empty.capacity(), 0u);
  EXPECT_THROW(empty.allocate(1, 1), OutOfMemory);
}

}  // namespace
}  // namespace ntbshmem::host

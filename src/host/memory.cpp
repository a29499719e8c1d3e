#include "host/memory.hpp"

#include <sys/mman.h>

#include <new>

namespace ntbshmem::host {

MemoryArena::MemoryArena(std::uint64_t capacity_bytes, std::string name)
    : name_(std::move(name)) {
  if (capacity_bytes == 0) return;
  // Anonymous pages are zero-filled by the kernel on first touch; nothing
  // here writes them, so untouched capacity never becomes resident.
  void* p = mmap(nullptr, capacity_bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  owned_ = true;
  mem_ = std::span<std::byte>(static_cast<std::byte*>(p), capacity_bytes);
}

MemoryArena::MemoryArena(std::span<std::byte> view, std::string name)
    : name_(std::move(name)), mem_(view) {}

MemoryArena::~MemoryArena() {
  if (owned_) munmap(mem_.data(), mem_.size());
}

Region MemoryArena::allocate(std::uint64_t size, std::uint64_t align) {
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("MemoryArena alignment must be a power of 2");
  }
  const std::uint64_t start = (next_ + align - 1) & ~(align - 1);
  if (size > mem_.size() || start > mem_.size() - size) {
    throw OutOfMemory(name_ + ": cannot allocate " + std::to_string(size) +
                      " bytes (used " + std::to_string(next_) + "/" +
                      std::to_string(mem_.size()) + ")");
  }
  next_ = start + size;
  return Region{start, size};
}

void MemoryArena::check(const Region& region, std::uint64_t offset,
                        std::uint64_t len) const {
  if (region.offset > mem_.size() ||
      region.size > mem_.size() - region.offset) {
    throw std::out_of_range(name_ + ": region outside arena");
  }
  if (offset > region.size || len > region.size - offset) {
    throw std::out_of_range(name_ + ": access outside region (offset " +
                            std::to_string(offset) + ", len " +
                            std::to_string(len) + ", region size " +
                            std::to_string(region.size) + ")");
  }
}

std::span<std::byte> MemoryArena::bytes(const Region& region) {
  return bytes(region, 0, region.size);
}

std::span<const std::byte> MemoryArena::bytes(const Region& region) const {
  return bytes(region, 0, region.size);
}

std::span<std::byte> MemoryArena::bytes(const Region& region,
                                        std::uint64_t offset,
                                        std::uint64_t len) {
  check(region, offset, len);
  return mem_.subspan(region.offset + offset, len);
}

std::span<const std::byte> MemoryArena::bytes(const Region& region,
                                              std::uint64_t offset,
                                              std::uint64_t len) const {
  check(region, offset, len);
  return std::span<const std::byte>(mem_).subspan(region.offset + offset, len);
}

}  // namespace ntbshmem::host

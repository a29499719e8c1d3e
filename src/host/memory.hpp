// Per-host physical memory arena.
//
// Each simulated host owns a flat byte arena standing in for its DRAM.
// Regions are carved out for the symmetric heap chunks, bypass buffers and
// scratch areas; NTB BAR windows translate into (host, region, offset)
// targets, mirroring the BAR/translation-register scheme of Fig. 1.
//
// An owned arena is an anonymous private mapping: it reads as zero, and a
// page becomes resident only when first written, so a 16-host ring of
// 96 MiB arenas costs what the workload touches, not 1.5 GiB of memset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace ntbshmem::host {

// A carved-out slice of a host's arena. Plain value type; the arena owns
// the storage.
struct Region {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  bool valid() const { return size > 0; }
};

class OutOfMemory : public std::runtime_error {
 public:
  explicit OutOfMemory(const std::string& what) : std::runtime_error(what) {}
};

class MemoryArena {
 public:
  explicit MemoryArena(std::uint64_t capacity_bytes, std::string name = "ram");

  // View mode: the arena carves regions out of externally owned storage
  // instead of allocating its own — how the shm backend places each PE's
  // symmetric heap inside the mmap'ed segment (DESIGN.md §4j). The view
  // must outlive the arena; the arena never frees or grows it.
  explicit MemoryArena(std::span<std::byte> view, std::string name = "view");
  ~MemoryArena();
  MemoryArena(const MemoryArena&) = delete;
  MemoryArena& operator=(const MemoryArena&) = delete;

  // Bump-allocates `size` bytes at `align` alignment. Throws OutOfMemory.
  Region allocate(std::uint64_t size, std::uint64_t align = 64);

  std::uint64_t capacity() const { return mem_.size(); }
  std::uint64_t used() const { return next_; }

  // Raw access to a region's bytes (bounds-checked).
  std::span<std::byte> bytes(const Region& region);
  std::span<const std::byte> bytes(const Region& region) const;
  // Sub-span at (region, offset, len).
  std::span<std::byte> bytes(const Region& region, std::uint64_t offset,
                             std::uint64_t len);
  std::span<const std::byte> bytes(const Region& region, std::uint64_t offset,
                                   std::uint64_t len) const;

 private:
  void check(const Region& region, std::uint64_t offset,
             std::uint64_t len) const;

  std::string name_;
  bool owned_ = false;        // mem_ is this arena's own mapping
  std::span<std::byte> mem_;  // the owned mapping or the external view
  std::uint64_t next_ = 0;
};

}  // namespace ntbshmem::host

// Always-on flight recorder: a bounded per-host ring of fixed-size event
// records that costs one masked store per event and never allocates on the
// hot path. Unlike the span Tracer it is NOT gated on an enabled flag — it
// runs in every configuration (including the paper-mode golden runs, which
// stay bit-identical because logging never touches the simulation engine) —
// so when a fault-injection recovery fails or a fuzz seed trips an assert,
// the last N protocol events per host are already in memory and can be
// dumped next to the failure artifact without re-running anything.
//
// Records are deliberately tiny (24 bytes, POD): a virtual timestamp, a
// FlightCode, and three untyped operands whose meaning is per-code (see the
// table in DESIGN.md §4h). dump_flight() renders a ring human-readably,
// oldest first, with the drop count of everything the ring evicted.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace ntbshmem::obs {

enum class FlightCode : std::uint16_t {
  kPut = 1,          // a: target_pe, b: bytes
  kGet = 2,          // a: source_pe, b: bytes
  kAtomic = 3,       // a: target_pe, b: atomic op
  kBarrier = 4,      // a: pe
  kFrameTx = 5,      // a: port, b: frame route | doorbell bit << 24, c: id
  kFrameRx = 6,      // a: port, b: frame route, c: frame id
  kAck = 7,          // a: port, b: seq
  kNak = 8,          // a: port, b: seq
  kRetransmit = 9,   // a: port, b: retry count, c: seq
  kAckTimeout = 10,  // a: port, b: retry count, c: seq
  kCreditStall = 11, // a: port, c: stall ns
  kDmaError = 12,    // a: port, b: retry count
  kChecksumDrop = 13,// a: port, c: expected checksum
  kDupDrop = 14,     // a: port, b: seq
  kOooDrop = 15,     // a: port, b: got seq, c: expected seq
  kBarrierToken = 16,// a: origin pe, b: direction (0 up, 1 down)
  kDeliveryAck = 17, // a: origin pe, c: op id
  kAckInvalid = 18,  // a: port, b: raw ack word (failed its redundancy check)
  kBarrierRx = 19,   // a: BarrierSignal, b: arrival port | token origin pe
  kCutThrough = 20,  // a: in port, b: out msg id, c: in msg id
};

// kFrameTx/kFrameRx operand b: the frame's kind | origin_pe << 8 |
// target_pe << 16, so (kind, origin, target, id) is recoverable from both
// ends of the wire; kFrameTx adds the doorbell bit in the top byte.
inline constexpr std::uint32_t frame_route(std::uint8_t kind,
                                           std::uint8_t origin_pe,
                                           std::uint8_t target_pe) {
  return static_cast<std::uint32_t>(kind) |
         static_cast<std::uint32_t>(origin_pe) << 8 |
         static_cast<std::uint32_t>(target_pe) << 16;
}
inline constexpr std::uint32_t kFrameRouteMask = 0xffffffu;

// kBarrierRx operand a: which barrier signal reached this host. The ring
// protocol (Fig. 6) delivers start/end doorbells (b = arrival port); the
// tree protocol delivers up/down tokens (b = token origin pe).
enum class BarrierSignal : std::uint16_t {
  kStart = 0,
  kEnd = 1,
  kTokenUp = 2,
  kTokenDown = 3,
};

// Stable lowercase names for dumps.
const char* flight_code_name(FlightCode code);

struct FlightRecord {
  sim::Time t = 0;
  std::uint16_t code = 0;
  std::uint16_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
};
static_assert(sizeof(FlightRecord) == 24, "flight records must stay compact");

class FlightRecorder {
 public:
  // Capacity is rounded up to a power of two (masked indexing on the hot
  // path); 0 asks for the 512-record default.
  explicit FlightRecorder(std::size_t capacity = 512);

  void log(sim::Time t, FlightCode code, std::uint16_t a = 0,
           std::uint32_t b = 0, std::uint64_t c = 0) {
    FlightRecord& r = ring_[static_cast<std::size_t>(head_) & mask_];
    r.t = t;
    r.code = static_cast<std::uint16_t>(code);
    r.a = a;
    r.b = b;
    r.c = c;
    ++head_;
  }

  // Retained records, oldest first.
  std::vector<FlightRecord> recent() const;
  std::uint64_t total() const { return head_; }
  std::size_t capacity() const { return ring_.size(); }
  void clear() { head_ = 0; }

 private:
  std::vector<FlightRecord> ring_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;  // total records ever logged
};

// Human-readable dump: one "[t=...ns] code a=%u b=%u c=%llu" line per
// retained record, oldest first, headed by `name` and the evicted count.
void dump_flight(const FlightRecorder& rec, std::string_view name,
                 std::ostream& out);

}  // namespace ntbshmem::obs

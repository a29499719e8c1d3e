// Typed span tracer: the timeline half of the observability subsystem.
//
// Components record begin/end spans, instant events, async (overlapping)
// spans and counter samples onto named *tracks* — one track per host
// service thread, NTB port or link — using interned CategoryId/EventId
// integers instead of per-record strings. Records land in per-track
// append-only buffers; an optional bounded-memory ring mode keeps only the
// newest N records per track (long soak runs).
//
// Cost model: every record method first checks enabled() and returns
// immediately when tracing is off (a null-recorder pattern). Recording
// never touches the simulation engine, so enabling tracing cannot perturb
// virtual time — golden-time tests pass bit-identically with tracing on
// (asserted by shmem_pipeline_test).
//
// Export: obs/export.hpp serializes a Tracer into Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), mapping track processes to
// pids and tracks to tids.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ids.hpp"
#include "sim/time.hpp"

namespace ntbshmem::obs {

enum class RecordKind : std::uint8_t {
  kBegin,        // synchronous span open (nests per track)
  kEnd,          // synchronous span close
  kInstant,      // point event
  kCounter,      // counter-timeline sample (value = sample)
  kAsyncBegin,   // overlapping span open, matched by `id`
  kAsyncEnd,     // overlapping span close, matched by `id`
  kFlowStart,    // Perfetto flow arrow origin, matched by `id`
  kFlowStep,     // flow arrow waypoint
  kFlowEnd,      // flow arrow terminus
};

inline constexpr std::uint32_t kNoDetail = 0xffffffffu;

struct TraceRecord {
  sim::Time t = 0;
  RecordKind kind = RecordKind::kInstant;
  CategoryId category = 0;
  EventId event = 0;
  std::uint64_t id = 0;   // async-span correlation id
  double value = 0.0;     // counter sample / instant numeric argument
  std::uint32_t detail = kNoDetail;  // index into Tracer::detail(), or none
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Bounded-memory mode: keep at most `per_track` records per track,
  // evicting the oldest (0 = unbounded append-only buffers).
  void set_ring_capacity(std::size_t per_track) { ring_capacity_ = per_track; }
  std::size_t ring_capacity() const { return ring_capacity_; }

  // ---- Interning (do this once, not per record) ----------------------------
  CategoryId category(std::string_view name) {
    return static_cast<CategoryId>(categories_.id(name));
  }
  EventId event(std::string_view name) { return events_.id(name); }

  // Registers (or finds) the track (`process`, `name`); `process` groups
  // tracks into Perfetto processes (one per simulated host, plus "fabric"
  // for inter-host resources). Idempotent: same pair -> same id.
  TrackId track(std::string_view process, std::string_view name);

  // ---- Recording (no-ops while disabled) -----------------------------------
  void begin(TrackId track, CategoryId cat, EventId ev, sim::Time t) {
    if (enabled_) push(track, {t, RecordKind::kBegin, cat, ev, 0, 0.0, kNoDetail});
  }
  void end(TrackId track, CategoryId cat, EventId ev, sim::Time t) {
    if (enabled_) push(track, {t, RecordKind::kEnd, cat, ev, 0, 0.0, kNoDetail});
  }
  void instant(TrackId track, CategoryId cat, EventId ev, sim::Time t,
               double value = 0.0) {
    if (enabled_)
      push(track, {t, RecordKind::kInstant, cat, ev, 0, value, kNoDetail});
  }
  // Instant carrying a free-form string payload (rare events only, e.g.
  // fault injections); the string is stored in a side table and referenced
  // by index.
  void instant_detail(TrackId track, CategoryId cat, EventId ev, sim::Time t,
                      std::string detail);
  void async_begin(TrackId track, CategoryId cat, EventId ev, sim::Time t,
                   std::uint64_t id) {
    if (enabled_)
      push(track, {t, RecordKind::kAsyncBegin, cat, ev, id, 0.0, kNoDetail});
  }
  void async_end(TrackId track, CategoryId cat, EventId ev, sim::Time t,
                 std::uint64_t id) {
    if (enabled_)
      push(track, {t, RecordKind::kAsyncEnd, cat, ev, id, 0.0, kNoDetail});
  }
  void counter(TrackId track, EventId ev, sim::Time t, double value) {
    if (enabled_)
      push(track, {t, RecordKind::kCounter, 0, ev, 0, value, kNoDetail});
  }
  // Flow arrows: link slices across tracks by `id` (the causal trace_id).
  // Chrome binds each flow record to the enclosing synchronous slice on the
  // same track, so emit these inside an open kBegin/kEnd pair.
  void flow_start(TrackId track, CategoryId cat, EventId ev, sim::Time t,
                  std::uint64_t id) {
    if (enabled_)
      push(track, {t, RecordKind::kFlowStart, cat, ev, id, 0.0, kNoDetail});
  }
  void flow_step(TrackId track, CategoryId cat, EventId ev, sim::Time t,
                 std::uint64_t id) {
    if (enabled_)
      push(track, {t, RecordKind::kFlowStep, cat, ev, id, 0.0, kNoDetail});
  }
  void flow_end(TrackId track, CategoryId cat, EventId ev, sim::Time t,
                std::uint64_t id) {
    if (enabled_)
      push(track, {t, RecordKind::kFlowEnd, cat, ev, id, 0.0, kNoDetail});
  }

  // Process-unique ids for async-span correlation.
  std::uint64_t next_async_id() { return next_async_id_++; }

  // ---- Introspection / export ----------------------------------------------
  struct Track {
    std::string process;
    std::string name;
    std::deque<TraceRecord> records;  // time order (sim time is monotonic)
    std::uint64_t dropped = 0;        // evicted by ring mode
  };

  const std::vector<Track>& tracks() const { return tracks_; }
  const Interner& categories() const { return categories_; }
  const Interner& events() const { return events_; }
  const std::string& detail(std::uint32_t idx) const {
    return details_.at(static_cast<std::size_t>(idx));
  }
  std::size_t total_records() const;

  // Drops all records (tracks and interned names survive; cached ids held
  // by components stay valid).
  void clear();

 private:
  void push(TrackId track, TraceRecord rec);

  bool enabled_ = false;
  std::size_t ring_capacity_ = 0;
  std::uint64_t next_async_id_ = 1;
  std::vector<Track> tracks_;
  Interner track_keys_;  // "process\x1fname" -> TrackId
  Interner categories_;
  Interner events_;
  std::vector<std::string> details_;
};

}  // namespace ntbshmem::obs

// Protocol-ordering assertions over the always-on flight recorder: every
// host's ring of typed protocol records must obey the transport's
// invariants — barrier start/end signals alternate on every host, every
// frame sent is received exactly once, ops carry their target and size, a
// lost doorbell leaves a fault + recovery trail, and time never runs
// backwards. The rings are sized so nothing is evicted, and each check
// asserts that, so a truncated ring cannot make one pass vacuously.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using obs::BarrierSignal;
using obs::FlightCode;
using obs::FlightRecord;
using testing::pattern;
using testing::test_options;

RuntimeOptions ordered_options(int npes) {
  RuntimeOptions opts = test_options(npes);
  opts.obs.flight_capacity = 1u << 16;
  return opts;
}

// Every host's complete record stream, in host order.
std::vector<std::vector<FlightRecord>> host_rings(const Runtime& rt) {
  std::vector<std::vector<FlightRecord>> rings;
  for (const auto& [name, rec] : rt.obs().flights) {
    std::vector<FlightRecord> records = rec->recent();
    EXPECT_EQ(rec->total(), records.size()) << name << " evicted records";
    rings.push_back(std::move(records));
  }
  return rings;
}

bool is(const FlightRecord& r, FlightCode code) {
  return r.code == static_cast<std::uint16_t>(code);
}

// Recovery actions of the reliable-delivery layer.
bool is_retry(const FlightRecord& r) {
  for (const FlightCode code :
       {FlightCode::kAckInvalid, FlightCode::kAckTimeout, FlightCode::kNak,
        FlightCode::kRetransmit, FlightCode::kDmaError,
        FlightCode::kChecksumDrop, FlightCode::kDupDrop,
        FlightCode::kOooDrop}) {
    if (is(r, code)) return true;
  }
  return false;
}

// Fault instants FaultPlan put on the runtime's span tracer.
std::vector<obs::TraceRecord> fault_instants(const Runtime& rt) {
  for (const auto& track : rt.obs().tracer.tracks()) {
    if (track.process == "faults" && track.name == "injections") {
      return {track.records.begin(), track.records.end()};
    }
  }
  return {};
}

TEST(TraceTest, BarrierStartsPrecedeEndsPerHostAndRound) {
  Runtime rt(ordered_options(3));
  rt.run([&] {
    shmem_init();
    for (int i = 0; i < 3; ++i) shmem_barrier_all();
    shmem_finalize();
  });
  const auto rings = host_rings(rt);
  ASSERT_EQ(rings.size(), 3u);
  // Per host, the barrier signal stream must alternate start, end, start, ...
  for (std::size_t host = 0; host < rings.size(); ++host) {
    int starts = 0;
    int ends = 0;
    for (const FlightRecord& r : rings[host]) {
      if (!is(r, FlightCode::kBarrierRx)) continue;
      if (r.a == static_cast<std::uint16_t>(BarrierSignal::kStart)) {
        EXPECT_EQ(starts, ends) << "two starts without an end on host " << host;
        ++starts;
      } else if (r.a == static_cast<std::uint16_t>(BarrierSignal::kEnd)) {
        EXPECT_EQ(starts, ends + 1) << "end without a start on host " << host;
        ++ends;
      }
    }
    EXPECT_EQ(starts, ends);
    EXPECT_GT(starts, 0) << "host " << host << " saw no barrier signals";
  }
}

TEST(TraceTest, EveryReceivedFrameWasSentEarlier) {
  Runtime rt(ordered_options(3));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(8192));
    const auto data = pattern(4096, 1);
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 2);  // multi-hop
      std::vector<std::byte> sink(1024);
      shmem_getmem(sink.data(), buf, sink.size(), 1);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  // Conservation by frame: the multiset of (kind, origin, target, id)
  // descriptors must match between tx and rx.
  using Frame = std::pair<std::uint32_t, std::uint64_t>;  // (route, id)
  std::multiset<Frame> sent;
  std::multiset<Frame> received;
  for (const auto& ring : host_rings(rt)) {
    for (const FlightRecord& r : ring) {
      if (is(r, FlightCode::kFrameTx)) {
        sent.emplace(r.b & obs::kFrameRouteMask, r.c);
      } else if (is(r, FlightCode::kFrameRx)) {
        received.emplace(r.b & obs::kFrameRouteMask, r.c);
      }
    }
  }
  EXPECT_GT(sent.size(), 0u);
  EXPECT_EQ(sent.size(), received.size())
      << "every frame sent is received exactly once";
  EXPECT_EQ(sent, received);
  // The multi-hop put crossed the wire as frames naming PE 0 -> PE 2.
  bool put_route_seen = false;
  for (const Frame& f : sent) {
    const std::uint32_t route = f.first;
    if (((route >> 8) & 0xffu) == 0 && ((route >> 16) & 0xffu) == 2) {
      put_route_seen = true;
    }
  }
  EXPECT_TRUE(put_route_seen);
}

TEST(TraceTest, OpsAreRecordedWithSizes) {
  Runtime rt(ordered_options(2));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(1024));
    const auto data = pattern(512, 2);
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 1);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  const auto rings = host_rings(rt);
  ASSERT_EQ(rings.size(), 2u);
  // One PE per host, so PE 0's put is on host 0's ring.
  int puts = 0;
  for (const FlightRecord& r : rings[0]) {
    if (is(r, FlightCode::kPut)) {
      EXPECT_EQ(r.a, 1u) << "target pe";
      EXPECT_EQ(r.b, 512u) << "bytes";
      ++puts;
    }
  }
  EXPECT_EQ(puts, 1);
  for (const FlightRecord& r : rings[1]) EXPECT_FALSE(is(r, FlightCode::kPut));
}

TEST(TraceTest, FaultAndRetryEventsAreCategorized) {
  // A lost data doorbell under the reliable tuning must leave an audit
  // trail: the injection as a fault instant on the timeline, the timeout +
  // retransmit as retry-class flight records, and a clean run has neither.
  RuntimeOptions opts = ordered_options(3);
  opts.tuning = TransportTuning::reliable(TransportTuning{});
  opts.obs.spans_enabled = true;
  Runtime rt(opts);
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDoorbell, "host0.right:0");
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(4096));
    const auto data = pattern(4096, 4);
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 1);
      shmem_quiet();
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  EXPECT_EQ(fault_instants(rt).size(), 1u);
  std::size_t retries = 0;
  for (const auto& ring : host_rings(rt)) {
    for (const FlightRecord& r : ring) {
      if (is_retry(r)) ++retries;
    }
  }
  EXPECT_GE(retries, 2u)  // timeout + retransmit
      << "recovery actions must leave retry-class flight records";

  Runtime clean(opts);
  clean.run([&] {
    shmem_init();
    shmem_barrier_all();
    shmem_finalize();
  });
  EXPECT_TRUE(fault_instants(clean).empty());
  for (const auto& ring : host_rings(clean)) {
    for (const FlightRecord& r : ring) EXPECT_FALSE(is_retry(r)) << r.code;
  }
}

TEST(TraceTest, TimestampsAreMonotonic) {
  Runtime rt(ordered_options(3));
  rt.run([&] {
    shmem_init();
    shmem_barrier_all();
    shmem_finalize();
  });
  for (const auto& ring : host_rings(rt)) {
    EXPECT_FALSE(ring.empty());
    sim::Time last = 0;
    for (const FlightRecord& r : ring) {
      EXPECT_GE(r.t, last);
      last = r.t;
    }
  }
}

}  // namespace
}  // namespace ntbshmem::shmem

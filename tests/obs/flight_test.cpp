// FlightRecorder ring semantics: wraparound retention, dump-after-wrap
// ordering, capacity rounding and clear() — the post-mortem path must be
// trustworthy precisely when the ring has long since wrapped.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace ntbshmem::obs {
namespace {

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 512u);  // the documented default
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(500).capacity(), 512u);
}

TEST(FlightRecorderTest, RecentBeforeWrapKeepsEverythingInOrder) {
  FlightRecorder rec(8);
  for (int i = 0; i < 5; ++i) {
    rec.log(i * 10, FlightCode::kPut, static_cast<std::uint16_t>(i));
  }
  EXPECT_EQ(rec.total(), 5u);
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].t, i * 10);
    EXPECT_EQ(out[static_cast<std::size_t>(i)].a, i);
  }
}

TEST(FlightRecorderTest, WraparoundRetainsNewestCapacityRecordsOldestFirst) {
  FlightRecorder rec(4);
  // 11 records through a 4-slot ring: only 7..10 survive.
  for (int i = 0; i < 11; ++i) {
    rec.log(i, FlightCode::kFrameTx, static_cast<std::uint16_t>(i),
            static_cast<std::uint32_t>(100 + i),
            static_cast<std::uint64_t>(1000 + i));
  }
  EXPECT_EQ(rec.total(), 11u);
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const FlightRecord& r = out[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.t, 7 + i);  // oldest retained first, strictly ascending
    EXPECT_EQ(r.a, 7 + i);
    EXPECT_EQ(r.b, static_cast<std::uint32_t>(107 + i));
    EXPECT_EQ(r.c, static_cast<std::uint64_t>(1007 + i));
  }
}

TEST(FlightRecorderTest, WrapExactlyAtCapacityBoundary) {
  FlightRecorder rec(4);
  for (int i = 0; i < 4; ++i) rec.log(i, FlightCode::kAck);
  ASSERT_EQ(rec.recent().size(), 4u);
  EXPECT_EQ(rec.recent().front().t, 0);
  // One more evicts exactly the oldest.
  rec.log(4, FlightCode::kAck);
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().t, 1);
  EXPECT_EQ(out.back().t, 4);
}

TEST(FlightRecorderTest, DumpAfterWrapReportsEvictionsAndOrdering) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.log(i * 100, FlightCode::kRetransmit, 2,
            static_cast<std::uint32_t>(i));
  }
  std::ostringstream oss;
  dump_flight(rec, "host3", oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("flight recorder host3"), std::string::npos);
  EXPECT_NE(text.find("4 records retained, 6 evicted"), std::string::npos);
  // Newest-last: the retained records appear oldest first in the dump.
  const std::size_t p600 = text.find("[t=600ns] retransmit");
  const std::size_t p700 = text.find("[t=700ns] retransmit");
  const std::size_t p800 = text.find("[t=800ns] retransmit");
  const std::size_t p900 = text.find("[t=900ns] retransmit");
  ASSERT_NE(p600, std::string::npos);
  ASSERT_NE(p900, std::string::npos);
  EXPECT_LT(p600, p700);
  EXPECT_LT(p700, p800);
  EXPECT_LT(p800, p900);
  // Everything evicted is absent.
  EXPECT_EQ(text.find("[t=500ns]"), std::string::npos);
  EXPECT_EQ(text.find("[t=0ns]"), std::string::npos);
}

TEST(FlightRecorderTest, ClearResetsRetentionAndTotals) {
  FlightRecorder rec(4);
  for (int i = 0; i < 9; ++i) rec.log(i, FlightCode::kNak);
  rec.clear();
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.recent().empty());
  // The ring is reusable after clear, wrap semantics intact.
  for (int i = 0; i < 6; ++i) rec.log(50 + i, FlightCode::kBarrier);
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().t, 52);
  EXPECT_EQ(out.back().t, 55);
}

TEST(FlightRecorderTest, EveryCodeHasAStableName) {
  for (int code = 1; code <= 20; ++code) {
    EXPECT_STRNE(flight_code_name(static_cast<FlightCode>(code)), "unknown")
        << "code " << code;
  }
  EXPECT_STREQ(flight_code_name(static_cast<FlightCode>(999)), "unknown");
}

}  // namespace
}  // namespace ntbshmem::obs

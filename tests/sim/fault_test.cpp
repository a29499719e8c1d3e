// FaultPlan unit tests: stream determinism, (site, key) independence,
// zero-probability neutrality, one-shot arming, stats accounting and trace
// notes. These are the invariants the end-to-end golden-time and fuzz
// harnesses rely on (same seed => same schedule; zero spec => exactly free).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/branch.hpp"
#include "sim/fault.hpp"

namespace ntbshmem::sim {
namespace {

FaultSpec half_spec() {
  FaultSpec s;
  s.doorbell_drop = 0.5;
  s.scratchpad_corrupt = 0.5;
  s.dma_error = 0.5;
  s.tlp_drop = 0.05;
  s.tlp_corrupt = 0.05;
  s.irq_delay = 0.5;
  return s;
}

std::vector<bool> drop_sequence(FaultPlan& plan, const std::string& port,
                                int bit, int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(plan.drop_doorbell(i, port, bit));
  }
  return out;
}

TEST(FaultPlanTest, SameSeedSameSpecSameDecisions) {
  FaultPlan a(42, half_spec());
  FaultPlan b(42, half_spec());
  EXPECT_EQ(drop_sequence(a, "host0.right", 0, 200),
            drop_sequence(b, "host0.right", 0, 200));
  // Mixed-site sequences stay aligned too.
  for (int i = 0; i < 50; ++i) {
    std::uint32_t ma = 0;
    std::uint32_t mb = 0;
    const bool ca = a.corrupt_scratchpad(i, "host1.left", 3, &ma);
    const bool cb = b.corrupt_scratchpad(i, "host1.left", 3, &mb);
    EXPECT_EQ(ca, cb);
    EXPECT_EQ(ma, mb);  // identical XOR masks, not just identical firing
    EXPECT_EQ(a.tlp_replay_penalty(i, "link0-1.a2b", 65536, 256),
              b.tlp_replay_penalty(i, "link0-1.a2b", 65536, 256));
    EXPECT_EQ(a.irq_delivery_delay(i, "host2", 4),
              b.irq_delivery_delay(i, "host2", 4));
  }
  EXPECT_EQ(a.stats().total(), b.stats().total());
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  FaultPlan a(1, half_spec());
  FaultPlan b(2, half_spec());
  EXPECT_NE(drop_sequence(a, "host0.right", 0, 200),
            drop_sequence(b, "host0.right", 0, 200));
}

TEST(FaultPlanTest, StreamsArePerSiteAndKeyIndependent) {
  // Decisions on one key must not shift when traffic on other keys / other
  // sites is interleaved — this is what makes per-link fault schedules
  // stable as unrelated traffic changes.
  FaultPlan quiet(7, half_spec());
  const auto baseline = drop_sequence(quiet, "host0.right", 0, 100);

  FaultPlan noisy(7, half_spec());
  std::vector<bool> interleaved;
  for (int i = 0; i < 100; ++i) {
    noisy.drop_doorbell(i, "host1.right", 0);  // other key, same site
    std::uint32_t mask = 0;
    noisy.corrupt_scratchpad(i, "host0.right", 1, &mask);  // other site
    noisy.tlp_replay_penalty(i, "link0-1.b2a", 4096, 256);
    interleaved.push_back(noisy.drop_doorbell(i, "host0.right", 0));
  }
  EXPECT_EQ(baseline, interleaved);
}

TEST(FaultPlanTest, ZeroProbabilityNeverFiresAndDoesNotAdvanceStreams) {
  // A roll with prob <= 0 must not create or advance the stream, so an
  // all-zero plan interleaved with live sites is exactly state-neutral.
  FaultSpec zero;
  FaultPlan plain(9, half_spec());
  const auto baseline = drop_sequence(plain, "host0.right", 4, 100);

  FaultPlan mixed(9, half_spec());
  std::vector<bool> with_zero_site;
  for (int i = 0; i < 100; ++i) {
    // scratchpad_corrupt for this plan is 0.5 but dma/tlp zeroed out below
    // via a second zero-spec plan sharing nothing; here instead exercise the
    // same plan's zero-prob sites by masking the bit out.
    with_zero_site.push_back(mixed.drop_doorbell(i, "host0.right", 4));
  }
  EXPECT_EQ(baseline, with_zero_site);

  FaultPlan zplan(9, zero);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(zplan.drop_doorbell(i, "host0.right", 0));
    std::uint32_t mask = 0;
    EXPECT_FALSE(zplan.corrupt_scratchpad(i, "host0.right", 0, &mask));
    EXPECT_FALSE(zplan.dma_descriptor_error(i, "host0.right"));
    EXPECT_EQ(zplan.tlp_replay_penalty(i, "link0-1.a2b", 1 << 20, 256), 0);
    EXPECT_EQ(zplan.irq_delivery_delay(i, "host0", 0), 0);
  }
  EXPECT_EQ(zplan.stats().total(), 0u);
}

TEST(FaultPlanTest, DoorbellDropMaskGatesEligibility) {
  FaultSpec s;
  s.doorbell_drop = 1.0;
  s.doorbell_drop_mask = 0x0001;  // only bit 0 eligible
  FaultPlan plan(3, s);
  EXPECT_TRUE(plan.drop_doorbell(0, "host0.right", 0));
  EXPECT_FALSE(plan.drop_doorbell(1, "host0.right", 2));
  EXPECT_FALSE(plan.drop_doorbell(2, "host0.right", 3));
}

TEST(FaultPlanTest, OneShotFiresRegardlessOfProbabilityThenExpires) {
  FaultPlan plan(11, FaultSpec{});  // all probabilities zero
  plan.arm_one_shot(FaultPlan::Site::kDoorbell, "host0.right:0", 2);
  EXPECT_TRUE(plan.drop_doorbell(0, "host0.right", 0));
  EXPECT_TRUE(plan.drop_doorbell(1, "host0.right", 0));
  EXPECT_FALSE(plan.drop_doorbell(2, "host0.right", 0));
  // One-shots are keyed: the same site under a different key is untouched.
  plan.arm_one_shot(FaultPlan::Site::kDma, "host1.left");
  EXPECT_FALSE(plan.dma_descriptor_error(3, "host0.right"));
  EXPECT_TRUE(plan.dma_descriptor_error(4, "host1.left"));
  EXPECT_EQ(plan.stats().doorbells_dropped, 2u);
  EXPECT_EQ(plan.stats().dma_errors, 1u);
  EXPECT_EQ(plan.stats().total(), 3u);
}

TEST(FaultPlanTest, OneShotOverridesDropMask) {
  FaultSpec s;
  s.doorbell_drop_mask = 0;  // nothing eligible for random drops
  FaultPlan plan(13, s);
  plan.arm_one_shot(FaultPlan::Site::kDoorbell, "host0.right:2");
  EXPECT_TRUE(plan.drop_doorbell(0, "host0.right", 2));
}

// quiet() lets key-building callers skip a decision that cannot fire; it
// must turn false whenever any path through the decision could fire.
TEST(FaultPlanTest, QuietOnlyWhenNoDecisionCanFire) {
  using Site = FaultPlan::Site;
  const Site sites[] = {Site::kDoorbell, Site::kScratchpad, Site::kDma,
                        Site::kTlp, Site::kIrq};
  FaultPlan zero(19, FaultSpec{});
  for (const Site site : sites) EXPECT_TRUE(zero.quiet(site));

  FaultSpec corrupt_only;
  corrupt_only.tlp_corrupt = 0.01;
  FaultPlan tlp(19, corrupt_only);
  EXPECT_FALSE(tlp.quiet(Site::kTlp));
  EXPECT_TRUE(tlp.quiet(Site::kDoorbell));

  // An armed one-shot anywhere, even on a masked doorbell bit, disables
  // the shortcut everywhere until it is consumed.
  FaultSpec masked;
  masked.doorbell_drop_mask = 0;
  FaultPlan armed(19, masked);
  armed.arm_one_shot(Site::kDoorbell, "host0.right:4");
  for (const Site site : sites) EXPECT_FALSE(armed.quiet(site));
  EXPECT_TRUE(armed.drop_doorbell(0, "host0.right", 4));
  EXPECT_TRUE(armed.quiet(Site::kDoorbell));

  // Explore mode offers every eligible site to the hook.
  struct DeclineAll : BranchHook {
    std::size_t choose_dispatch(std::size_t) override { return 0; }
    bool choose_fault(int, const std::string&) override { return false; }
  } hook;
  zero.set_branch_hook(&hook, ~0u, 1);
  for (const Site site : sites) EXPECT_FALSE(zero.quiet(site));
}

TEST(FaultPlanTest, CorruptionMaskIsNeverZero) {
  FaultSpec s;
  s.scratchpad_corrupt = 1.0;
  FaultPlan plan(17, s);
  for (int i = 0; i < 200; ++i) {
    std::uint32_t mask = 0;
    ASSERT_TRUE(plan.corrupt_scratchpad(i, "host0.right", i % 8, &mask));
    EXPECT_NE(mask, 0u) << "a zero XOR mask is a no-op corruption";
  }
}

TEST(FaultPlanTest, TlpPenaltyScalesWithCertainty) {
  FaultSpec s;
  s.tlp_drop = 1.0;
  s.tlp_corrupt = 1.0;
  s.tlp_replay_ns = 1000;
  FaultPlan plan(19, s);
  // Both classes certain: one replay round each.
  EXPECT_EQ(plan.tlp_replay_penalty(0, "link0-1.a2b", 4096, 256), 2000);
  EXPECT_EQ(plan.stats().tlp_replays, 2u);
}

TEST(FaultPlanTest, IrqDelayReturnsConfiguredLatency) {
  FaultSpec s;
  s.irq_delay = 1.0;
  s.irq_delay_ns = 777;
  FaultPlan plan(23, s);
  EXPECT_EQ(plan.irq_delivery_delay(0, "host0", 1), 777);
  EXPECT_EQ(plan.stats().irq_delays, 1u);
}

TEST(FaultPlanTest, SpecAnyReflectsConfiguration) {
  EXPECT_FALSE(FaultSpec{}.any());
  FaultSpec s;
  s.tlp_corrupt = 0.01;
  EXPECT_TRUE(s.any());
  FaultSpec f;
  f.link_flaps.push_back(LinkFlap{0, 100, 200});
  EXPECT_TRUE(f.any());
}

TEST(FaultPlanTest, InjectionsAreTracedUnderFaultCategory) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  FaultPlan plan(29, FaultSpec{});
  plan.bind_tracer(&tracer);
  plan.arm_one_shot(FaultPlan::Site::kDoorbell, "host0.right:0");
  plan.arm_one_shot(FaultPlan::Site::kIrq, "host1");
  plan.drop_doorbell(5, "host0.right", 0);
  plan.irq_delivery_delay(6, "host1", 3);
  ASSERT_EQ(tracer.tracks().size(), 1u);
  const obs::Tracer::Track& track = tracer.tracks()[0];
  EXPECT_EQ(track.process, "faults");
  EXPECT_EQ(track.name, "injections");
  ASSERT_EQ(track.records.size(), 2u);
  for (const obs::TraceRecord& r : track.records) {
    EXPECT_EQ(r.kind, obs::RecordKind::kInstant);
    EXPECT_EQ(tracer.categories().name(r.category), "fault");
  }
  EXPECT_EQ(tracer.detail(track.records[0].detail),
            "doorbell drop host0.right:0");
  EXPECT_EQ(track.records[0].t, 5);
  EXPECT_EQ(tracer.detail(track.records[1].detail), "irq delay host1 vec3");
  EXPECT_EQ(track.records[1].t, 6);

  // A disabled tracer records nothing; the injection itself still fires.
  tracer.set_enabled(false);
  plan.arm_one_shot(FaultPlan::Site::kDoorbell, "host0.right:0");
  EXPECT_TRUE(plan.drop_doorbell(7, "host0.right", 0));
  EXPECT_EQ(track.records.size(), 2u);
}

}  // namespace
}  // namespace ntbshmem::sim

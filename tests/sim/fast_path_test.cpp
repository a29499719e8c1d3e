// Parity tests for the engine's run-next fast path: a wait_until/yield whose
// wake-up would be the very next dispatch keeps running on its own fiber
// instead of round-tripping through the queue. Installing a branch hook
// turns the fast path off, and a hook that always picks index 0 dispatches
// in the unhooked order, so the same workload run both ways must produce
// the same schedule digest, dispatch count, clock and callback-slot use.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/branch.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace ntbshmem::sim {
namespace {

// Follows the default (tie, seq) order everywhere; installing it only
// forces every dispatch through the queue.
class DefaultHook : public BranchHook {
 public:
  std::size_t choose_dispatch(std::size_t) override {
    ++choices;
    return 0;
  }
  bool choose_fault(int, const std::string&) override { return false; }
  std::uint64_t choices = 0;
};

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t digest_count = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t fast = 0;
  std::uint64_t slots_created = 0;
  std::uint64_t probe_slots = 0;
  Time end = 0;
  std::vector<std::string> log;
};

// One mixed workload: timer chains with call_after + cancel, Event::wait_for
// timeouts racing notify_all at the same instants, yields, a daemon that
// outlives the first run(), and a second run() with fresh processes and far
// timers parked in the calendar queue's overflow ladder.
Outcome run_mixed(std::uint64_t tiebreak_seed, BranchHook* hook) {
  Engine engine;
  engine.set_tiebreak_permutation(tiebreak_seed);
  engine.enable_schedule_digest();
  engine.set_branch_hook(hook);
  Outcome out;
  Event doorbell(engine, "doorbell");
  int fired = 0;
  bool stop_svc = false;
  auto note = [&](const std::string& what) {
    out.log.push_back(what + "@" + std::to_string(engine.now()));
  };

  // Runs before any callback has fired, so the slot pool has no free slot.
  engine.spawn("probe", [&] {
    engine.wait_for(nsec(1));  // behind every t=0 start
    // The queue head is a cancelled timer just past the next wake-up. It
    // stays queued until popped at t=4, so its slot is not yet free and the
    // timer after the wake-up needs a new one.
    CallbackHandle doomed = engine.call_after(nsec(3), [&] { ++fired; });
    doomed.cancel();
    engine.wait_for(nsec(1));
    engine.call_after(nsec(5), [&] { ++fired; });
    out.probe_slots = engine.alloc_stats().callback_slots_created;
    // A wake-up queued for this process goes stale once it runs on.
    engine.schedule_process(engine.now() + nsec(300), engine.current());
    engine.wait_for(nsec(2));
    engine.wait_for(nsec(1000));
    note("probe.woke");
  });

  // Daemon service loop: timed waits that the notifier races.
  engine.spawn(
      "svc",
      [&] {
        while (!stop_svc) {
          if (doorbell.wait_for(nsec(700))) {
            note("svc.notified");
          } else {
            note("svc.timeout");
          }
          engine.wait_for(nsec(50));
          engine.yield();
        }
      },
      /*daemon=*/true);

  for (int p = 0; p < 4; ++p) {
    engine.spawn("chain" + std::to_string(p), [&, p] {
      for (int step = 0; step < 40; ++step) {
        // A timer that fires, and one cancelled before it can.
        engine.call_after(nsec(30 + 10 * p), [&] { ++fired; });
        CallbackHandle doomed =
            engine.call_after(nsec(90 + step), [&] { ++fired; });
        engine.wait_for(nsec(20 + (step % 3) * 5));
        if ((step + p) % 2 == 0) doomed.cancel();
        engine.wait_for(nsec(7 * p + 1));
        if (step % 5 == 0) engine.yield();
        if (step % 9 == p) {
          doorbell.notify_all();  // lands on svc timeouts at times
          note("chain" + std::to_string(p) + ".notify");
        }
      }
    });
  }
  // The notifier hits exact multiples of the svc timeout.
  engine.spawn("notifier", [&] {
    for (int i = 1; i <= 6; ++i) {
      engine.wait_until(nsec(750 * i));
      doorbell.notify_all();
    }
  });
  engine.run();
  note("run1");

  // Second run: the daemon is still parked; a lone long chain gives the
  // fast path room between the daemon's wake-ups. Then the daemon retires
  // and far timers park in the overflow ladder behind a near one. Once the
  // near one fires the wheel is empty, and a wake-up tied with the far
  // timer, or past it, must still let the far timer run first.
  engine.spawn("solo", [&] {
    for (int step = 0; step < 200; ++step) {
      engine.wait_for(nsec(3));
      if (step % 50 == 0) engine.yield();
    }
    note("solo.chain");
    stop_svc = true;
    doorbell.notify_all();
    engine.wait_for(nsec(10));
    for (const char* phase : {"tie", "past"}) {
      const Time far = engine.now() + msec(40);
      engine.call_after(nsec(100), [&] { note("near"); });
      engine.call_at(far, [&, phase] { note(std::string("far.") + phase); });
      engine.wait_for(nsec(200));
      engine.wait_until(phase == std::string("tie") ? far : far + msec(10));
      note(std::string("solo.") + phase);
    }
  });
  engine.run();
  note("run2");

  out.digest = engine.schedule_digest().value();
  out.digest_count = engine.schedule_digest().count();
  out.dispatches = engine.dispatch_count();
  out.fast = engine.fast_dispatch_count();
  out.slots_created = engine.alloc_stats().callback_slots_created;
  out.end = engine.now();
  out.log.push_back("fired=" + std::to_string(fired));
  engine.set_branch_hook(nullptr);
  return out;
}

class FastPathParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathParity, SlowPathsReplayTheSameSchedule) {
  const Outcome fast = run_mixed(GetParam(), nullptr);
  DefaultHook hook;
  const Outcome hooked = run_mixed(GetParam(), &hook);

  EXPECT_EQ(fast.digest, hooked.digest);
  EXPECT_EQ(fast.digest_count, hooked.digest_count);
  EXPECT_EQ(fast.dispatches, hooked.dispatches);
  EXPECT_EQ(fast.end, hooked.end);
  EXPECT_EQ(fast.log, hooked.log);
  EXPECT_EQ(hooked.fast, 0u);
  // Collecting a frontier must not retire cancelled slots ahead of the
  // unhooked pop order, or the hooked run allocates fewer slots.
  EXPECT_EQ(fast.probe_slots, hooked.probe_slots);
  EXPECT_EQ(fast.slots_created, hooked.slots_created);

  // Not vacuous: the plain run took the fast path, and the hook actually
  // arbitrated same-instant frontiers.
  EXPECT_GT(fast.fast, 0u);
  EXPECT_LT(fast.fast, fast.dispatches);
  EXPECT_GT(hook.choices, 0u);
  EXPECT_EQ(fast.digest_count, fast.dispatches);
}

INSTANTIATE_TEST_SUITE_P(TieBreakSeeds, FastPathParity,
                         ::testing::Values(std::uint64_t{0},
                                           std::uint64_t{0x9e3779b9}));

// A lone process never leaves its fiber: every wait is the next dispatch.
TEST(FastPathTest, LoneProcessRunsEveryWaitInPlace) {
  Engine engine;
  engine.spawn("p", [&] {
    for (int i = 0; i < 10; ++i) engine.wait_for(nsec(5));
    engine.yield();
  });
  engine.run();
  EXPECT_EQ(engine.now(), 50);
  EXPECT_EQ(engine.dispatch_count(), 12u);      // start + 10 waits + yield
  EXPECT_EQ(engine.fast_dispatch_count(), 11u);  // all but the first start
}

// Work queued at the wake-up instant runs first, as FIFO order demands.
TEST(FastPathTest, SameInstantWorkTakesTheSlowPath) {
  Engine engine;
  std::vector<std::string> order;
  engine.spawn("a", [&] {
    engine.call_after(nsec(10), [&] { order.push_back("cb@10"); });
    engine.wait_for(nsec(10));
    order.push_back("a@10");
  });
  engine.run();
  const std::vector<std::string> want = {"cb@10", "a@10"};
  EXPECT_EQ(order, want);
  EXPECT_EQ(engine.fast_dispatch_count(), 0u);
}

}  // namespace
}  // namespace ntbshmem::sim

// Deterministic fault-injection plan for the simulated fabric.
//
// A FaultPlan is a seeded source of failure decisions that hardware models
// consult at well-defined sites: doorbell delivery (NtbPort::ring_doorbell),
// ScratchPad register writes, DMA descriptor programming, per-TLP link
// transfer (CRC-detected drop/corrupt -> replay penalty) and host interrupt
// delivery (delayed/coalesced vectors). Scheduled link flaps ride along in
// the spec and are applied by the runtime with Engine::call_at.
//
// Determinism: every (site, key) pair owns an independent splitmix64 stream
// derived from the plan seed and an FNV-1a hash of the key, so decisions at
// one site never perturb another site's sequence — adding traffic on link A
// cannot change which frame is dropped on link B. Same seed + same spec +
// same per-site call sequence => identical decisions (asserted by
// tests/sim/fault_test.cpp and replayed end-to-end by the fuzz harness).
//
// All probability rolls early-return without touching the stream when the
// configured probability is zero, so an attached all-zero plan is exactly
// free: no waits, no state, bit-identical virtual times (the golden-time
// tests run with a zero plan attached). Sites that build a key string per
// decision (the doorbell "<port>:<bit>", the link wire name) first ask
// quiet(), so an idle site costs a few compares and no allocation.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace ntbshmem::obs {
class Tracer;
}  // namespace ntbshmem::obs

namespace ntbshmem::sim {

class BranchHook;

// One scheduled cable outage: link index `link` goes down at `down_at` and
// retrains at `up_at` (virtual times).
struct LinkFlap {
  int link = 0;
  Time down_at = 0;
  Time up_at = 0;
};

// Injection probabilities and magnitudes. All probabilities are per decision
// (per doorbell ring, per register write, per DMA descriptor, per transfer,
// per interrupt delivery); zero disables the site entirely.
struct FaultSpec {
  double doorbell_drop = 0.0;       // lost doorbell ring (no latch, no IRQ)
  double scratchpad_corrupt = 0.0;  // flipped bits in a ScratchPad write
  double dma_error = 0.0;           // DMA descriptor rejected (error status)
  double tlp_drop = 0.0;            // per-TLP loss -> DLLP replay penalty
  double tlp_corrupt = 0.0;         // per-TLP LCRC error -> replay penalty
  double irq_delay = 0.0;           // vector delayed (coalesced) by irq_delay_ns

  Dur irq_delay_ns = 200 * kUs;  // extra delivery latency when irq_delay fires
  Dur tlp_replay_ns = 30 * kUs;  // one link-layer replay round per TLP event

  // Doorbell bits eligible for drop injection. The runtime clears the
  // barrier-circulation bits: barrier doorbells are modelled as a reliable
  // control path (they have no retransmit timer; see DESIGN.md §4b).
  std::uint16_t doorbell_drop_mask = 0xffff;

  // Scheduled outages applied via Engine::call_at at runtime construction.
  std::vector<LinkFlap> link_flaps;

  bool any() const {
    return doorbell_drop > 0.0 || scratchpad_corrupt > 0.0 || dma_error > 0.0 ||
           tlp_drop > 0.0 || tlp_corrupt > 0.0 || irq_delay > 0.0 ||
           !link_flaps.empty();
  }
};

// Counters of injected events (what actually fired, not what was rolled).
struct FaultStats {
  std::uint64_t doorbells_dropped = 0;
  std::uint64_t scratchpads_corrupted = 0;
  std::uint64_t dma_errors = 0;
  std::uint64_t tlp_replays = 0;
  std::uint64_t irq_delays = 0;

  std::uint64_t total() const {
    return doorbells_dropped + scratchpads_corrupted + dma_errors +
           tlp_replays + irq_delays;
  }
};

class FaultPlan {
 public:
  enum class Site : std::uint8_t {
    kDoorbell = 1,
    kScratchpad = 2,
    kDma = 3,
    kTlp = 4,
    kIrq = 5,
  };

  explicit FaultPlan(std::uint64_t seed, FaultSpec spec = {});
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  std::uint64_t seed() const { return seed_; }
  const FaultSpec& spec() const { return spec_; }
  FaultSpec& spec() { return spec_; }

  // While `tracer` is enabled, each injected event lands on it as a "fault"
  // instant on track ("faults", "injections") whose detail names the site
  // (e.g. "doorbell drop host0.right:0"). nullptr detaches; a disabled
  // tracer costs one branch per injection.
  void bind_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Arms `count` guaranteed injections at (site, key) that fire on the next
  // `count` decisions there regardless of the configured probability —
  // the targeted-test hook ("drop exactly the 3rd doorbell on host0.right").
  // Keys: doorbell -> "<port>:<bit>"; scratchpad/dma -> "<port>";
  // tlp -> "<wire>" (e.g. "link0-1.a2b"); irq -> "<controller>".
  void arm_one_shot(Site site, const std::string& key, int count = 1);

  // ---- Exploration mode (sim/branch.hpp, tools/mck) -------------------------
  // Routes every eligible decision through `hook` instead of the seeded
  // probability roll / one-shot ladder, turning each fault site into an
  // explicit branch point. `site_mask` has bit (1u << Site) set for each
  // site eligible to branch (ineligible sites never fire and never consult
  // the hook); `fire_budget` bounds the number of firings per run — once
  // exhausted, remaining decisions skip without consulting the hook, which
  // keeps the explored tree finite. The doorbell drop mask still applies
  // *before* the hook, so masked bits (the barrier-circulation bits the
  // runtime clears) never become branch points. nullptr detaches and
  // restores the seeded behavior.
  void set_branch_hook(BranchHook* hook, std::uint32_t site_mask,
                       int fire_budget);
  BranchHook* branch_hook() const { return hook_; }
  // Firings consumed from the budget on the current run (reset by
  // set_branch_hook).
  int fires_used() const { return fires_used_; }

  // True when no decision at `site` can fire: no branch hook, no armed
  // one-shot anywhere and zero probability for the site. Callers that build
  // a key string per decision check it first and skip the call.
  bool quiet(Site site) const;

  // ---- Decision sites (called by the hardware models) -----------------------
  // True => this doorbell ring is silently lost.
  bool drop_doorbell(Time now, const std::string& port, int bit);
  // True => XOR `*xor_mask` (never zero) into the written register value.
  bool corrupt_scratchpad(Time now, const std::string& port, int reg,
                          std::uint32_t* xor_mask);
  // True => the DMA engine rejects the descriptor (error status, no data).
  bool dma_descriptor_error(Time now, const std::string& port);
  // Extra link-occupancy delay for a `bytes`-sized transfer whose TLPs are
  // `max_payload` bytes each: each of drop/corrupt fires with probability
  // 1-(1-p)^n_tlps and adds one tlp_replay_ns replay round. Zero when
  // nothing fires (the common case; callers skip the wait entirely).
  Dur tlp_replay_penalty(Time now, const std::string& wire, std::uint64_t bytes,
                         std::uint32_t max_payload);
  // Extra delivery latency for one interrupt vector (0 = on time).
  Dur irq_delivery_delay(Time now, const std::string& controller, int vector);

  const FaultStats& stats() const { return stats_; }

 private:
  // Uniform [0,1) draw from the (site, key) stream; prob <= 0 short-circuits
  // to false without creating or advancing the stream.
  bool roll(Site site, const std::string& key, double prob);
  // Explore-mode decision for (site, key): false when the site is masked
  // out or the fire budget is spent; otherwise whatever the hook chooses
  // (a firing consumes one budget unit).
  bool explore_decision(Site site, const std::string& key);
  bool take_one_shot(Site site, const std::string& key);
  std::uint64_t& stream(Site site, const std::string& key);
  std::uint32_t draw_mask(Site site, const std::string& key);
  void note(Time now, const std::string& message);

  std::uint64_t seed_;
  FaultSpec spec_;
  obs::Tracer* tracer_ = nullptr;
  BranchHook* hook_ = nullptr;  // explore mode when non-null
  std::uint32_t hook_site_mask_ = 0;
  int fire_budget_ = 0;
  int fires_used_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> streams_;
  std::unordered_map<std::uint64_t, int> one_shots_;
  FaultStats stats_;
};

}  // namespace ntbshmem::sim

#include "sim/fault.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "sim/branch.hpp"

namespace ntbshmem::sim {

namespace {

// FNV-1a 64-bit over the site tag and key bytes. std::hash is not used on
// purpose: its value is implementation-defined, and stream identities must
// be stable across platforms for seeds to be shareable in bug reports.
std::uint64_t site_hash(FaultPlan::Site site, const std::string& key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = (h ^ static_cast<std::uint64_t>(site)) * 0x100000001b3ull;
  for (const char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double to_unit(std::uint64_t r) {
  return static_cast<double>(r >> 11) * 0x1.0p-53;
}

// Probability that at least one of `n` independent per-TLP events with
// probability `p` fires during a transfer.
double per_transfer_prob(double p, std::uint64_t n_tlps) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - p, static_cast<double>(n_tlps));
}

}  // namespace

FaultPlan::FaultPlan(std::uint64_t seed, FaultSpec spec)
    : seed_(seed), spec_(spec) {}

void FaultPlan::arm_one_shot(Site site, const std::string& key, int count) {
  one_shots_[site_hash(site, key)] += count;
}

bool FaultPlan::take_one_shot(Site site, const std::string& key) {
  if (one_shots_.empty()) return false;
  auto it = one_shots_.find(site_hash(site, key));
  if (it == one_shots_.end() || it->second <= 0) return false;
  if (--it->second == 0) one_shots_.erase(it);
  return true;
}

std::uint64_t& FaultPlan::stream(Site site, const std::string& key) {
  const std::uint64_t h = site_hash(site, key);
  // Fold the seed into the initial state so two plans with different seeds
  // produce unrelated sequences at every site.
  return streams_.try_emplace(h, seed_ ^ h ^ 0x6a09e667f3bcc909ull)
      .first->second;
}

bool FaultPlan::roll(Site site, const std::string& key, double prob) {
  if (prob <= 0.0) return false;
  return to_unit(splitmix64(stream(site, key))) < prob;
}

void FaultPlan::set_branch_hook(BranchHook* hook, std::uint32_t site_mask,
                                int fire_budget) {
  hook_ = hook;
  hook_site_mask_ = site_mask;
  fire_budget_ = fire_budget;
  fires_used_ = 0;
}

bool FaultPlan::explore_decision(Site site, const std::string& key) {
  if ((hook_site_mask_ & (1u << static_cast<unsigned>(site))) == 0) {
    return false;
  }
  if (fires_used_ >= fire_budget_) return false;
  if (!hook_->choose_fault(static_cast<int>(site), key)) return false;
  ++fires_used_;
  return true;
}

std::uint32_t FaultPlan::draw_mask(Site site, const std::string& key) {
  // Any nonzero XOR mask corrupts; force the low bit so a zero draw cannot
  // produce a no-op "corruption".
  return static_cast<std::uint32_t>(splitmix64(stream(site, key))) | 1u;
}

void FaultPlan::note(Time now, const std::string& message) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  // Injections are rare: interning per note is fine, and doing it lazily
  // keeps the track out of exports of runs that inject nothing.
  tracer_->instant_detail(tracer_->track("faults", "injections"),
                          tracer_->category("fault"), tracer_->event("fault"),
                          now, message);
}

bool FaultPlan::quiet(Site site) const {
  if (hook_ != nullptr || !one_shots_.empty()) return false;
  switch (site) {
    case Site::kDoorbell: return spec_.doorbell_drop <= 0.0;
    case Site::kScratchpad: return spec_.scratchpad_corrupt <= 0.0;
    case Site::kDma: return spec_.dma_error <= 0.0;
    case Site::kTlp: return spec_.tlp_drop <= 0.0 && spec_.tlp_corrupt <= 0.0;
    case Site::kIrq: return spec_.irq_delay <= 0.0;
  }
  return false;
}

bool FaultPlan::drop_doorbell(Time now, const std::string& port, int bit) {
  if (quiet(Site::kDoorbell)) return false;
  const std::string key = port + ":" + std::to_string(bit);
  if (hook_ != nullptr) {
    // Mask check FIRST: a masked bit (barrier circulation) must not become
    // a branch point — dropping it would be an unrecoverable false deadlock.
    if ((spec_.doorbell_drop_mask & (1u << bit)) == 0) return false;
    if (!explore_decision(Site::kDoorbell, key)) return false;
  } else {
    const bool armed = take_one_shot(Site::kDoorbell, key);
    if (!armed) {
      if ((spec_.doorbell_drop_mask & (1u << bit)) == 0) return false;
      if (!roll(Site::kDoorbell, key, spec_.doorbell_drop)) return false;
    }
  }
  ++stats_.doorbells_dropped;
  note(now, "doorbell drop " + key);
  return true;
}

bool FaultPlan::corrupt_scratchpad(Time now, const std::string& port, int reg,
                                   std::uint32_t* xor_mask) {
  if (hook_ != nullptr) {
    if (!explore_decision(Site::kScratchpad, port)) return false;
  } else if (!take_one_shot(Site::kScratchpad, port) &&
             !roll(Site::kScratchpad, port, spec_.scratchpad_corrupt)) {
    return false;
  }
  *xor_mask = draw_mask(Site::kScratchpad, port);
  ++stats_.scratchpads_corrupted;
  note(now, "scratchpad corrupt " + port + " reg" + std::to_string(reg));
  return true;
}

bool FaultPlan::dma_descriptor_error(Time now, const std::string& port) {
  if (hook_ != nullptr) {
    if (!explore_decision(Site::kDma, port)) return false;
  } else if (!take_one_shot(Site::kDma, port) &&
             !roll(Site::kDma, port, spec_.dma_error)) {
    return false;
  }
  ++stats_.dma_errors;
  note(now, "dma descriptor error " + port);
  return true;
}

Dur FaultPlan::tlp_replay_penalty(Time now, const std::string& wire,
                                  std::uint64_t bytes,
                                  std::uint32_t max_payload) {
  const std::uint64_t payload = max_payload > 0 ? max_payload : 1;
  const std::uint64_t n_tlps = bytes == 0 ? 1 : (bytes + payload - 1) / payload;
  Dur penalty = 0;
  if (hook_ != nullptr) {
    // Explore mode: one branch per transfer (drop-and-replay or clean);
    // the drop/corrupt distinction only differs in trace wording.
    if (explore_decision(Site::kTlp, wire)) {
      penalty = spec_.tlp_replay_ns;
      ++stats_.tlp_replays;
      note(now, "tlp drop replay " + wire);
    }
    return penalty;
  }
  if (take_one_shot(Site::kTlp, wire) ||
      roll(Site::kTlp, wire, per_transfer_prob(spec_.tlp_drop, n_tlps))) {
    penalty += spec_.tlp_replay_ns;
    ++stats_.tlp_replays;
    note(now, "tlp drop replay " + wire);
  }
  if (roll(Site::kTlp, wire, per_transfer_prob(spec_.tlp_corrupt, n_tlps))) {
    penalty += spec_.tlp_replay_ns;
    ++stats_.tlp_replays;
    note(now, "tlp lcrc replay " + wire);
  }
  return penalty;
}

Dur FaultPlan::irq_delivery_delay(Time now, const std::string& controller,
                                  int vector) {
  if (hook_ != nullptr) {
    if (!explore_decision(Site::kIrq, controller)) return 0;
  } else if (!take_one_shot(Site::kIrq, controller) &&
             !roll(Site::kIrq, controller, spec_.irq_delay)) {
    return 0;
  }
  ++stats_.irq_delays;
  note(now, "irq delay " + controller + " vec" + std::to_string(vector));
  return spec_.irq_delay_ns;
}

}  // namespace ntbshmem::sim

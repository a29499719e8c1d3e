#include "mck.hpp"

#include <cstdint>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "shmem/options.hpp"
#include "shmem/runtime.hpp"
#include "shmem/transport.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace ntbshmem::mck {

namespace {

// A model postcondition failure: the interleaving produced a wrong answer.
class ModelViolation : public std::runtime_error {
 public:
  explicit ModelViolation(const std::string& what)
      : std::runtime_error(what) {}
};

// The drain phase gave the protocol ample virtual time and it never went
// quiescent: work is stuck (lost frame, stranded credit, unserviced
// doorbell). Classified as a deadlock, with the pending summary attached.
class QuiescenceTimeout : public std::runtime_error {
 public:
  explicit QuiescenceTimeout(const std::string& what)
      : std::runtime_error(what) {}
};

shmem::RuntimeOptions make_config(const std::string& name) {
  shmem::RuntimeOptions o;
  // Uniform link rates: symmetric timing maximises state merging across
  // interleavings (asymmetric per-link spreads make every host pair reach
  // distinct timestamps, defeating the hash pruning for no model value).
  o.link_dma_rates_Bps.clear();
  if (name == "paper2") {
    o.npes = 2;
  } else if (name == "paper3") {
    o.npes = 3;
  } else if (name == "allon3") {
    o.npes = 3;
    o.tuning = shmem::TransportTuning::reliable(
        shmem::TransportTuning::all_on(/*credits=*/2));
  } else {
    throw std::invalid_argument("mck: unknown config '" + name +
                                "' (want paper2 | paper3 | allon3)");
  }
  return o;
}

// ---- Workload models -------------------------------------------------------
// Bodies run inside PE processes; postconditions throw ModelViolation.

void model_put_barrier() {
  shmem::Context* ctx = shmem::Runtime::current();
  const int npes = ctx->npes();
  const int me = ctx->pe();
  auto* slots = static_cast<std::uint64_t*>(
      ctx->sym_calloc(static_cast<std::size_t>(npes), sizeof(std::uint64_t)));
  const std::uint64_t mine =
      static_cast<std::uint64_t>(me + 1) * 0x1111u;
  for (int t = 0; t < npes; ++t) {
    if (t == me) continue;
    ctx->putmem(&slots[me], &mine, sizeof(mine), t);
  }
  ctx->quiet();
  ctx->barrier_all();
  for (int t = 0; t < npes; ++t) {
    const std::uint64_t want =
        t == me ? 0 : static_cast<std::uint64_t>(t + 1) * 0x1111u;
    if (slots[t] != want) {
      std::ostringstream oss;
      oss << "put_barrier: pe " << me << " slot " << t << " holds 0x"
          << std::hex << slots[t] << ", want 0x" << want
          << " after barrier release";
      throw ModelViolation(oss.str());
    }
  }
}

void model_notify() {
  shmem::Context* ctx = shmem::Runtime::current();
  const int npes = ctx->npes();
  const int me = ctx->pe();
  auto* flag =
      static_cast<std::uint64_t*>(ctx->sym_calloc(1, sizeof(std::uint64_t)));
  const int last = npes - 1;
  if (me == 0) {
    const std::uint64_t v = 42;
    ctx->putmem(flag, &v, sizeof(v), last);
    ctx->quiet();
  } else if (me == last) {
    // Correct write-before-notify delivery terminates this loop in every
    // interleaving: whichever heap change wakes us, the flag write has
    // already landed by the time its own notification fires. Under the
    // ack-before-write mutation the notify arrives with the heap still
    // stale and the deferred write never re-notifies — the loop re-blocks
    // forever and mck reports the stranded waiter as a deadlock.
    while (*flag != 42) ctx->wait_heap_change();
  }
}

std::function<void()> model_body(const std::string& name) {
  if (name == "put_barrier") return model_put_barrier;
  if (name == "notify") return model_notify;
  throw std::invalid_argument("mck: unknown model '" + name +
                              "' (want put_barrier | notify)");
}

// Deliveries the exactly-once ledger must show after a clean run.
std::uint64_t expected_puts(const std::string& model, int npes) {
  if (model == "put_barrier") {
    return static_cast<std::uint64_t>(npes) *
           static_cast<std::uint64_t>(npes - 1);
  }
  return 1;  // notify
}

// Runs the engine until every transport drains. The poller is a non-daemon
// process, so service daemons (ack handling, retransmit timers) stay live
// while it waits; a protocol that cannot drain within the poll budget is
// stuck, not slow — every recovery path (retransmit ladders included)
// completes orders of magnitude faster in virtual time.
void drain(shmem::Runtime& rt) {
  sim::Engine& eng = rt.engine();
  eng.spawn("mck.drain", [&rt, &eng] {
    for (int polls = 0; !rt.quiescent(); ++polls) {
      if (polls >= 20000) {
        throw QuiescenceTimeout("no quiescence after drain: " +
                                rt.pending_summary());
      }
      eng.wait_for(10 * sim::kUs);
    }
  });
  eng.run();
}

sim::PathOutcome run_one_path(const CheckOptions& opts, sim::ScriptedHook& hook,
                              std::vector<sim::Choice> prefix,
                              std::unordered_set<std::uint64_t>* visited,
                              bool audited, std::ostream* trace_out,
                              std::uint64_t* digest_out,
                              std::uint64_t* dispatches_out) {
  shmem::RuntimeOptions options = make_config(opts.config);
  options.tuning.bug_ack_before_write = opts.seed_bug;
  if (audited) {
    options.obs.causal_enabled = true;
    options.schedule_digest = true;
  }
  shmem::Runtime rt(options);
  hook.begin_path(
      std::move(prefix),
      [&rt] {
        // Safety invariants hold at every branch point, not just at the
        // end: a transient credit-ledger breach between two dispatches is
        // a bug even if the run would later self-correct.
        rt.check_invariants();
        return rt.state_hash();
      },
      visited);
  rt.engine().set_branch_hook(&hook);
  if (opts.fault_budget > 0) {
    rt.faults().set_branch_hook(&hook, opts.fault_site_mask,
                                opts.fault_budget);
  }

  sim::PathOutcome out;
  try {
    rt.run(model_body(opts.model));
    drain(rt);
    rt.check_invariants();
    std::uint64_t delivered = 0;
    for (int h = 0; h < rt.num_hosts(); ++h) {
      delivered += rt.host_transport(h).stats().puts_delivered;
    }
    const std::uint64_t want = expected_puts(opts.model, rt.npes());
    if (delivered != want) {
      std::ostringstream oss;
      oss << "exactly-once ledger: " << delivered << " puts delivered, want "
          << want << (delivered > want ? " (duplicate delivery)"
                                       : " (lost delivery)");
      throw ModelViolation(oss.str());
    }
  } catch (const QuiescenceTimeout& e) {
    out = {sim::PathOutcome::Status::kDeadlock, e.what()};
  } catch (const sim::SimDeadlock& e) {
    out = {sim::PathOutcome::Status::kDeadlock, e.what()};
  } catch (const shmem::ProtocolViolation& e) {
    out = {sim::PathOutcome::Status::kViolation,
           std::string("protocol invariant: ") + e.what()};
  } catch (const std::exception& e) {
    out = {sim::PathOutcome::Status::kViolation, e.what()};
  }

  if (digest_out != nullptr) {
    *digest_out = rt.engine().schedule_digest().value();
  }
  if (dispatches_out != nullptr) {
    *dispatches_out = rt.engine().schedule_digest().count();
  }
  if (trace_out != nullptr) {
    rt.write_causal_trace(*trace_out);
  }
  // Detach before the Runtime (and its engine) shuts down: destructor-time
  // process teardown must not consult the hook.
  rt.engine().set_branch_hook(nullptr);
  return out;
}

const char* status_name(sim::PathOutcome::Status s) {
  switch (s) {
    case sim::PathOutcome::Status::kOk:
      return "ok";
    case sim::PathOutcome::Status::kDeadlock:
      return "deadlock";
    case sim::PathOutcome::Status::kViolation:
      return "violation";
  }
  return "?";
}

}  // namespace

std::vector<std::string> config_names() { return {"paper2", "paper3", "allon3"}; }

std::vector<std::string> model_names() { return {"put_barrier", "notify"}; }

std::uint32_t parse_fault_sites(const std::string& csv) {
  std::uint32_t mask = 0;
  std::istringstream iss(csv);
  std::string tok;
  while (std::getline(iss, tok, ',')) {
    if (tok.empty()) continue;
    if (tok == "doorbell") {
      mask |= 1u << static_cast<unsigned>(sim::FaultPlan::Site::kDoorbell);
    } else if (tok == "scratchpad") {
      mask |= 1u << static_cast<unsigned>(sim::FaultPlan::Site::kScratchpad);
    } else if (tok == "dma") {
      mask |= 1u << static_cast<unsigned>(sim::FaultPlan::Site::kDma);
    } else if (tok == "tlp") {
      mask |= 1u << static_cast<unsigned>(sim::FaultPlan::Site::kTlp);
    } else if (tok == "irq") {
      mask |= 1u << static_cast<unsigned>(sim::FaultPlan::Site::kIrq);
    } else {
      throw std::invalid_argument(
          "mck: unknown fault site '" + tok +
          "' (want doorbell | scratchpad | dma | tlp | irq)");
    }
  }
  return mask;
}

CheckResult check(const CheckOptions& opts, std::ostream& log) {
  CheckResult result;
  sim::Explorer explorer;
  result.report = explorer.explore(
      [&opts](sim::ScriptedHook& hook, std::vector<sim::Choice> prefix,
              std::unordered_set<std::uint64_t>* visited) {
        return run_one_path(opts, hook, std::move(prefix), visited,
                            /*audited=*/false, nullptr, nullptr, nullptr);
      },
      opts.limits);

  log << "mck: model=" << opts.model << " config=" << opts.config
      << " seed-bug=" << (opts.seed_bug ? "on" : "off")
      << " fault-budget=" << opts.fault_budget << "\n";
  log << "mck: explored paths=" << result.report.paths
      << " states=" << result.report.states
      << " branch-points=" << result.report.branch_points
      << " truncated=" << (result.report.truncated ? "yes" : "no") << "\n";

  if (!result.report.counterexamples.empty()) {
    const sim::Counterexample& ce = result.report.counterexamples.front();
    result.script = sim::format_script(ce.script);
    result.detail = ce.outcome.detail;
    log << "mck: VIOLATION (" << status_name(ce.outcome.status)
        << "): " << result.detail << "\n";
    log << "mck: counterexample script: " << result.script << "\n";
    // Prove the script reproduces it: replay once with auditing armed.
    const sim::PathOutcome again =
        replay(opts, result.script, nullptr, &result.replay_digest,
               &result.replay_dispatches);
    log << "mck: replay outcome=" << status_name(again.status)
        << " digest=0x" << std::hex << result.replay_digest << std::dec
        << " dispatches=" << result.replay_dispatches << "\n";
    if (again.status == sim::PathOutcome::Status::kOk) {
      log << "mck: WARNING: counterexample did not reproduce under replay\n";
    }
  }
  return result;
}

sim::PathOutcome replay(const CheckOptions& opts, const std::string& script,
                        std::ostream* trace_out, std::uint64_t* digest_out,
                        std::uint64_t* dispatches_out) {
  sim::ScriptedHook hook;
  return run_one_path(opts, hook, sim::parse_script(script),
                      /*visited=*/nullptr, /*audited=*/true, trace_out,
                      digest_out, dispatches_out);
}

}  // namespace ntbshmem::mck

// Cooperative discrete-event engine with fiber-backed processes.
//
// Each simulated actor (an OpenSHMEM PE, an NTB service thread, a DMA
// engine) is a `Process`: a cooperative execution context the engine
// serializes so that exactly one process runs at a time and the virtual
// clock only advances between process steps. This gives us:
//
//   * blocking APIs with the same shape as the real OpenSHMEM library
//     (shmem_getmem blocks its calling PE),
//   * deterministic execution: the run queue dispatches in (time, sequence)
//     order, so identical workloads produce identical schedules, and
//   * zero wall-clock dependence: the virtual clock is driven purely by the
//     timing model.
//
// Every process runs on a stackful ucontext fiber with a guard-paged stack
// (sim/fiber.hpp), all on the engine's own OS thread. A process switch is
// one user-space context swap, so the engine scales to thousands of
// processes (bench_sim_engine sweeps 1024 hosts). A wait_until/yield whose
// wake-up would be the very next dispatch skips the queue and both fiber
// switches (the run-next fast path, DESIGN.md §4f); it dispatches the same
// (time, seq, kind) stream the round trip would. The run queue is a
// calendar queue (sim/calendar_queue.hpp) whose dispatch order is provably
// the same (time, tie, seq) total order a binary heap yields.
//
// The engine also supports inline callbacks (`call_at`/`call_after`) that
// run in scheduler context without a context switch — used for interrupt
// delivery, DMA completion and bandwidth-resource bookkeeping. Callback
// state is pooled: the hot path (a DMA completion timer re-armed per
// segment) recycles a slot instead of heap-allocating per callback.
//
// Thread-safety: none needed. All processes share one OS thread and are
// serialized by construction; engine state is only ever touched by the
// single active context.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/audit.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace ntbshmem::obs {
struct Hub;
}  // namespace ntbshmem::obs

namespace ntbshmem::sim {

class BranchHook;
class Engine;
class Event;
class FaultPlan;

// Thrown (once) inside a process when the engine shuts down while the
// process is still blocked; unwinds the process stack so RAII cleanup runs.
struct ProcessKilled {};

// Raised by Engine::run() when no timed work remains but non-daemon
// processes are still blocked on events — i.e. the simulation can never
// make progress again.
class SimDeadlock : public std::runtime_error {
 public:
  explicit SimDeadlock(const std::string& what) : std::runtime_error(what) {}
};

enum class WakeReason : std::uint8_t { kNone, kNotified, kTimeout };

class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  bool finished() const { return finished_; }
  bool daemon() const { return daemon_; }
  Engine& engine() const { return engine_; }

  // Opaque process-local binding slot for upper layers (the SHMEM runtime
  // parks its per-PE Context here). Process-local, NOT thread-local: every
  // process shares the engine's OS thread, so identity that must follow a
  // process across blocks has to live on the Process itself.
  void set_user_binding(void* b) { user_binding_ = b; }
  void* user_binding() const { return user_binding_; }

 private:
  friend class Engine;
  friend class Event;

  Process(Engine& engine, std::string name, std::function<void()> body,
          bool daemon);

  // Yields control back to the scheduler; returns when rescheduled.
  void block();
  void mark_finished();
  // Fiber entry point: runs the body with the engine's exception protocol,
  // then does the finished-process accounting. Reads the process to start
  // from the current-process binding (set by Engine::resume before the
  // switch).
  static void fiber_trampoline();

  Engine& engine_;
  std::string name_;
  std::function<void()> body_;  // consumed on start; empty afterwards
  bool daemon_;
  bool finished_ = false;
  bool started_ = false;
  bool killed_ = false;
  // Incremented every time the process is actually resumed; queue entries
  // carry the epoch they were created under so a stale entry (e.g. the
  // timeout of a wait that was satisfied by a notify) is skipped.
  std::uint64_t epoch_ = 0;
  WakeReason wake_reason_ = WakeReason::kNone;
  Event* waiting_on_ = nullptr;  // diagnostics + timeout cleanup
  // Created lazily on first resume (a process killed before it ever ran
  // needs no stack); stack released eagerly on finish.
  std::unique_ptr<Fiber> fiber_;
  void* user_binding_ = nullptr;  // see set_user_binding()
};

// The process currently executing, or nullptr in scheduler/callback
// context: the binding is set just before a process runs and cleared when
// it yields.
Process* current_process() noexcept;

// Handle for a scheduled inline callback; cancel() is idempotent and safe
// after the callback has fired. The handle indexes the engine's pooled
// slot table with a generation tag, so it must not outlive the engine
// (every current holder — bandwidth timers, transport retransmit timers —
// already lives inside the engine's lifetime).
class CallbackHandle {
 public:
  CallbackHandle() = default;
  void cancel();
  bool valid() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  CallbackHandle(Engine* engine, std::uint32_t slot, std::uint64_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Creates a process; it is scheduled to start at the current time.
  // Daemon processes (service threads) do not keep run() alive.
  Process& spawn(std::string name, std::function<void()> body,
                 bool daemon = false);

  // Runs until every non-daemon process has finished. Throws SimDeadlock if
  // progress becomes impossible; rethrows the first exception escaping any
  // process body. May be called repeatedly (daemons persist between runs).
  void run();

  // Schedules `fn` to run in scheduler context at time `t` (>= now).
  CallbackHandle call_at(Time t, std::function<void()> fn);
  CallbackHandle call_after(Dur d, std::function<void()> fn);

  // ---- Process-context operations (must run inside a spawned process) ----
  void wait_until(Time t);
  void wait_for(Dur d);
  // Reschedules the current process at the current time, after everything
  // already queued for this instant.
  void yield();

  // The process currently executing on this engine (nullptr in scheduler
  // context / outside the simulation).
  Process* current() const { return current_; }

  // Number of processes that have been spawned but not finished. O(1):
  // maintained at spawn/finish, consulted by deadlock diagnostics and
  // tests.
  std::size_t live_processes() const { return live_count_; }

  // Total queue items actually dispatched (processes resumed + callbacks
  // fired; stale wake-ups and cancelled callbacks excluded — the same
  // stream the schedule digest folds). Drives events/sec in
  // bench_sim_engine.
  std::uint64_t dispatch_count() const { return dispatch_count_; }
  // The part of dispatch_count() served by the run-next fast path: a
  // wait_until/yield whose wake-up was the very next dispatch, so the
  // process kept running without a queue round trip or fiber switch.
  std::uint64_t fast_dispatch_count() const { return fast_dispatch_count_; }

  // Usable stack size for this engine's fibers (NTBSHMEM_FIBER_STACK_KiB,
  // read once at construction).
  std::size_t fiber_stack_bytes() const { return fiber_stack_bytes_; }

  // ---- Allocation accounting ------------------------------------------------
  // The callback pool's whole point: slots_created stays O(peak
  // concurrency) while callbacks_scheduled grows with the workload. The
  // old implementation heap-allocated once per scheduled callback.
  struct AllocStats {
    std::uint64_t callback_slots_created = 0;
    std::uint64_t callbacks_scheduled = 0;
  };
  const AllocStats& alloc_stats() const { return alloc_stats_; }

  // ---- Fault injection ------------------------------------------------------
  // Attaches a fault plan that hardware models consult at their injection
  // sites (nullptr detaches). The engine does not own the plan; it must
  // outlive the simulation. No plan attached (or an all-zero plan) means
  // every site is a no-op.
  void attach_faults(FaultPlan* plan) { faults_ = plan; }
  FaultPlan* faults() const { return faults_; }

  // ---- Observability --------------------------------------------------------
  // Attaches the tracing/metrics hub that components consult at construction
  // (nullptr detaches). Like the fault plan, the hub is not owned and must
  // outlive the simulation; no hub attached means components fall back to
  // the shared null instruments — the zero-cost path.
  void attach_obs(obs::Hub* hub) { obs_ = hub; }
  obs::Hub* obs() const { return obs_; }

  // ---- Schedule auditing ----------------------------------------------------
  // Opt-in FNV digest of the dispatched (time, seq, kind) event stream; see
  // sim/audit.hpp. Enabling resets the accumulator. Zero-cost when off.
  void enable_schedule_digest(bool on = true) {
    digest_enabled_ = on;
    digest_.reset();
  }
  bool schedule_digest_enabled() const { return digest_enabled_; }
  const ScheduleDigest& schedule_digest() const { return digest_; }

  // Debug mode: permute the FIFO tie-break of same-timestamp queue entries
  // with a seeded bijection (seed 0 restores exact FIFO order). Applies to
  // entries pushed from this call on, so set it before spawning the
  // workload. Any seed yields a schedule that is still fully deterministic;
  // only the ordering of same-time dispatches changes. Simulation results
  // that are allowed to depend on FIFO order (event wake-up order, spawn
  // start order) may move — SHMEM-visible state must not (DESIGN.md §4d).
  void set_tiebreak_permutation(std::uint64_t seed) { tiebreak_seed_ = seed; }
  std::uint64_t tiebreak_permutation() const { return tiebreak_seed_; }

  // ---- Exploration (sim/branch.hpp, tools/mck) -----------------------------
  // Installs a branch hook that picks among same-timestamp runnable queue
  // items instead of the (tie, seq) FIFO order (nullptr detaches — the
  // default, zero-cost path). With a hook installed the dispatcher collects
  // the whole same-timestamp runnable frontier before each dispatch and asks
  // the hook to choose; a hook that always returns 0 reproduces the unhooked
  // schedule exactly (same dispatch order, same digests). The hook is not
  // owned and must outlive the run.
  void set_branch_hook(BranchHook* hook) { hook_ = hook; }
  BranchHook* branch_hook() const { return hook_; }

  // Order-insensitive FNV hash of the engine's schedulable state: every
  // non-stale queue item folded as (t - now, kind, process name) with a
  // commutative combine (so the calendar queue's physical layout cannot
  // leak in), plus each live process's (name, started, waiting-on event).
  // Path-dependent counters (seq, epoch, dispatch_count) are deliberately
  // excluded so that two interleavings reaching the same logical state
  // collide — that collision is exactly what lets the model checker prune
  // revisits. Used by mck together with the transport/heap hashes.
  std::uint64_t state_hash() const;

  // Kills every unfinished process (ProcessKilled unwinds each stack so
  // RAII cleanup runs). Idempotent; invoked by the destructor, public so
  // owners can tear processes down while their captured state still lives.
  void shutdown();

  // ---- Low-level primitives for building synchronization objects ----------
  // (used by Event/Resource/BandwidthResource; not for application code)

  // Returns the current process, throwing std::logic_error (naming `op`)
  // when called outside a process of this engine.
  Process* require_current(const char* op) const;
  // Enqueues a wake-up for `p` at time `t` tagged with its current epoch.
  // The wake-up is ignored if `p` is resumed by other means first.
  void schedule_process(Time t, Process* p);
  // Parks `p` (must be the current process) until schedule_process resumes
  // it — the building block for custom blocking primitives.
  void block_current(Process* p) { p->block(); }

 private:
  friend class Process;
  friend class Event;
  friend class CallbackHandle;

  struct QueueItem {
    Time t;
    std::uint64_t seq;
    // Tie-break key for same-time entries: equals seq (FIFO) unless a
    // tie-break permutation is active, in which case it is a seeded
    // bijection of seq — unique, so the order stays total and repeatable.
    std::uint64_t tie;
    // nullptr means the entry is a pooled callback (cb_slot below).
    Process* process = nullptr;
    // Process epoch when process != nullptr; callback slot generation
    // otherwise — either way, a staleness tag checked at dispatch.
    std::uint64_t epoch_or_gen = 0;
    std::uint32_t cb_slot = 0;
  };
  struct QueueCmp {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      if (a.t != b.t) return a.t > b.t;  // min-queue on time
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;  // unreachable while tie is a bijection of seq
    }
  };
  std::uint64_t tie_of(std::uint64_t seq) const {
    return tiebreak_seed_ == 0 ? seq : splitmix64_mix(seq ^ tiebreak_seed_);
  }

  // Pooled storage behind call_at; see CallbackHandle. `gen` bumps when the
  // slot is recycled, so stale handles and queue entries are no-ops.
  struct CallbackSlot {
    std::function<void()> fn;
    std::uint64_t gen = 0;
    bool cancelled = false;
  };
  std::uint32_t acquire_slot();
  void retire_slot(std::uint32_t slot);
  void cancel_callback(std::uint32_t slot, std::uint64_t gen);

  // wait_until/yield body: queues `p`'s wake-up at `t` (>= now) and blocks,
  // or takes the run-next fast path (see engine.cpp).
  void park_until(Process* p, Time t);
  // Transfers control to `p` and waits until it yields back.
  void resume(Process* p);
  [[noreturn]] void throw_deadlock();

  // True when the item can no longer dispatch (recycled/cancelled callback
  // slot, finished process, stale epoch). No side effects.
  bool is_stale(const QueueItem& item) const {
    if (item.process == nullptr) {
      const CallbackSlot& s = cb_slots_[item.cb_slot];
      return s.gen != item.epoch_or_gen || s.cancelled;
    }
    return item.process->finished() ||
           item.epoch_or_gen != item.process->epoch_;
  }
  // is_stale() for an item popped for good: also retires the cancelled
  // callback slot it finds, so the slot pool sees every cancellation in
  // dispatch order.
  bool item_stale(const QueueItem& item);
  // Pops queue items until a non-stale one is found; false when drained.
  bool pop_runnable(QueueItem* out);
  // The dispatcher front end: without a hook, pop_runnable; with a hook,
  // collect the same-timestamp runnable frontier, let the hook choose, and
  // re-queue the rest (and every stale item seen) with their original keys.
  bool next_dispatch(QueueItem* out);

  std::size_t fiber_stack_bytes_;
  // The scheduler side of every fiber switch: the engine thread's own
  // context.
  Fiber sched_fiber_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatch_count_ = 0;
  std::uint64_t fast_dispatch_count_ = 0;
  CalendarQueue<QueueItem, QueueCmp> queue_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::size_t live_nondaemon_ = 0;
  std::size_t live_count_ = 0;
  // std::deque: references stay valid while slots are appended mid-run.
  std::deque<CallbackSlot> cb_slots_;
  std::vector<std::uint32_t> cb_free_;
  AllocStats alloc_stats_;
  Process* current_ = nullptr;
  BranchHook* hook_ = nullptr;
  FaultPlan* faults_ = nullptr;
  obs::Hub* obs_ = nullptr;
  std::exception_ptr first_error_;
  bool shutting_down_ = false;
  bool digest_enabled_ = false;
  ScheduleDigest digest_;
  std::uint64_t tiebreak_seed_ = 0;
};

}  // namespace ntbshmem::sim

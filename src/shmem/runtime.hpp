// OpenSHMEM runtime over the simulated NTB ring.
//
// A Runtime owns the simulation engine, the ring fabric, one Transport per
// host and one Context per PE (one PE per host by default, as in the
// paper's prototype; RuntimeOptions::pes_per_host co-locates more).
// Runtime::run() executes the same function on every PE — the SPMD model —
// inside simulated processes, and returns when all PEs finish.
//
// Context is the per-PE state: the symmetric heap, the transport, and the
// pointer-translation layer that turns symmetric addresses (local pointers
// returned by shmem_malloc) into heap offsets for remote access, exactly
// the offset addressing of the paper's Fig. 3(b).
//
// The C-style OpenSHMEM API in shmem/api.hpp binds to the calling PE's
// Context through thread-local storage.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "backend/kind.hpp"
#include "fabric/fabric.hpp"
#include "obs/hub.hpp"
#include "shmem/options.hpp"
#include "shmem/symheap.hpp"
#include "shmem/transport.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace ntbshmem::backend {
class Backend;
class Channel;
}  // namespace ntbshmem::backend

namespace ntbshmem::shmem {

class Runtime;

class Context {
 public:
  Context(Runtime& runtime, int pe);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  int pe() const { return pe_; }
  int npes() const;
  Runtime& runtime() const { return runtime_; }
  host::Host& host() const;
  SymmetricHeap& heap() { return heap_; }
  const SymmetricHeap& heap() const { return heap_; }
  // This PE's backend data-path endpoint (DES transport adapter or the shm
  // segment channel) — the seam collectives and the API dispatch through.
  backend::Channel& chan() { return *chan_; }
  // Sim-backend-only convenience: the NTB transport of this PE's host
  // (stats introspection in tests); throws std::logic_error on shm.
  Transport& transport() const;
  // This PE's default completion domain within the backend channel.
  int default_domain() const { return ctx_domains_.front(); }

  // ---- Symmetric memory management (collective; implicit barrier) ---------
  void* sym_malloc(std::size_t size);
  void* sym_calloc(std::size_t count, std::size_t size);
  void* sym_align(std::size_t alignment, std::size_t size);
  void* sym_realloc(void* ptr, std::size_t size);
  void sym_free(void* ptr);

  // Translates a symmetric address to its heap offset; throws
  // std::invalid_argument for non-symmetric pointers.
  std::uint64_t symmetric_offset(const void* p) const;
  // Local address of the same symmetric object on this PE.
  void* symmetric_ptr(std::uint64_t offset) { return heap_.ptr(offset); }

  // ---- RMA -----------------------------------------------------------------
  void putmem(void* dest, const void* src, std::size_t nbytes, int target_pe);
  void getmem(void* dest, const void* src, std::size_t nbytes, int source_pe);
  // Non-blocking variants (completed by quiet()).
  void putmem_nbi(void* dest, const void* src, std::size_t nbytes,
                  int target_pe);
  void getmem_nbi(void* dest, const void* src, std::size_t nbytes,
                  int source_pe);
  // Put + ordered signal update (OpenSHMEM 1.5 put-with-signal).
  void putmem_signal(void* dest, const void* src, std::size_t nbytes,
                     std::uint64_t* sig_addr, std::uint64_t signal,
                     AtomicOp sig_op, int target_pe);

  // ---- Atomics ---------------------------------------------------------------
  std::uint64_t atomic(AtomicOp op, void* target, int target_pe,
                       std::uint8_t width, std::uint64_t operand1,
                       std::uint64_t operand2 = 0);

  // ---- Ordering / synchronization -------------------------------------------
  void quiet();
  void fence();
  void barrier_all();
  // Blocks until the heap-change event fires (used by shmem_wait_until).
  void wait_heap_change();

  // ---- Communication contexts (shmem_ctx_*) ----------------------------------
  // A context is a per-PE completion domain: quiet/fence on it drain only
  // its own operations. Domain 0 is the default context.
  int create_ctx_domain();
  void destroy_ctx_domain(int domain);
  // Throws std::invalid_argument for a dead/unknown domain (0 always valid).
  void check_ctx_domain(int domain) const;
  void ctx_putmem(int domain, void* dest, const void* src, std::size_t nbytes,
                  int target_pe);
  void ctx_getmem_nbi(int domain, void* dest, const void* src,
                      std::size_t nbytes, int source_pe);
  void ctx_quiet(int domain);

  // ---- Team registry (shmem/teams.hpp) --------------------------------------
  // Slot i backs team handle i + 2 (handle 1 is the world team). Handles
  // stay aligned across PEs because team creation is collective.
  struct TeamRecord {
    int start = 0;
    int stride = 1;
    int size = 0;
    bool alive = false;
  };
  std::vector<TeamRecord>& team_registry() { return teams_; }

  // ---- Init / finalize lifecycle -------------------------------------------
  void mark_initialized();
  void mark_finalized();
  bool initialized() const { return initialized_; }

 private:
  void check_pe(int pe, const char* what) const;

  // Resolves a user-facing ctx handle to its transport domain id.
  int domain_of(int ctx_handle) const;

  Runtime& runtime_;
  int pe_;
  SymmetricHeap heap_;
  std::unique_ptr<backend::Channel> chan_;
  std::vector<TeamRecord> teams_;
  // ctx handle -> transport domain; index 0 is the default context.
  std::vector<int> ctx_domains_;
  std::vector<bool> ctx_alive_ = {true};
  bool initialized_ = false;
};

class Runtime {
 public:
  explicit Runtime(const RuntimeOptions& options);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs `pe_main` on every PE (SPMD); returns the elapsed duration in the
  // backend's native clock (virtual ns on sim, wall ns on shm). May be
  // called repeatedly on the sim backend; heaps and services persist across
  // runs. The shm backend forks fresh PE processes per call.
  sim::Dur run(const std::function<void()>& pe_main);

  const RuntimeOptions& options() const { return options_; }
  sim::Engine& engine() { return engine_; }
  // The resolved data-path backend (options.backend x NTBSHMEM_BACKEND).
  backend::Kind backend_kind() const { return backend_kind_; }
  backend::Backend& backend() { return *backend_; }
  bool has_fabric() const { return fabric_ != nullptr; }
  // Sim-backend-only accessors; throw std::logic_error on the shm backend
  // (which has no simulated fabric or NTB transports).
  fabric::Fabric& fabric();
  Transport& host_transport(int host);
  Context& context(int pe) { return *contexts_.at(static_cast<std::size_t>(pe)); }
  int npes() const { return options_.npes; }
  int num_hosts() const { return options_.num_hosts(); }

  // ---- Backend-neutral clock (workload pacing; DESIGN.md §4j) ---------------
  // Virtual ns on the sim backend (exactly engine().now()/wait_*, so golden
  // times are unchanged); wall-clock ns on shm. Workload code uses these so
  // no clock source is ever named outside src/backend/.
  sim::Time clock_now();
  void clock_wait_until(sim::Time t);
  void clock_wait_for(sim::Dur d);
  // Per-PE POD result mailbox that survives the run loop on every backend
  // (under fork it is the only road a PE's results travel back on).
  std::span<std::byte> pe_scratch(int pe);

  // Observability hub: typed span tracer + metrics registry. Always
  // attached to the engine; spans record only when options().obs asks.
  obs::Hub& obs() { return obs_; }
  const obs::Hub& obs() const { return obs_; }

  // The fault plan attached to the engine (always present; an all-zero spec
  // injects nothing). Tests arm one-shot faults here.
  sim::FaultPlan& faults() { return *fault_plan_; }

  // ---- Causal-trace artifacts (DESIGN.md §4h) -------------------------------
  // Writes the ntbshmem-trace-v1 JSON artifact: every causal span, the
  // per-link utilization series (flushed so samples integrate exactly to
  // busy_ns), aggregate transport counters and the fault-plan retransmit
  // bound — the complete input contract of tools/tracecheck.
  void write_causal_trace(std::ostream& out);
  // Upper bound on legitimate retransmits implied by what the fault plan
  // actually injected: 0 on a fault-free run, else every injected fault may
  // cost a full retry ladder and every link flap may strand a window of
  // in-flight frames in each direction.
  std::uint64_t retransmit_bound() const;
  // Dumps every host's always-on flight-recorder ring (newest-last); the
  // post-mortem artifact attached to fuzz/CI failures.
  void dump_flight(std::ostream& out) const;

  // ---- Model-checker introspection (DESIGN.md §4i) -------------------------
  // FNV hash over the complete protocol-visible state: the engine's
  // schedulable queue and process states, every host transport's channel /
  // queue / ScratchPad state, and the live bytes of every PE's symmetric
  // heap. Two interleavings that reach the same logical state hash equal —
  // the revisit-pruning key of tools/mck.
  std::uint64_t state_hash() const;
  // True when every host transport has fully drained (Transport::quiescent).
  bool quiescent() const;
  // Concatenated Transport::pending_summary of every host (deadlock
  // diagnostics; empty when quiescent).
  std::string pending_summary() const;
  // Runs Transport::check_protocol_invariants on every host; throws
  // ProtocolViolation on the first breach.
  void check_invariants() const;

  // The Context of the PE process currently executing (TLS); nullptr
  // outside a PE (e.g. in service threads or the scheduler).
  static Context* current();

 private:
  RuntimeOptions options_;
  backend::Kind backend_kind_;
  sim::Engine engine_;
  // The hub must outlive every component that cached instrument pointers at
  // construction (fabric, transports): declared before them, attached to the
  // engine before they are built.
  obs::Hub obs_;
  std::unique_ptr<sim::FaultPlan> fault_plan_;
  // Sim backend only (null on shm): the simulated fabric + NTB transports.
  std::unique_ptr<fabric::Fabric> fabric_;
  std::vector<std::unique_ptr<Transport>> transports_;  // one per host
  // The data-path backend; built after fabric/transports (the DES facade
  // binds them), before the contexts (whose heaps live in backend arenas).
  std::unique_ptr<backend::Backend> backend_;
  std::vector<std::unique_ptr<Context>> contexts_;  // one per PE
};

// RAII helper used by Runtime::run to bind the TLS context.
class CurrentContextBinder {
 public:
  explicit CurrentContextBinder(Context* ctx);
  ~CurrentContextBinder();
};

}  // namespace ntbshmem::shmem

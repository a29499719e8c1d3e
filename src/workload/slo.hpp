// SLO-style reporting for workload runs: percentiles out of the runtime's
// log2 latency histograms, goodput from the conservation counters, per-link
// utilization from the fabric byte counters, plus the self-describing
// metadata (backend, topology, tuning, fault plan, seed) that makes every
// artifact reproducible from its own header. Serialized as the
// "ntbshmem-slo-v1" JSON schema gated by CI.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "shmem/runtime.hpp"
#include "workload/traffic.hpp"

namespace ntbshmem::workload {

struct SloLatency {
  std::string name;  // "total" or the per-op family (get/put/put_nbi/...)
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

struct SloLink {
  std::string name;
  std::uint64_t bytes = 0;   // both directions
  double utilization = 0.0;  // bytes / (2 * effective_Bps * elapsed)
};

struct SloReport {
  std::string scenario;
  std::string backend;     // "sim" | "shm", as named by --backend
  std::string clock = "virtual";  // "virtual" (sim ns) | "wall" (CLOCK_MONOTONIC)
  std::string topology;    // e.g. "ring", "torus2d-4x4", "chordal+2+5"
  std::string tuning;      // "paper" | "pipelined" | "+reliable" suffix
  std::string fault_plan;  // "none" or a compact spec summary
  std::uint64_t seed = 0;
  int hosts = 0;

  ScenarioReport run;
  double goodput_rps = 0.0;
  double goodput_MBps = 0.0;
  std::vector<SloLatency> latencies;  // "total" first, per-op after
  std::vector<SloLink> links;

  // Per-op-family critical-path attribution out of the causal recorder
  // (obs::critical_path_by_family): where the longest cause chain of each
  // op actually spent its time — credit stall vs DMA vs IRQ delay vs
  // retransmit. Empty when causal recording was off.
  std::vector<obs::FamilyBreakdown> critical_path;

  // Engine schedule digest (0/0 when digest recording is off).
  std::uint64_t schedule_digest = 0;
  std::uint64_t schedule_dispatches = 0;
};

// ---- Metadata naming (shared with bench_util artifacts) ---------------------
std::string topology_name(const fabric::TopologySpec& spec);
std::string tuning_name(const shmem::TransportTuning& tuning);
std::string fault_plan_name(const sim::FaultSpec& faults);

// Builds the report from a finished scenario run: reads the latency
// histograms "workload.<scenario>[.<op>].latency_ns" and the per-link byte
// counters out of rt.obs().metrics, and stamps the runtime's configuration
// metadata. `seed` is the workload seed the run was driven with.
SloReport build_slo_report(shmem::Runtime& rt, const ScenarioReport& run,
                           std::uint64_t seed);

// Deterministic serialization (fixed field order, fixed float formatting):
// two runs with identical reports produce byte-identical JSON.
void write_slo_json(const SloReport& report, std::ostream& out);

}  // namespace ntbshmem::workload

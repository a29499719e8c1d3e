// Golden-file test for the observability exporters: a small 3-host
// put/barrier run must export well-formed, schema-consistent Chrome
// trace-event JSON (per-host processes, balanced span phases, matched async
// ids, named transport spans) and a metrics snapshot whose per-layer
// counters reflect the workload. The export must also be byte-identical
// across repeated runs — the trace is a deterministic artifact of the
// deterministic simulation.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_check.hpp"
#include "obs/export.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::shmem {
namespace {

using obs::testing::count_occurrences;
using obs::testing::json_well_formed;

RuntimeOptions traced_options() {
  RuntimeOptions opts;
  opts.npes = 3;
  opts.completion = CompletionMode::kFullDelivery;
  opts.routing = fabric::RoutingMode::kRightOnly;
  opts.symheap_chunk_bytes = 1u << 20;
  opts.symheap_max_bytes = 8u << 20;
  opts.host_memory_bytes = 32u << 20;
  opts.link_dma_rates_Bps = {3.0e9};
  opts.obs.spans_enabled = true;
  return opts;
}

// PE0 puts 64 KiB one hop, everyone barriers twice.
void put_barrier_workload() {
  shmem_init();
  auto* buf = static_cast<std::byte*>(shmem_malloc(256 * 1024));
  std::vector<std::byte> local(64 * 1024, std::byte{0x5b});
  shmem_barrier_all();
  if (shmem_my_pe() == 0) {
    shmem_putmem(buf, local.data(), local.size(), 1);
    shmem_quiet();
  }
  shmem_barrier_all();
  shmem_finalize();
}

// Runs the workload in a fresh traced runtime and returns the exported
// Chrome trace JSON (and optionally the runtime's metrics snapshot).
std::string run_and_export(obs::Snapshot* metrics = nullptr) {
  Runtime rt(traced_options());
  rt.run(put_barrier_workload);
  std::ostringstream out;
  obs::write_chrome_trace(rt.obs().tracer, out);
  if (metrics != nullptr) *metrics = rt.obs().metrics.snapshot();
  return out.str();
}

// The exporter emits one event per line; pull a JSON field's raw value off a
// line (fields are emitted without optional whitespace).
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t start = at + tag.size();
  std::size_t end = start;
  if (line[end] == '"') {  // string value
    end = line.find('"', end + 1);
    return line.substr(start + 1, end - start - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

std::vector<std::string> event_lines(const std::string& json) {
  std::vector<std::string> lines;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"") != std::string::npos) lines.push_back(line);
  }
  return lines;
}

TEST(TraceGoldenTest, ExportIsWellFormedWithPerHostProcesses) {
  const std::string json = run_and_export();

  ASSERT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);

  // One Perfetto process per simulated host.
  for (const char* host : {"host0", "host1", "host2"}) {
    EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":{\"name\":\"" +
                        std::string(host) + "\"}"),
              std::string::npos)
        << "missing process " << host;
  }

  // The workload's named spans all appear: put on a PE track, barrier on
  // every PE, frame lifetime async spans, and rx-side frame processing.
  for (const char* name : {"put", "barrier", "frame_inflight",
                           "process_frame"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << "missing span " << name;
  }
}

TEST(TraceGoldenTest, SpanPhasesBalanceOnEveryTrack) {
  const std::string json = run_and_export();

  // Sync spans: B/E must nest per track (depth never negative, ends at 0).
  // Async spans: each id opens and closes exactly once per track.
  std::map<std::string, int> depth;
  std::map<std::string, int> async_open;
  std::size_t events = 0;
  for (const std::string& line : event_lines(json)) {
    const std::string ph = field(line, "ph");
    if (ph == "M") continue;
    ++events;
    const std::string tid = field(line, "tid");
    ASSERT_FALSE(tid.empty()) << line;
    if (ph == "B") {
      ++depth[tid];
    } else if (ph == "E") {
      ASSERT_GT(depth[tid], 0) << "E without B on tid " << tid << ": " << line;
      --depth[tid];
    } else if (ph == "b") {
      ++async_open[tid + "/" + field(line, "id")];
    } else if (ph == "e") {
      const std::string key = tid + "/" + field(line, "id");
      ASSERT_EQ(async_open[key], 1) << "unmatched async end: " << line;
      --async_open[key];
    }
  }
  // A real run, not an empty export: 72 span-layer events for this workload.
  EXPECT_GE(events, 72u);
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed sync span on tid " << tid;
  }
  for (const auto& [key, n] : async_open) {
    EXPECT_EQ(n, 0) << "unclosed async span " << key;
  }
}

TEST(TraceGoldenTest, MetricsSnapshotReflectsTheWorkload) {
  obs::Snapshot snap;
  run_and_export(&snap);

  // Transport layer: PE0 issued the only put; frames crossed the wire and
  // the leader observed both barriers.
  const obs::MetricRow* puts = snap.find("host0.transport.puts_issued");
  ASSERT_NE(puts, nullptr);
  EXPECT_DOUBLE_EQ(puts->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.total(".transport.puts_issued"), 1.0);
  EXPECT_GT(snap.total(".transport.frames_sent"), 0.0);

  const obs::MetricRow* barrier =
      snap.find("host0.transport.barrier_latency_ns");
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->kind, obs::MetricRow::Kind::kHistogram);
  EXPECT_GE(barrier->value, 2.0);  // two explicit barriers

  // NTB/link layers below it saw the same traffic.
  EXPECT_GT(snap.total(".doorbells_rung"), 0.0);
  EXPECT_GE(snap.total(".dma_bytes"), 64.0 * 1024.0);
  EXPECT_GT(snap.total(".a2b.tlps") + snap.total(".b2a.tlps"), 0.0);

  // And the JSON dump of that snapshot is itself well-formed.
  std::ostringstream out;
  obs::write_metrics_json(snap, out, 0);
  EXPECT_TRUE(json_well_formed(out.str()));
}

TEST(TraceGoldenTest, RepeatedRunsExportIdenticalTraces) {
  const std::string first = run_and_export();
  const std::string second = run_and_export();
  EXPECT_EQ(first, second);
}

TEST(TraceGoldenTest, FaultInjectionIsAnInstantWithItsDetail) {
  // A dropped data doorbell, recovered by the reliable tuning, must reach
  // the exported timeline as one "fault" instant naming the site.
  RuntimeOptions opts = traced_options();
  opts.tuning = TransportTuning::reliable(TransportTuning{});
  Runtime rt(opts);
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDoorbell, "host0.right:0");
  rt.run(put_barrier_workload);
  ASSERT_EQ(rt.faults().stats().doorbells_dropped, 1u);
  std::ostringstream out;
  obs::write_chrome_trace(rt.obs().tracer, out);
  const std::string json = out.str();

  ASSERT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":{\"name\":"
                      "\"faults\"}"),
            std::string::npos);
  std::vector<std::string> faults;
  for (const std::string& line : event_lines(json)) {
    if (field(line, "cat") == "fault") faults.push_back(line);
  }
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(field(faults[0], "name"), "fault");
  EXPECT_EQ(field(faults[0], "ph"), "i");
  EXPECT_EQ(field(faults[0], "detail"), "doorbell drop host0.right:0");
  EXPECT_GT(std::stod(field(faults[0], "ts")), 0.0);
}

TEST(TraceGoldenTest, DisabledSpansRecordNothing) {
  RuntimeOptions opts = traced_options();
  opts.obs.spans_enabled = false;
  Runtime rt(opts);
  rt.run(put_barrier_workload);

  EXPECT_EQ(rt.obs().tracer.total_records(), 0u);
  std::ostringstream out;
  obs::write_chrome_trace(rt.obs().tracer, out);
  EXPECT_TRUE(json_well_formed(out.str()));
  EXPECT_EQ(count_occurrences(out.str(), "\"ph\":\"B\""), 0u);

  // Metrics counters still register and count (they are always on — an add
  // through a pointer — only span recording is gated).
  const obs::Snapshot snap = rt.obs().metrics.snapshot();
  EXPECT_DOUBLE_EQ(snap.total(".transport.puts_issued"), 1.0);
}

}  // namespace
}  // namespace ntbshmem::shmem

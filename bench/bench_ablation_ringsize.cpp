// Ablation A1: aggregate network throughput vs ring size.
//
// The paper claims (§IV) that "overall network throughput increases as the
// number of nodes increases" because every cable carries traffic
// concurrently. This bench sweeps 2..8 hosts with every host streaming
// blocks to its right neighbour simultaneously and reports the aggregate
// and per-link rates.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "fabric/fabric.hpp"

namespace ntbshmem::bench {
namespace {

constexpr int kReps = 12;
constexpr std::uint64_t kBlock = 256_KiB;

fabric::FabricConfig config(int hosts) {
  fabric::FabricConfig cfg;
  cfg.num_hosts = hosts;
  cfg.timing = paper_testbed();
  cfg.host_memory_bytes = 8ull << 20;
  cfg.link_dma_rates_Bps = {3.0e9, 2.6e9, 2.8e9};
  return cfg;
}

struct RingSizeResult {
  double aggregate_MBps = 0;
  double min_link_MBps = 0;
  sim::Dur longest_stream = 0;  // slowest host's streaming time
};

// All hosts stream rightward simultaneously.
RingSizeResult measure(int hosts) {
  sim::Engine engine;
  obs::Hub hub;
  ObsCli::instance().apply(engine, hub);
  fabric::Fabric ring(engine, config(hosts));
  std::vector<std::byte> payload(kBlock, std::byte{0x11});
  std::vector<sim::Dur> elapsed(static_cast<std::size_t>(hosts), 0);
  for (int h = 0; h < hosts; ++h) {
    auto dst = ring.host(ring.right_neighbor(h)).memory().allocate(kBlock, 4096);
    ring.right_port(h).program_window(ntb::kRawWindow, dst);
    // lvalue concat sidesteps a GCC 12 -Wrestrict false positive on
    // operator+(const char*, string&&)
    const std::string idx = std::to_string(h);
    engine.spawn("x" + idx, [&, h] {
      const sim::Time start = engine.now();
      for (int r = 0; r < kReps; ++r) {
        ring.right_port(h).dma_write(ntb::kRawWindow, 0, payload);
      }
      elapsed[static_cast<std::size_t>(h)] = engine.now() - start;
    });
  }
  engine.run();
  ObsCli::instance().capture(hub);
  RingSizeResult res;
  res.min_link_MBps = 1e18;
  for (int h = 0; h < hosts; ++h) {
    const sim::Dur dur = elapsed[static_cast<std::size_t>(h)];
    const double mbps = to_MBps(kBlock * kReps, dur);
    res.aggregate_MBps += mbps;
    res.min_link_MBps = std::min(res.min_link_MBps, mbps);
    res.longest_stream = std::max(res.longest_stream, dur);
  }
  return res;
}

std::vector<JsonSample> sweep() {
  std::vector<JsonSample> samples;
  for (int hosts = 2; hosts <= 8; ++hosts) {
    const RingSizeResult res = measure(hosts);
    // "hops" carries the host count; no shmem runtime here, so the
    // transport counters stay zero.
    JsonSample agg{"aggregate", kBlock, hosts,
                   static_cast<long long>(res.longest_stream),
                   res.aggregate_MBps, RunCounters{}};
    JsonSample slow{"slowest-link", kBlock, hosts,
                    static_cast<long long>(res.longest_stream),
                    res.min_link_MBps, RunCounters{}};
    samples.push_back(agg);
    samples.push_back(slow);
  }
  return samples;
}

void print_table(const std::vector<JsonSample>& samples) {
  Table t("Ablation A1: network throughput vs ring size (256KB blocks, all "
          "hosts streaming rightward)",
          {"Hosts", "Aggregate MB/s", "Slowest link MB/s"});
  for (int hosts = 2; hosts <= 8; ++hosts) {
    double agg = 0, slow = 0;
    for (const JsonSample& s : samples) {
      if (s.hops != hosts) continue;
      (s.mode == "aggregate" ? agg : slow) = s.MBps;
    }
    t.add_row(std::to_string(hosts), {agg, slow});
  }
  t.print(std::cout);
}

void BM_RingSize(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    fabric::Fabric ring(engine, config(hosts));
    std::vector<std::byte> payload(kBlock, std::byte{0x22});
    for (int h = 0; h < hosts; ++h) {
      auto dst =
          ring.host(ring.right_neighbor(h)).memory().allocate(kBlock, 4096);
      ring.right_port(h).program_window(ntb::kRawWindow, dst);
      const std::string idx = std::to_string(h);
      engine.spawn("x" + idx, [&, h] {
        for (int r = 0; r < kReps; ++r) {
          ring.right_port(h).dma_write(ntb::kRawWindow, 0, payload);
        }
      });
    }
    const sim::Time t0 = engine.now();
    engine.run();
    const sim::Dur elapsed = engine.now() - t0;
    state.SetIterationTime(sim::to_seconds(elapsed));
    state.counters["aggregate_MB/s"] =
        to_MBps(kBlock * kReps * static_cast<std::uint64_t>(hosts), elapsed);
  }
}

}  // namespace
}  // namespace ntbshmem::bench

BENCHMARK(ntbshmem::bench::BM_RingSize)
    ->DenseRange(2, 8, 2)
    ->UseManualTime()
    ->Iterations(3)  // each iteration is a full deterministic sim run
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  ntbshmem::bench::ObsCli::instance().parse_args(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const auto samples = ntbshmem::bench::sweep();
  ntbshmem::bench::print_table(samples);
  ntbshmem::bench::write_bench_json(
      "bench_ablation_ringsize.json", "ablation_ringsize",
      "all hosts streaming 256 KiB blocks rightward, bare ring fabric",
      {"sim", "ring",
       ntbshmem::shmem::RuntimeOptions{}.fault_seed},
      samples);
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}

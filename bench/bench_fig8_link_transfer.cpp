// Fig. 8 reproduction: raw NTB DMA transfer rate on the 3-host switchless
// ring — per-pair Independent (only that pair transferring) vs Ring (all
// three pairs transferring simultaneously), plus the total network rate
// (Fig. 8d).
//
// The experiment uses the raw window path of the NTB ports (pre-mapped
// window, descriptor per transfer, polled completion) exactly as the
// paper's link-rate test does: no OpenSHMEM software stack on top.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timing_params.hpp"
#include "fabric/fabric.hpp"

namespace ntbshmem::bench {
namespace {

constexpr int kHosts = 3;
constexpr int kReps = 16;  // block transfers per measurement

fabric::FabricConfig fig8_config() {
  fabric::FabricConfig cfg;
  cfg.num_hosts = kHosts;
  cfg.timing = paper_testbed();
  cfg.host_memory_bytes = 16ull << 20;
  // Per-chipset spread observed in the paper (Fig. 8a-c differ per pair).
  cfg.link_dma_rates_Bps = {3.0e9, 2.6e9, 2.8e9};
  return cfg;
}

// Runs `reps` back-to-back DMA block transfers on every link in `active`,
// all starting simultaneously; returns per-link throughput in MB/s.
std::vector<double> measure(std::uint64_t size, const std::vector<int>& active) {
  sim::Engine engine;
  obs::Hub hub;
  ObsCli::instance().apply(engine, hub);
  fabric::Fabric ring(engine, fig8_config());
  std::vector<std::byte> payload(size, std::byte{0xa5});
  std::vector<sim::Dur> elapsed(static_cast<std::size_t>(kHosts), 0);

  for (int link : active) {
    // Link i carries host i -> host i+1 through host i's right adapter.
    auto dst_region = ring.host(ring.right_neighbor(link))
                          .memory()
                          .allocate(size, 4096);
    ring.right_port(link).program_window(ntb::kRawWindow, dst_region);
    // lvalue concat sidesteps a GCC 12 -Wrestrict false positive on
    // operator+(const char*, string&&)
    const std::string idx = std::to_string(link);
    engine.spawn("xfer" + idx, [&, link] {
      const sim::Time start = engine.now();
      for (int r = 0; r < kReps; ++r) {
        ring.right_port(link).dma_write(ntb::kRawWindow, 0, payload);
      }
      elapsed[static_cast<std::size_t>(link)] = engine.now() - start;
    });
  }
  engine.run();
  ObsCli::instance().capture(hub);

  std::vector<double> mbps(static_cast<std::size_t>(kHosts), 0.0);
  for (int link : active) {
    mbps[static_cast<std::size_t>(link)] =
        to_MBps(size * kReps, elapsed[static_cast<std::size_t>(link)]);
  }
  return mbps;
}

void print_tables() {
  const auto sizes = paper_sizes();
  struct Row {
    std::vector<double> independent;  // per link
    std::vector<double> ring;         // per link
  };
  std::vector<Row> rows;
  for (std::uint64_t size : sizes) {
    Row row;
    row.independent.resize(kHosts);
    for (int link = 0; link < kHosts; ++link) {
      row.independent[static_cast<std::size_t>(link)] =
          measure(size, {link})[static_cast<std::size_t>(link)];
    }
    row.ring = measure(size, {0, 1, 2});
    rows.push_back(std::move(row));
  }

  const char* pair_names[kHosts] = {"Host0-Host1", "Host1-Host2",
                                    "Host2-Host0"};
  for (int link = 0; link < kHosts; ++link) {
    Table t("Fig 8(" + std::string(1, static_cast<char>('a' + link)) +
                ") Data Transfer Rate between " + pair_names[link] +
                " (MB/s)",
            {"Request Size", "Independent", "Ring"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row(format_size(sizes[i]),
                {rows[i].independent[static_cast<std::size_t>(link)],
                 rows[i].ring[static_cast<std::size_t>(link)]});
    }
    t.print(std::cout);
  }

  Table total("Fig 8(d) Total Data Transfer Rate of the Network (MB/s)",
              {"Request Size", "Independent (sum)", "Ring (simultaneous)"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    double ind = 0;
    double ring_total = 0;
    for (int link = 0; link < kHosts; ++link) {
      ind += rows[i].independent[static_cast<std::size_t>(link)];
      ring_total += rows[i].ring[static_cast<std::size_t>(link)];
    }
    total.add_row(format_size(sizes[i]), {ind, ring_total});
  }
  total.print(std::cout);
}

void BM_LinkTransfer(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const bool simultaneous = state.range(1) != 0;
  const std::vector<int> active =
      simultaneous ? std::vector<int>{0, 1, 2} : std::vector<int>{0};
  for (auto _ : state) {
    sim::Engine engine;
    fabric::Fabric ring(engine, fig8_config());
    std::vector<std::byte> payload(size, std::byte{0x5a});
    sim::Dur elapsed = 0;
    for (int link : active) {
      auto dst = ring.host(ring.right_neighbor(link))
                     .memory()
                     .allocate(size, 4096);
      ring.right_port(link).program_window(ntb::kRawWindow, dst);
      const std::string idx = std::to_string(link);
      engine.spawn("x" + idx, [&, link] {
        for (int r = 0; r < kReps; ++r) {
          ring.right_port(link).dma_write(ntb::kRawWindow, 0, payload);
        }
      });
    }
    const sim::Time t0 = engine.now();
    engine.run();
    elapsed = engine.now() - t0;
    state.SetIterationTime(sim::to_seconds(elapsed));
    state.counters["MB/s_link0"] = to_MBps(size * kReps, elapsed);
  }
  state.SetLabel(simultaneous ? "ring" : "independent");
}

}  // namespace
}  // namespace ntbshmem::bench

BENCHMARK(ntbshmem::bench::BM_LinkTransfer)
    ->ArgsProduct({{1 << 10, 16 << 10, 128 << 10, 512 << 10}, {0, 1}})
    ->UseManualTime()
    ->Iterations(3)  // each iteration is a full deterministic sim run
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  ntbshmem::bench::ObsCli::instance().parse_args(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ntbshmem::bench::print_tables();
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}

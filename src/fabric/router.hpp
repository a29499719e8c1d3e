// Static routing over a fabric Topology.
//
// Routes are precomputed into flat per-(src,dst) next-hop tables, so the
// transport's forwarding decision is a single deterministic lookup — the
// generalisation of the paper's "always forward rightward" rule. Three
// modes:
//
//   kRightOnly       — paper-faithful ring rule: every request travels
//                      rightward (port 0), responses travel leftward
//                      (port 1). Only valid on ring-like topologies.
//   kShortest        — BFS shortest path on the host graph with a fixed,
//                      seedable tie-break over the candidate egress ports.
//                      Seed 0 picks the lowest port index, which on the
//                      ring reproduces the legacy "ties go right".
//   kDimensionOrder  — torus-only deadlock-free mode: correct the X
//                      coordinate fully, then Y, never crossing a wrap
//                      cable. Monotonic dimension order makes the channel
//                      dependence graph acyclic (see DESIGN.md §4e).
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/topology.hpp"

namespace ntbshmem::fabric {

enum class RoutingMode : int {
  kRightOnly,       // paper-faithful: all multi-hop traffic travels rightward
  kShortest,        // choose the nearest egress (fixed tie-break)
  kDimensionOrder,  // torus: X fully before Y, wrap-free (deadlock-free)
};

// Ring route (direction + hop count), kept for the paper-faithful ring
// surface (Fabric::route and the ring tests).
struct Route {
  Direction dir = Direction::kRight;
  int hops = 0;
};

// Next egress port + remaining hop count for one (src, dst) pair.
struct PortRoute {
  int port = -1;
  int hops = 0;
};

class RoutingTable {
 public:
  // Precompute all (src, dst) routes. `tiebreak_seed` perturbs which of
  // several equally short egress ports wins (0 = lowest port index);
  // every seed yields a fully deterministic table.
  static RoutingTable build(const Topology& topo, RoutingMode mode,
                            std::uint64_t tiebreak_seed = 0);

  RoutingMode mode() const { return mode_; }
  int num_hosts() const { return num_hosts_; }
  std::uint64_t tiebreak_seed() const { return tiebreak_seed_; }

  // Egress port on `src` for request traffic towards `dst` (-1 when
  // src == dst), and the total hop count of that path.
  int next_port(int src, int dst) const { return at(next_port_, src, dst); }
  int hops(int src, int dst) const { return at(hops_, src, dst); }

  // Egress port for response traffic (get responses, atomics, delivery
  // acks) from `src` back towards `origin`. Identical to the request
  // tables except under kRightOnly, where responses travel leftward.
  int response_port(int src, int origin) const {
    return at(response_port_, src, origin);
  }
  int response_hops(int src, int origin) const {
    return at(response_hops_, src, origin);
  }

  // Egress port for a frame addressed to `dst` seen at intermediate host
  // `me`, having arrived on `in_port` (-1 when originating locally).
  // kRightOnly is direction-preserving — a frame keeps travelling the way
  // it was going — which is what lets leftward responses transit a table
  // whose request rows all point right.
  int forward_port(int me, int dst, int in_port) const;

  // Longest precomputed route in the table (max hops over all pairs).
  int diameter() const { return diameter_; }

  // FNV-1a over every table entry: two tables route identically iff their
  // digests match, which is what the determinism property tests pin.
  std::uint64_t digest() const;

 private:
  RoutingTable() = default;

  int at(const std::vector<int>& table, int src, int dst) const;

  RoutingMode mode_ = RoutingMode::kRightOnly;
  int num_hosts_ = 0;
  std::uint64_t tiebreak_seed_ = 0;
  int diameter_ = 0;
  std::vector<int> next_port_;
  std::vector<int> hops_;
  std::vector<int> response_port_;
  std::vector<int> response_hops_;
};

}  // namespace ntbshmem::fabric

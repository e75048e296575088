// PathFinder negotiated-congestion router over the NATURE RR graph
// (paper §4.4, flow step 15; McMurchie & Ebeling's algorithm as used by
// VPR's router).
//
// Temporal folding makes routing per-folding-cycle: the interconnect
// reconfigures between cycles, so each global cycle is routed as an
// independent congestion domain on the same RR graph, and a switch's k-set
// NRAM holds one configuration per cycle. Within a cycle the router
// iterates rip-up-and-reroute with growing present-congestion and
// accumulated history costs until no node is over capacity.
//
// The hierarchical preference (direct links, then length-1, length-4,
// global) emerges from the nodes' base costs and delays.
//
// Every iteration rips up and reroutes every net of the cycle, and every
// call starts cold: no routing state is carried across cycles or calls
// (DESIGN.md §5g). RouterOptions::batch_size > 1 with a pool reroutes the
// nets of a batch concurrently against a frozen snapshot; results never
// depend on the thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "place/placement.h"
#include "route/rr_graph.h"
#include "util/thread_pool.h"

namespace nanomap {

struct RouterOptions {
  int max_iterations = 60;       // per folding cycle
  double initial_pres_fac = 0.6;
  double pres_fac_mult = 1.8;
  double hist_fac = 0.8;
  double astar_weight = 1.0;     // distance-based lookahead scale
  // Timing-driven cost blend (VPR-style): a net of criticality c pays
  // (1-c)*congestion + c*delay/delay_norm_ps per node.
  bool timing_driven = true;
  double delay_norm_ps = 300.0;
  std::uint64_t seed = 7;
  // Nets ripped up and rerouted per batch within a PathFinder iteration.
  // All nets of a batch are ripped up first, then rerouted against the
  // occupancy frozen at batch start (so batch members can run on pool
  // threads), then committed in net order. batch_size = 1 is the
  // classical strictly sequential negotiation — today's exact behavior.
  // Larger batches change the negotiation schedule (deterministically:
  // results depend on the batch size, never on the thread count).
  int batch_size = 1;
};

// Routed path delays for one net (one entry per sink SMB).
struct NetRoute {
  int net_index = -1;  // index into ClusteredDesign::nets
  std::vector<int> sink_smbs;
  std::vector<double> sink_delay_ps;   // pin-to-pin routed delay
  std::vector<int> wire_nodes;         // RR nodes used (deduplicated)
};

struct WireUsage {
  long direct = 0;
  long len1 = 0;
  long len4 = 0;
  long global = 0;
  long total() const { return direct + len1 + len4 + global; }
};

// Routing work counters. Purely informational: the routed trees never
// depend on them.
struct RouteReuseStats {
  long cycles_total = 0;    // folding cycles routed
  long nets_rerouted = 0;   // A* net searches executed
  // Always 0: the router keeps no route caches and runs one sequential
  // negotiation schedule. Kept only because flowbench/ reads them.
  long cycles_reused = 0;
  long net_cache_hits = 0;
  long net_cache_misses = 0;
  long spec_batches = 0;
  long spec_conflicts = 0;
};

struct RoutingResult {
  bool success = true;     // all cycles legal (no overuse)
  int worst_iterations = 0;
  long overused_nodes = 0; // residual overuse across cycles (0 on success)
  std::vector<NetRoute> nets;
  WireUsage usage;         // wire-node occupancy summed over all cycles
  RouteReuseStats reuse;
};

// Routes every folding cycle. With a pool and options.batch_size > 1 the
// nets inside a rip-up batch are rerouted concurrently; the routed trees
// are a pure function of (cd, placement, rr, options) — never of the
// pool or its thread count.
RoutingResult route_design(const ClusteredDesign& cd,
                           const Placement& placement, const RrGraph& rr,
                           const RouterOptions& options = {},
                           ThreadPool* pool = nullptr);

// Structural audit of a routing result against the design it routes:
// every net present exactly once; every route a connected tree rooted at
// the driver OPIN that reaches all sink IPINs with no orphaned wire
// nodes; per-cycle occupancy within capacity when the result claims
// success. Returns false and fills `why` (if given) on the first
// violation.
bool validate_routing(const ClusteredDesign& cd, const Placement& placement,
                      const RrGraph& rr, const RoutingResult& result,
                      std::string* why = nullptr);

}  // namespace nanomap

#include <gtest/gtest.h>

#include <cstdint>

#include "circuits/random_dag.h"
#include "core/folding.h"
#include "core/schedule_graph.h"
#include "core/temporal_cluster.h"
#include "route/pathfinder.h"

namespace nanomap {
namespace {

// Builds a synthetic clustered design with explicit nets on a grid.
ClusteredDesign synthetic(int num_smbs, int num_cycles,
                          std::vector<PlacedNet> nets) {
  ClusteredDesign cd;
  cd.num_smbs = num_smbs;
  cd.num_cycles = num_cycles;
  cd.nets = std::move(nets);
  return cd;
}

Placement row_placement(int num_smbs, int width) {
  Placement p;
  p.grid = {width, width};
  for (int i = 0; i < num_smbs; ++i) p.site_of_smb.push_back(i);
  return p;
}

PlacedNet net(int driver_node, int cycle, int driver, std::vector<int> sinks) {
  PlacedNet n;
  n.driver_node = driver_node;
  n.cycle = cycle;
  n.driver_smb = driver;
  n.sink_smbs = std::move(sinks);
  return n;
}

TEST(PathFinder, RoutesSimpleNet) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(2, 1, {net(0, 0, 0, {1})});
  Placement p = row_placement(2, 3);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.nets.size(), 1u);
  EXPECT_GT(r.nets[0].sink_delay_ps[0], 0.0);
  EXPECT_GE(r.usage.total(), 1);
}

TEST(PathFinder, AdjacentNetPrefersDirectLink) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(2, 1, {net(0, 0, 0, {1})});
  Placement p = row_placement(2, 3);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.usage.direct, 1);
  EXPECT_EQ(r.usage.global, 0);
}

TEST(PathFinder, MultiSinkNetSharesTree) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(4, 1, {net(0, 0, 0, {1, 2, 3})});
  Placement p = row_placement(4, 4);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.nets[0].sink_smbs.size(), 3u);
  for (double d : r.nets[0].sink_delay_ps) EXPECT_GT(d, 0.0);
}

TEST(PathFinder, DelayGrowsWithDistance) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd =
      synthetic(8, 1, {net(0, 0, 0, {1}), net(1, 0, 0, {7})});
  Placement p;
  p.grid = {8, 8};
  for (int i = 0; i < 8; ++i) p.site_of_smb.push_back(i);  // one row
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  double near = 0.0, far = 0.0;
  for (const NetRoute& nr : r.nets) {
    if (cd.nets[static_cast<std::size_t>(nr.net_index)].driver_node == 0)
      near = nr.sink_delay_ps[0];
    else
      far = nr.sink_delay_ps[0];
  }
  EXPECT_GT(far, near);
}

TEST(PathFinder, CongestionNegotiationResolvesOveruse) {
  // Many nets between the same adjacent pair exceed the direct-link
  // capacity and must spill to length-1/length-4 wires, but still succeed.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 4;
  arch.len4_tracks = 2;
  arch.global_tracks = 2;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 9; ++i) nets.push_back(net(i, 0, 0, {1}));
  ClusteredDesign cd = synthetic(2, 1, std::move(nets));
  Placement p = row_placement(2, 4);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  EXPECT_TRUE(r.success) << r.overused_nodes << " overused";
  EXPECT_GT(r.usage.len1 + r.usage.len4 + r.usage.global, 0);
}

TEST(PathFinder, ImpossibleDemandReportsFailure) {
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 1;
  arch.len1_tracks = 1;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 40; ++i) nets.push_back(net(i, 0, 0, {1}));
  ClusteredDesign cd = synthetic(2, 1, std::move(nets));
  Placement p = row_placement(2, 2);
  RrGraph rr(p.grid, arch);
  RouterOptions opts;
  opts.max_iterations = 8;
  RoutingResult r = route_design(cd, p, rr, opts);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.overused_nodes, 0);
}

TEST(PathFinder, CyclesAreIndependentCongestionDomains) {
  // The same dense traffic in different folding cycles does not conflict:
  // each cycle reconfigures the interconnect.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 2;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  for (int c = 0; c < 6; ++c)
    for (int i = 0; i < 4; ++i) nets.push_back(net(c * 4 + i, c, 0, {1}));
  ClusteredDesign cd = synthetic(2, 6, std::move(nets));
  Placement p = row_placement(2, 2);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  EXPECT_TRUE(r.success);
}

TEST(PathFinder, DeterministicResults) {
  ArchParams arch = ArchParams::paper_instance();
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 12; ++i) nets.push_back(net(i, 0, i % 4, {(i + 1) % 4}));
  ClusteredDesign cd = synthetic(4, 1, std::move(nets));
  Placement p = row_placement(4, 3);
  RrGraph rr(p.grid, arch);
  RoutingResult a = route_design(cd, p, rr);
  RoutingResult b = route_design(cd, p, rr);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].wire_nodes, b.nets[i].wire_nodes);
    EXPECT_EQ(a.nets[i].sink_delay_ps, b.nets[i].sink_delay_ps);
  }
}

// ---------------------------------------------------------------------------
// Route identity pins: the routed trees of a fixed sweep of inputs are
// fingerprinted and pinned, so any change to the negotiation shows up as
// a fingerprint diff (DESIGN.md §5g).

// FNV-1a over the whole routing result: summary, then per net its index,
// sink order, sink delays (bit patterns) and wire nodes.
std::uint64_t route_fingerprint(const RoutingResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_int = [&](long long v) { mix(&v, sizeof v); };
  mix_int(r.success ? 1 : 0);
  mix_int(r.worst_iterations);
  mix_int(r.overused_nodes);
  mix_int(static_cast<long long>(r.nets.size()));
  for (const NetRoute& nr : r.nets) {
    mix_int(nr.net_index);
    mix_int(static_cast<long long>(nr.sink_smbs.size()));
    for (int s : nr.sink_smbs) mix_int(s);
    for (double d : nr.sink_delay_ps) mix(&d, sizeof d);
    mix_int(static_cast<long long>(nr.wire_nodes.size()));
    for (int n : nr.wire_nodes) mix_int(n);
  }
  return h;
}

// Schedules, clusters and places a random DAG at one folding level — a
// miniature of the flow's front end, so the router sees realistic
// multi-cycle nets without paying for the whole flow per config.
struct Physical {
  Design d;
  DesignSchedule sched;
  ClusteredDesign cd;
  Placement p;
};

Physical build_physical(const RandomDagSpec& spec, int level,
                        const ArchParams& arch) {
  Physical ph;
  ph.d = make_random_design(spec);
  CircuitParams params = extract_circuit_params(ph.d.net);
  ph.sched.folding = make_folding_config(params, level);
  ph.sched.planes_share = !ph.sched.folding.no_folding();
  for (int plane = 0; plane < params.num_plane; ++plane) {
    PlaneScheduleGraph g =
        build_schedule_graph(ph.d, plane, ph.sched.folding);
    ph.sched.plane_results.push_back(schedule_plane(g, arch));
    ph.sched.graphs.push_back(std::move(g));
  }
  ph.cd = temporal_cluster(ph.d, ph.sched, arch);
  PlacementOptions popts;
  popts.fast_effort = 0.3;  // cheap placements; the router is under test
  popts.detailed_effort = 1.0;
  PlacementResult pr = place_design(ph.cd, arch, popts);
  ph.p = pr.placement;
  return ph;
}

TEST(PathFinderDifferential, SweepSeedsLevelsChannels) {
  // Two input sizes: 64-LUT circuits on the normal and a narrow fabric,
  // and 120-LUT circuits on the narrow fabric only, where negotiations
  // run long and many nets rip up every iteration. Every input spans
  // several SMBs (a single-SMB clustering routes nothing and would pin an
  // empty result). `batch4` pins the batched schedule (batch_size 4 on a
  // 4-thread pool) for the first seed of each size; 0 = not pinned.
  struct Pin {
    int luts;
    std::uint64_t seed;
    int level;
    bool narrow;
    std::uint64_t fingerprint, batch4;
  };
  const Pin pins[] = {
      {64, 1, 0, false, 0xc04a3c2cbc077a99ull, 0xc04a3c2cbc077a99ull},
      {64, 1, 0, true, 0xf2e8932eeffda848ull, 0x19a29e7cd0ae437cull},
      {64, 1, 1, false, 0x0bd78ba01b1bf08dull, 0x0bd78ba01b1bf08dull},
      {64, 1, 1, true, 0xc72b55bbc3e31505ull, 0xe6c0174d65241f12ull},
      {64, 1, 2, false, 0x014df04d6c3f4e7bull, 0x9a151fa546a5bc58ull},
      {64, 1, 2, true, 0xcc67415aeb468598ull, 0x243604a4d8801776ull},
      {64, 2, 0, false, 0xebebf4122a3610f4ull, 0},
      {64, 2, 0, true, 0x02394e72c606eb0bull, 0},
      {64, 2, 1, false, 0xa4f162baf301c4d7ull, 0},
      {64, 2, 1, true, 0x2c9c165a123b6625ull, 0},
      {64, 2, 2, false, 0x3df8879fb39d8646ull, 0},
      {64, 2, 2, true, 0xdc8b35b273fb7748ull, 0},
      {64, 3, 0, false, 0xd24a744f4ab1a7c1ull, 0},
      {64, 3, 0, true, 0x7c42066c8aeeedb5ull, 0},
      {64, 3, 1, false, 0x4470effe2b2a7324ull, 0},
      {64, 3, 1, true, 0x09bb2d6f14be16fdull, 0},
      {64, 3, 2, false, 0xabad6985f74d1daaull, 0},
      {64, 3, 2, true, 0x945ed527ce1bcd05ull, 0},
      {64, 4, 0, false, 0x85a35215f29e1299ull, 0},
      {64, 4, 0, true, 0x564d7cfb6f6d1888ull, 0},
      {64, 4, 1, false, 0x5d6ba476c90e9593ull, 0},
      {64, 4, 1, true, 0x5d6ba476c90e9593ull, 0},
      {64, 4, 2, false, 0xd5696ba06ca8d48bull, 0},
      {64, 4, 2, true, 0x2d4523156b83f22cull, 0},
      {64, 5, 0, false, 0x2ba96bc587381b48ull, 0},
      {64, 5, 0, true, 0xa0f7a94da4e03a25ull, 0},
      {64, 5, 1, false, 0x457d522fd678fc4cull, 0},
      {64, 5, 1, true, 0xdbb5659166a7ccfcull, 0},
      {64, 5, 2, false, 0x40d791c448075e0cull, 0},
      {64, 5, 2, true, 0x068390d36d4589cbull, 0},
      {120, 11, 0, true, 0x294d85e59d28d656ull, 0xae45c1c94427095aull},
      {120, 11, 1, true, 0x21565c49410b9844ull, 0x6d8d6af52fb5490full},
      {120, 11, 2, true, 0x47dee218811568aeull, 0x2d048089c53e0904ull},
      {120, 12, 0, true, 0x7e005106caa3f953ull, 0},
      {120, 12, 1, true, 0x57c181f206137cafull, 0},
      {120, 12, 2, true, 0x0151fe16361ec1dfull, 0},
      {120, 13, 0, true, 0xed0a1b6c414b40e1ull, 0},
      {120, 13, 1, true, 0x8b48953c16fe55d8ull, 0},
      {120, 13, 2, true, 0x9df3f621105dd63dull, 0},
      {120, 14, 0, true, 0x9490b4b9ef52ecc2ull, 0},
      {120, 14, 1, true, 0xace9651e38956c00ull, 0},
      {120, 14, 2, true, 0x53de8d89ccf2132dull, 0},
      {120, 15, 0, true, 0x3510e763bfef43e5ull, 0},
      {120, 15, 1, true, 0x2dcc0a02c8e42d5bull, 0},
      {120, 15, 2, true, 0x92c310cdf2a91013ull, 0},
      {120, 16, 0, true, 0xb31024428e6bb003ull, 0},
      {120, 16, 1, true, 0x473022506cb61d50ull, 0},
      {120, 16, 2, true, 0xeff6f475444af290ull, 0},
  };
  for (const Pin& pin : pins) {
    ArchParams arch = ArchParams::paper_instance_unbounded_k();
    if (pin.narrow) {
      arch.direct_links_per_side = 2;
      arch.len1_tracks = 4;
      arch.len4_tracks = 2;
      arch.global_tracks = 2;
    }
    RandomDagSpec spec;
    spec.luts_per_plane = pin.luts;
    spec.depth = 4;
    spec.num_inputs = 10;
    spec.seed = pin.seed;
    Physical ph = build_physical(spec, pin.level, arch);
    RrGraph rr(ph.p.grid, arch);
    const std::string ctx = std::to_string(pin.luts) + " LUTs seed " +
                            std::to_string(pin.seed) + " level " +
                            std::to_string(pin.level) +
                            (pin.narrow ? " narrow" : " normal");
    RouterOptions opts;
    opts.max_iterations = 20;  // allow honest failures when narrow
    const RoutingResult r = route_design(ph.cd, ph.p, rr, opts);
    EXPECT_GE(r.nets.size(), 1u) << ctx;
    EXPECT_EQ(route_fingerprint(r), pin.fingerprint) << ctx;
    std::string why;
    EXPECT_TRUE(validate_routing(ph.cd, ph.p, rr, r, &why)) << ctx << why;
    if (pin.luts == 120) {  // the large size must really negotiate
      EXPECT_GT(r.worst_iterations, 1) << ctx;
    }
    if (pin.batch4 != 0) {
      opts.batch_size = 4;
      ThreadPool pool(4);
      EXPECT_EQ(route_fingerprint(route_design(ph.cd, ph.p, rr, opts, &pool)),
                pin.batch4)
          << ctx << " batch4";
    }
  }
}

// ---------------------------------------------------------------------------
// Route-tree property/invariant checks (validate_routing).

TEST(ValidateRouting, AcceptsRealResultsRejectsCorruptions) {
  // Needs a design big enough to span several SMBs: a single-SMB
  // clustering has no inter-SMB nets, and every corruption below would
  // be a no-op.
  Physical ph;
  {
    RandomDagSpec spec;
    spec.luts_per_plane = 96;
    spec.depth = 4;
    spec.num_inputs = 20;
    spec.seed = 3;
    ArchParams arch = ArchParams::paper_instance_unbounded_k();
    ph = build_physical(spec, 1, arch);
  }
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  RrGraph rr(ph.p.grid, arch);
  RoutingResult r = route_design(ph.cd, ph.p, rr);
  ASSERT_TRUE(r.success);
  ASSERT_FALSE(r.nets.empty());
  std::string why;
  EXPECT_TRUE(validate_routing(ph.cd, ph.p, rr, r, &why)) << why;

  // OPINs never feed IPINs directly, so stripping a net's wire nodes is
  // guaranteed to disconnect its sinks from the driver.
  RoutingResult broken = r;
  bool corrupted = false;
  for (NetRoute& nr : broken.nets) {
    if (!nr.wire_nodes.empty()) {
      nr.wire_nodes.clear();
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "no net with wire nodes to corrupt";
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, broken, &why));
  EXPECT_FALSE(why.empty());

  // A node listed twice violates the tree-set invariant.
  RoutingResult duped = r;
  for (NetRoute& nr : duped.nets) {
    if (!nr.wire_nodes.empty()) {
      nr.wire_nodes.push_back(nr.wire_nodes.front());
      break;
    }
  }
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, duped, &why));

  RoutingResult missing = r;
  missing.nets.pop_back();
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, missing, &why));

  RoutingResult doubled = r;
  doubled.nets.push_back(doubled.nets.front());
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, doubled, &why));
}

TEST(PathFinderStarvation, ExtremePresFacReportsOveruseHonestly) {
  // Regression for the seed's absolute-epsilon stale-entry check
  // (DESIGN.md §5g): at pres_fac ~1e16 the A* priority `cost + est`
  // rounds away far more than 1e-12, so `prio - est` exceeded
  // `best_cost + 1e-12` for *fresh* queue entries, the wavefront starved,
  // and the router raised "sink unreachable" even though a (congested)
  // path exists. With the relative-epsilon guard the router terminates
  // honestly: overused, success = false, structurally valid routes.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 0;  // only length-1 wires exist, capacity 1
  arch.len1_tracks = 1;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 3; ++i) nets.push_back(net(i, 0, 0, {5}));
  ClusteredDesign cd = synthetic(6, 1, std::move(nets));
  Placement p = row_placement(6, 6);
  RrGraph rr(p.grid, arch);
  RouterOptions opts;
  opts.initial_pres_fac = 1e16;  // what ~60 escalations reach on an
                                 // unroutable fabric, applied directly
  opts.max_iterations = 3;
  RoutingResult r = route_design(cd, p, rr, opts);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.overused_nodes, 0);
  std::string why;
  EXPECT_TRUE(validate_routing(cd, p, rr, r, &why)) << why;
}

TEST(PathFinder, UsageCountsByType) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(2, 1, {net(0, 0, 0, {1})});
  Placement p;
  p.grid = {8, 8};
  p.site_of_smb = {0, 7};  // far apart in one row
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  // A 7-site span should use long wires, not 7 direct hops.
  EXPECT_GT(r.usage.len4 + r.usage.global, 0);
}

}  // namespace
}  // namespace nanomap

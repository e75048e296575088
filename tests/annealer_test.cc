// The annealer's pin-set view and incremental cost kernel: nets collapse
// into weighted distinct SMB sets whose objective matches placement_cost,
// and cached bounding boxes with boundary-occupancy counts must track a
// from-scratch recompute of that objective exactly — including through
// swap moves, rollbacks, shrink-edge rescans, and nets that name the same
// SMB more than once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "circuits/benchmarks.h"
#include "core/temporal_cluster.h"
#include "netlist/plane.h"
#include "place/annealer.h"
#include "place/net_bbox.h"
#include "place/pin_sets.h"

namespace nanomap {
namespace {

// A synthetic clustered design with controllable fanout; no netlist
// behind it — placement only reads num_smbs and nets.
ClusteredDesign make_random_cd(int smbs, int nets, int max_fanout,
                               std::uint64_t seed) {
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = smbs;
  Rng rng(seed);
  for (int i = 0; i < nets; ++i) {
    PlacedNet pn;
    pn.driver_smb = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(smbs)));
    pn.criticality = rng.next_double();
    int fanout = rng.next_int(1, max_fanout);
    std::set<int> sinks;
    while (static_cast<int>(sinks.size()) < fanout) {
      int s = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(smbs)));
      if (s != pn.driver_smb) sinks.insert(s);
    }
    pn.sink_smbs.assign(sinks.begin(), sinks.end());
    cd.nets.push_back(std::move(pn));
  }
  return cd;
}

Placement random_placement(const ClusteredDesign& cd, Rng* rng) {
  Placement p;
  p.grid = size_grid_for(cd.num_smbs);
  std::vector<int> sites(static_cast<std::size_t>(p.grid.sites()));
  for (int i = 0; i < p.grid.sites(); ++i)
    sites[static_cast<std::size_t>(i)] = i;
  rng->shuffle(sites);
  p.site_of_smb.assign(sites.begin(),
                       sites.begin() + cd.num_smbs);
  return p;
}

// A paper circuit scheduled and clustered at one folding level.
ClusteredDesign cluster_benchmark(const std::string& name, int level) {
  Design d = make_benchmark(name);
  CircuitParams p = extract_circuit_params(d.net);
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  DesignSchedule sched;
  sched.folding = make_folding_config(p, level);
  sched.planes_share = true;
  for (int plane = 0; plane < p.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, sched.folding);
    sched.plane_results.push_back(schedule_plane(g, arch));
    sched.graphs.push_back(std::move(g));
  }
  return temporal_cluster(d, sched, arch);
}

PlacedNet net(int driver, std::vector<int> sinks, double criticality) {
  PlacedNet pn;
  pn.driver_smb = driver;
  pn.sink_smbs = std::move(sinks);
  pn.criticality = criticality;
  return pn;
}

std::vector<int> set_of(const PinSets& sets, int s) {
  std::span<const int> smbs = sets.smbs(s);
  return {smbs.begin(), smbs.end()};
}

TEST(PinSets, SelfFeedingNetIsASingleSmbSet) {
  ClusteredDesign cd;
  cd.num_smbs = 3;
  cd.nets.push_back(net(2, {2}, 0.5));  // drives only its own SMB
  cd.nets.push_back(net(0, {1}, 0.0));
  PinSets sets = collapse_pin_sets(cd, 0.8);
  ASSERT_EQ(sets.size(), 2);
  EXPECT_EQ(set_of(sets, 0), std::vector<int>({2}));
  EXPECT_EQ(set_of(sets, 1), std::vector<int>({0, 1}));
  EXPECT_EQ(sets.num_nets, 2);
  EXPECT_EQ(sets.num_smbs, 3);

  // A one-SMB set has a zero-length box wherever it sits, and the
  // annealer carries it through a full run.
  EXPECT_EQ(sets.weight[0], 1.0 + 0.8 * 0.5);
  Rng rng(4);
  Placement init = random_placement(cd, &rng);
  EXPECT_EQ(pin_set_cost(sets, init), placement_cost(cd, init, 0.8));
  Annealer a(sets, init, &rng);
  a.run(2.0);
  EXPECT_EQ(a.cost(), pin_set_cost(sets, a.placement()));
}

TEST(PinSets, DriverAmongSinksAndRepeatedSinksDeduplicate) {
  ClusteredDesign cd;
  cd.num_smbs = 4;
  cd.nets.push_back(net(1, {3, 1, 0, 3}, 0.0));
  cd.nets.push_back(net(0, {3, 1}, 0.0));  // same SMBs, other driver
  cd.nets.push_back(net(3, {0}, 0.0));
  PinSets sets = collapse_pin_sets(cd, 0.8);
  ASSERT_EQ(sets.size(), 2);
  EXPECT_EQ(set_of(sets, 0), std::vector<int>({0, 1, 3}));
  EXPECT_EQ(set_of(sets, 1), std::vector<int>({0, 3}));
  EXPECT_EQ(sets.begin, std::vector<int>({0, 3, 5}));
  EXPECT_EQ(sets.weight, std::vector<double>({2.0, 1.0}));
}

TEST(PinSets, WeightsSumInNetOrderAndSetsNumberByFirstAppearance) {
  ClusteredDesign cd;
  cd.num_smbs = 5;
  const double tw = 0.8;
  const double c[] = {0.1, 0.7, 0.3, 0.9, 0.25};
  cd.nets.push_back(net(4, {2}, c[0]));     // set 0: {2, 4}
  cd.nets.push_back(net(0, {1, 3}, c[1]));  // set 1: {0, 1, 3}
  cd.nets.push_back(net(2, {4}, c[2]));     // set 0 again
  cd.nets.push_back(net(3, {0, 1}, c[3]));  // set 1 again
  cd.nets.push_back(net(4, {2}, c[4]));     // set 0 again
  PinSets sets = collapse_pin_sets(cd, tw);
  ASSERT_EQ(sets.size(), 2);
  EXPECT_EQ(set_of(sets, 0), std::vector<int>({2, 4}));
  EXPECT_EQ(set_of(sets, 1), std::vector<int>({0, 1, 3}));
  // Bit-exact: the weights are added in net order.
  double w0 = 1.0 + tw * c[0];
  w0 += 1.0 + tw * c[2];
  w0 += 1.0 + tw * c[4];
  double w1 = 1.0 + tw * c[1];
  w1 += 1.0 + tw * c[3];
  EXPECT_EQ(sets.weight[0], w0);
  EXPECT_EQ(sets.weight[1], w1);
  EXPECT_EQ(collapse_pin_sets(cd, 0.0).weight,
            std::vector<double>({3.0, 2.0}));
}

// The set count is the number of distinct {driver} ∪ sinks SMB sets,
// counted independently the way the end-to-end benchmark reports it.
TEST(PinSets, CountsMatchDistinctPinSetsOnPaperCircuits) {
  for (const std::string& name : benchmark_names()) {
    for (int level : {1, 2}) {
      ClusteredDesign cd = cluster_benchmark(name, level);
      std::set<std::vector<int>> distinct;
      for (const PlacedNet& pn : cd.nets) {
        std::vector<int> pins = pn.sink_smbs;
        pins.push_back(pn.driver_smb);
        std::sort(pins.begin(), pins.end());
        distinct.insert(std::move(pins));
      }
      PinSets sets = collapse_pin_sets(cd, 0.8);
      EXPECT_EQ(sets.size(), static_cast<int>(distinct.size()))
          << name << " level " << level;
      EXPECT_EQ(sets.num_nets, static_cast<int>(cd.nets.size()));
      EXPECT_LT(sets.size(), sets.num_nets) << name << " level " << level;
      double total = 0.0;
      for (double w : sets.weight) total += w;
      double want = 0.0;
      for (const PlacedNet& pn : cd.nets) want += 1.0 + 0.8 * pn.criticality;
      EXPECT_NEAR(total, want, 1e-9 * want) << name << " level " << level;
    }
  }
}

// The pin-set objective is placement_cost() regrouped: equal up to
// floating-point summation order.
TEST(PinSets, ObjectiveMatchesPlacementCost) {
  std::vector<ClusteredDesign> designs = {make_random_cd(30, 80, 8, 5),
                                          cluster_benchmark("ex1", 1),
                                          cluster_benchmark("ASPP4", 1)};
  for (const ClusteredDesign& cd : designs) {
    for (double tw : {0.0, 0.8}) {
      PinSets sets = collapse_pin_sets(cd, tw);
      Rng rng(17);
      for (int trial = 0; trial < 20; ++trial) {
        Placement p = random_placement(cd, &rng);
        double want = placement_cost(cd, p, tw);
        EXPECT_NEAR(pin_set_cost(sets, p), want,
                    1e-9 * std::max(1.0, want));
      }
    }
  }
}

TEST(NetBoxCache, MatchesScratchUnderRandomSinglePinMoves) {
  ClusteredDesign cd = make_random_cd(24, 40, 6, 11);
  PinSets sets = collapse_pin_sets(cd, 0.8);
  Rng rng(3);
  Placement p = random_placement(cd, &rng);
  NetBoxCache cache;
  cache.init(sets, p, nullptr);

  // Incident lists so every move updates exactly the sets it affects.
  std::vector<std::vector<int>> sets_of(
      static_cast<std::size_t>(cd.num_smbs));
  for (int s = 0; s < sets.size(); ++s)
    for (int m : sets.smbs(s))
      sets_of[static_cast<std::size_t>(m)].push_back(s);

  std::set<int> used(p.site_of_smb.begin(), p.site_of_smb.end());
  for (int step = 0; step < 2000; ++step) {
    int smb = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(cd.num_smbs)));
    int to = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(p.grid.sites())));
    if (used.count(to)) continue;  // single-SMB moves only in this fuzz
    int from = p.site_of_smb[static_cast<std::size_t>(smb)];
    int fx = from % p.grid.width, fy = from / p.grid.width;
    int tx = to % p.grid.width, ty = to / p.grid.width;
    used.erase(from);
    used.insert(to);
    p.site_of_smb[static_cast<std::size_t>(smb)] = to;
    cache.set_smb_xy(smb, tx, ty);
    for (int n : sets_of[static_cast<std::size_t>(smb)])
      cache.move_pin(n, fx, fy, tx, ty);
    // Every box — updated or not — must equal the from-scratch scan,
    // boundary counts included.
    for (int n = 0; n < cache.size(); ++n)
      ASSERT_EQ(cache.box(n), cache.compute_box(n)) << "set " << n
                                                    << " step " << step;
  }
}

TEST(NetBoxCache, ShrinkEdgeRescanIsExact) {
  // Hand-built: driver at xmax alone; moving it inward forces the
  // last-pin-on-a-shrinking-edge rescan path.
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 3;
  PlacedNet pn;
  pn.driver_smb = 0;
  pn.sink_smbs = {1, 2};
  cd.nets.push_back(pn);

  PinSets sets = collapse_pin_sets(cd, 0.8);

  Placement p;
  p.grid = {5, 5};
  // smb0 (4,0), smb1 (0,0), smb2 (2,2).
  p.site_of_smb = {4, 0, 12};
  NetBoxCache cache;
  cache.init(sets, p, nullptr);
  EXPECT_EQ(cache.box(0).xmax, 4);
  EXPECT_EQ(cache.box(0).on_xmax, 1);

  // Move smb0 to (1,1): xmax edge loses its only pin.
  p.site_of_smb[0] = 6;
  cache.set_smb_xy(0, 1, 1);
  cache.move_pin(0, 4, 0, 1, 1);
  EXPECT_EQ(cache.box(0), cache.compute_box(0));
  EXPECT_EQ(cache.box(0).xmax, 2);
  EXPECT_EQ(cache.box(0).hpwl(), 2 + 2);
}

TEST(NetBoxCache, SwapInsideOneSetLeavesTheBoxUnchanged) {
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 3;
  cd.nets.push_back(net(0, {1, 2}, 0.0));
  PinSets sets = collapse_pin_sets(cd, 0.8);
  Placement p;
  p.grid = {5, 5};
  // smb0 (4,0) alone on the xmax edge, smb1 (0,0), smb2 (2,2).
  p.site_of_smb = {4, 0, 12};
  NetBoxCache cache;
  cache.init(sets, p, nullptr);
  const NetBox before = cache.box(0);
  // Swap smb0 and smb2: both pins of the set move, the coordinate
  // multiset does not.
  cache.set_smb_xy(0, 2, 2);
  cache.set_smb_xy(2, 4, 0);
  NetBox b = before;
  cache.update_box(&b, 0, 4, 0, 2, 2, true, true);
  EXPECT_EQ(b, before);
  EXPECT_EQ(b, cache.compute_box(0));
  // A one-sided swap update is the single-pin move, in either direction.
  cache.set_smb_xy(2, 2, 2);
  b = before;
  cache.update_box(&b, 0, 4, 0, 2, 2, true, false);
  EXPECT_EQ(b, cache.compute_box(0));
  cache.set_smb_xy(0, 4, 0);
  cache.set_smb_xy(2, 1, 1);
  b = before;
  cache.update_box(&b, 0, 1, 1, 2, 2, false, true);
  EXPECT_EQ(b, cache.compute_box(0));
}

// Full-anneal audit: the final incremental cost must equal a from-scratch
// pin_set_cost recompute *bit-exactly* (same per-set products, same
// set-order reduction), and the running delta-accumulated cost must have
// stayed within rounding of it.
TEST(Annealer, FullAnnealCostMatchesScratchBitExactly) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ClusteredDesign cd = make_random_cd(30, 80, 8, 100 + seed);
    const double tw = 0.8;
    PinSets sets = collapse_pin_sets(cd, tw);
    Rng rng(seed);
    Placement init = random_placement(cd, &rng);
    Annealer a(sets, init, &rng);
    a.run(1.0);
    double scratch = pin_set_cost(sets, a.placement());
    EXPECT_EQ(a.cost(), scratch) << "seed " << seed;  // bit-exact
    EXPECT_NEAR(a.running_cost(), scratch,
                1e-6 * std::max(1.0, scratch))
        << "seed " << seed;
  }
}

// Regression for the historical incident-list double-count bug: an SMB
// named several times by one net (driver + sink — a self-feeding net — or
// repeated sink pins) used to contribute that net twice to the move
// delta, so the running cost drifted away from the true objective.
TEST(Annealer, SelfFeedingNetDoesNotDriftRunningCost) {
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 4;
  cd.nets.push_back(net(0, {0, 1, 2}, 0.5));  // driver's own SMB again
  cd.nets.push_back(net(1, {3, 3}, 0.25));    // repeated sink pin
  cd.nets.push_back(net(2, {3}, 0.0));

  PinSets sets = collapse_pin_sets(cd, 0.8);
  Rng rng(9);
  Placement init = random_placement(cd, &rng);
  Annealer a(sets, init, &rng);
  a.run(4.0);
  double scratch = pin_set_cost(sets, a.placement());
  EXPECT_EQ(a.cost(), scratch);
  EXPECT_NEAR(a.running_cost(), scratch, 1e-9 * std::max(1.0, scratch));
}

// Real-circuit end-to-end: the incremental kernel on the collapsed sets
// of a paper benchmark still lands on the exact pin-set objective.
TEST(Annealer, BenchmarkCircuitCostMatchesScratch) {
  ClusteredDesign cd = cluster_benchmark("ex1", 1);
  PinSets sets = collapse_pin_sets(cd, 0.8);
  Rng rng(42);
  Placement init = random_placement(cd, &rng);
  Annealer a(sets, init, &rng);
  a.run(1.0);
  EXPECT_EQ(a.cost(), pin_set_cost(sets, a.placement()));
}

}  // namespace
}  // namespace nanomap

// Placement's view of a clustered design's nets: weighted distinct SMB
// pin sets.
//
// The temporal-placement objective (placement.h) sums, per net and folding
// cycle, the net's weight times the half-perimeter of the bounding box of
// its SMBs. A net enters that sum only through its *set* of SMBs, so every
// net with the same set contributes weight * hpwl(set) and the nets of one
// set fold into a single term whose weight is their sum. Paper circuits
// carry many nets per set (ASPP4: 1272 nets, 43 sets), so annealing over
// the sets does a fraction of the per-move work for the same objective,
// up to floating-point summation order.
//
// place_design builds the view once per call and shares it, read-only,
// across restarts and across the fast, refine and detailed anneals.
// ClusteredDesign::nets is left as it is: routing, estimate_routability
// and placement_cost keep reading the real nets.
#pragma once

#include <span>
#include <vector>

#include "core/temporal_cluster.h"

namespace nanomap {

struct Placement;

struct PinSets {
  int num_smbs = 0;
  // Real nets collapsed into the sets (ClusteredDesign::nets.size()). The
  // anneal's exit temperature is scaled per real net, as before the
  // collapse.
  int num_nets = 0;
  // Set s's SMBs are pins[begin[s] .. begin[s + 1]), ascending and
  // distinct; begin has size() + 1 entries.
  std::vector<int> begin;
  std::vector<int> pins;
  // Per set: the sum over its member nets of 1 + timing_weight *
  // criticality, added in net order.
  std::vector<double> weight;

  int size() const { return static_cast<int>(weight.size()); }
  std::span<const int> smbs(int set) const {
    const std::size_t b = static_cast<std::size_t>(
        begin[static_cast<std::size_t>(set)]);
    const std::size_t e = static_cast<std::size_t>(
        begin[static_cast<std::size_t>(set) + 1]);
    return {pins.data() + b, e - b};
  }
};

// Collapses cd.nets into weighted distinct pin sets. Each net becomes the
// sorted, deduplicated set {driver} ∪ sinks; sets are numbered in order of
// first appearance by net index.
PinSets collapse_pin_sets(const ClusteredDesign& cd, double timing_weight);

// The annealer's objective from scratch: weight * hpwl of every set,
// summed in set order. Equals placement_cost() up to summation order.
double pin_set_cost(const PinSets& sets, const Placement& placement);

}  // namespace nanomap

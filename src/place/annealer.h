// Simulated-annealing engine for SMB placement (VPR-like schedule).
//
// Internal to nm_place; place/placement.cc drives it for the fast, refine
// and detailed passes. The annealer works on the weighted distinct pin
// sets of the design (pin_sets.h), not on its nets: nets with the same SMB
// set share one bounding box and one summed weight, so a move touches each
// affected set once however many nets it stands for. The objective is the
// placement_cost() of the real nets up to floating-point summation order.
//
// Cost evaluation is incremental on top of NetBoxCache: each move touches
// only the sets incident to the two swapped SMBs, and each touched set's
// bounding box updates in O(1) (boundary-occupancy counts) instead of an
// O(set size) rescan. Because the cached boxes are exact integer state,
// every delta equals the one a from-scratch recompute of the same sets
// would give.
//
// The move loop is allocation-free in steady state: the affected-set list
// and its dry-run boxes live in preallocated scratch arrays sized at
// construction.
//
// Building with -DNANOMAP_AUDIT_COST=ON (CMake option) cross-checks the
// incremental state against a from-scratch recompute at every temperature
// step: each cached box must equal compute_box(), and cost() must equal
// pin_set_cost() bit-exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "place/net_bbox.h"
#include "place/pin_sets.h"
#include "place/placement.h"

namespace nanomap {

class Annealer {
 public:
  // `sets` must outlive the annealer. `pool` (optional) parallelizes the
  // initial full-cost evaluation — per-set bounding boxes computed
  // concurrently, reduced in set order, so the sum is bit-identical to the
  // serial loop. The annealing walk itself is inherently sequential (each
  // move's acceptance depends on the previous state) and always runs on
  // the calling thread.
  // `legal` (optional) rejects moves that would park an SMB on a
  // defective site; the check runs after the move's coordinate draws and
  // before the acceptance draw, so an all-legal fabric consumes exactly
  // the historical RNG stream.
  Annealer(const PinSets& sets, const Placement& initial, Rng* rng,
           ThreadPool* pool = nullptr, const PlaceLegality* legal = nullptr);

  // Runs one full annealing schedule; `effort` scales moves per
  // temperature. Returns the best placement found.
  void run(double effort);

  const Placement& placement() const { return placement_; }
  // Exact objective of the current placement: weighted HPWL summed from
  // the cached per-set boxes in set order, bit-identical to a
  // pin_set_cost() recompute. O(#sets); intended for end-of-anneal
  // reporting and audits, not the move loop.
  double cost() const;
  // The incrementally accumulated objective (initial cost plus every
  // accepted delta, in move order). Tracks cost() up to floating-point
  // accumulation rounding; the annealing schedule reads this one.
  double running_cost() const { return cost_; }
  long moves_attempted() const { return moves_attempted_; }
  long moves_accepted() const { return moves_accepted_; }

 private:
  double cached_set_cost(int set) const {
    return sets_.weight[static_cast<std::size_t>(set)] *
           static_cast<double>(boxes_.box(set).hpwl());
  }
  // Attempts one swap/move at temperature t with displacement limit rlim;
  // returns true if accepted.
  bool try_move(double t, int rlim);
#ifdef NANOMAP_AUDIT_COST
  void audit_cost() const;
#endif

  const PinSets& sets_;
  Placement placement_;
  std::vector<int> smb_at_site_;  // site -> smb (-1 empty)
  // smb -> incident sets, ascending by set index (an SMB appears at most
  // once per set, so each list is duplicate-free; the ascending order
  // keeps the before/after cost sums in set order), each list terminated
  // by an INT_MAX sentinel for the branch-light swap-move merge.
  std::vector<std::vector<int>> sets_of_;
  // set -> weight * hpwl(box), the exact cached product, so the move
  // loop's `before` sum is one load+add per set. Kept in lockstep with
  // the boxes: updated only when a move commits.
  std::vector<double> cost_of_;
  NetBoxCache boxes_;
  double cost_ = 0.0;
  Rng* rng_;
  const PlaceLegality* legal_ = nullptr;
  long moves_attempted_ = 0;
  long moves_accepted_ = 0;

  // Per-move scratch (preallocated; the move loop never allocates),
  // struct-of-arrays so the 16-byte box halves stay cache-line aligned
  // in the hot loop. Slot k holds the k-th touched set's index, the
  // dry-run updated box of the speculative move, and its new cost
  // product; acceptance commits these into the cache, rejection just
  // discards them (the cached boxes were never written). The generation
  // stamp asserts each set is touched at most once per move — the merge
  // over duplicate-free incident lists guarantees it structurally, so
  // release builds skip the check and audit builds verify it.
  std::vector<int> touched_sets_;
  std::vector<NetBox> touched_boxes_;
  std::vector<double> touched_costs_;
  int n_touched_ = 0;
  std::vector<std::uint64_t> set_stamp_;  // set -> last touching move
  std::uint64_t move_gen_ = 0;
};

}  // namespace nanomap

// Parallel design-space exploration over folding levels and fabric
// variants (DESIGN.md §5h; ROADMAP "parallel design-space exploration").
//
// run_nanomap's serial search tries candidate folding levels one at a
// time and commits to the first feasible one. run_nanomap_explore
// evaluates the *whole* candidate space — every folding level the serial
// search would consider, optionally crossed with fabric variants
// (channel widths, SMB sizes, NRAM depth k) — as independent flow jobs,
// concurrently over the existing ThreadPool, then folds the results
// deterministically:
//
//  * Candidate order is fixed up front (level-major, base arch before
//    variants); every tie anywhere breaks toward the lowest index.
//  * Candidates whose schedule/routing state is provably shareable (same
//    folding level, arch equal except channel tracks) form a chain that
//    runs sequentially with one FlowWarmStart; chains run in parallel
//    with each other. A chain's shape depends only on the candidate
//    list, so warm-start behavior — and therefore every counter and
//    every result byte — is identical in serial and parallel mode, at
//    any --threads.
//  * Each candidate runs in its own request context via run_nanomap_job:
//    no process-wide scopes, thread-local fault plans, muted trace
//    spans. The explorer owns the single TraceScope for the sweep.
//
// The winner is selected by the FlowOptions objective over *measured*
// results (not first-feasible-wins), and the report gains an `explore`
// section: per-candidate outcomes plus the Pareto front over
// (#LEs, delay, folding cycles).
#pragma once

#include "flow/nanomap_flow.h"

namespace nanomap {

enum class ExploreMode {
  kSerial,    // one chain at a time, on the calling thread
  kParallel,  // chains as pool jobs (byte-identical to kSerial)
};

const char* explore_mode_name(ExploreMode mode);

// One fabric variant to cross with every candidate folding level. The
// base FlowOptions::arch is always variant 0; these are variants 1..N in
// the order given. Typical use: channel-width scalings (which warm-start
// off the base candidate), SMB sizes, or NRAM depths (which don't).
struct FabricVariant {
  std::string label;  // short suffix for candidate labels, e.g. "x1.25"
  ArchParams arch;
};

struct ExploreOptions {
  ExploreMode mode = ExploreMode::kParallel;

  // Folding levels to evaluate. Empty = the levels run_nanomap's serial
  // search would try (candidate_folding_levels), which makes the
  // explorer a drop-in replacement for the serial search.
  std::vector<int> levels;

  // Fabric variants crossed with every level (see FabricVariant).
  std::vector<FabricVariant> variants;

  // Donate the schedule along admissible chains. Off = every
  // candidate runs cold (results are byte-identical either way; the knob
  // exists for benchmarking and for the warm-vs-cold identity tests).
  bool warm_start = true;

  // Restrict FlowOptions::fault_plan to this candidate index (-1 = arm
  // it in every candidate). Either way each candidate counts hits in its
  // own ThreadFaultScope, so attribution is exact and deterministic.
  int fault_candidate = -1;
};

struct ExploreResult {
  // True when any candidate was feasible.
  bool feasible = false;
  int winner_index = -1;

  // Full flow result of the winning candidate (default-constructed
  // infeasible result when none won). Byte-identical to what
  // run_nanomap_job returns for that candidate alone.
  FlowResult winner;

  // Per-candidate full results, in candidate order (index == position).
  std::vector<FlowResult> results;

  // The explore section also embedded in `report`.
  ExploreReport explore;

  // Winner-based run report with the `explore` section attached;
  // report.levels_tried counts every candidate evaluated and
  // report.events merges every candidate's trail in candidate order.
  RunReport report;

  double wall_seconds = 0.0;
};

// Evaluates the candidate space and folds the results as documented
// above. Throws InputError on invalid options (same contract as
// run_nanomap); everything else returns a clean result.
ExploreResult run_nanomap_explore(const Design& design,
                                  const FlowOptions& flow,
                                  const ExploreOptions& explore = {});

}  // namespace nanomap

#include <sstream>

#include "bench.h"
#include "bitstream/emulator.h"
#include "netlist/simulate.h"
#include "route/rr_graph.h"
#include "util/rng.h"

namespace flowbench {

using namespace nanomap;

namespace {

constexpr int kSequences = 2;
constexpr int kStepsPerSequence = 8;

// Drives Simulator and FoldedEmulator with one random input sequence and
// compares every primary output after each pass and every register after
// each commit (the equivalence the repository's tests pin per level).
bool emulation_matches(const Design& design, const FlowResult& result,
                       std::uint64_t seed, std::string* why) {
  Simulator golden(design.net);
  FoldedEmulator folded(design, result.schedule, result.clustered);
  golden.reset(false);
  folded.reset(false);

  std::vector<int> inputs, outputs, registers;
  for (int id = 0; id < design.net.size(); ++id) {
    switch (design.net.node(id).kind) {
      case NodeKind::kInput: inputs.push_back(id); break;
      case NodeKind::kOutput: outputs.push_back(id); break;
      case NodeKind::kFlipFlop: registers.push_back(id); break;
      default: break;
    }
  }
  Rng rng(seed);
  for (int step = 0; step < kStepsPerSequence; ++step) {
    for (int pi : inputs) {
      const bool v = rng.next_bool();
      golden.set_input(pi, v);
      folded.set_input(pi, v);
    }
    golden.step();
    folded.run_pass();
    for (int id : outputs) {
      if (folded.value(id) != golden.value(id)) {
        std::ostringstream os;
        os << "emulated output " << design.net.node(id).name
           << " differs from simulation at step " << step;
        *why = os.str();
        return false;
      }
    }
    golden.evaluate();
    for (int id : registers) {
      if (folded.value(id) != golden.value(id)) {
        std::ostringstream os;
        os << "emulated register " << design.net.node(id).name
           << " differs from simulation at step " << step;
        *why = os.str();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool check_flow_result(const Design& design, const FlowResult& result,
                       std::uint64_t seed, std::string* why) {
  if (!result.feasible) {
    *why = "infeasible: " + result.message;
    return false;
  }
  RrGraph rr(result.placement.placement.grid, result.routed_arch);
  std::string routing_why;
  if (!validate_routing(result.clustered, result.placement.placement, rr,
                        result.routing, &routing_why)) {
    *why = "invalid routing: " + routing_why;
    return false;
  }
  for (int s = 0; s < kSequences; ++s)
    if (!emulation_matches(design, result,
                           derive_seed(seed, static_cast<std::uint64_t>(s)),
                           why))
      return false;
  return true;
}

}  // namespace flowbench

// Shared declarations of the flowbench program: run configuration, the
// metric record every workload fills, and the workload entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "flow/nanomap_flow.h"
#include "harness.h"
#include "netlist/rtl_netlist.h"

namespace flowbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir;  // scratch space for generated netlists
};

// What one run reports. `metrics` holds values by metric name; main.cc
// prints them in the order and with the units BENCHMARK.json lists.
struct RunOutput {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;  // why correct is false, for stderr
};

RunOutput run_paper(const RunConfig& config);
RunOutput run_congested(const RunConfig& config);
RunOutput run_stream(const RunConfig& config);
RunOutput run_batch(const RunConfig& config);

// --- shared helpers (flow_workloads.cc) ---------------------------------------

// Runs `setup` nine times and returns the median of its process CPU
// time in seconds (CPU time, so that filesystem and scheduler noise of a
// shared host do not swamp a set-up of tens of milliseconds); the state
// built by the last call is what the run uses.
double timed_setup(const std::function<void()>& setup);

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

// --- output checks (checks.cc) ------------------------------------------------

// Checks one feasible flow result: validate_routing on a rebuilt RR graph
// of the winning rung, then the folded emulation of the mapping against
// direct netlist simulation on seeded random input sequences. Returns
// false and fills *why on the first violation.
bool check_flow_result(const nanomap::Design& design,
                       const nanomap::FlowResult& result, std::uint64_t seed,
                       std::string* why);

}  // namespace flowbench

// flowbench: one workload of the NanoMap end-to-end benchmark.
//
//   flowbench --workload paper|congested|stream|batch --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// Prints, as its last stdout line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "facts": {...}, "metrics": {"name": value, ...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// workload's traced run (--trace 1). flowbench/run.py attaches units from
// BENCHMARK.json and host facts. Exits 1 when an output check failed and
// 2 on bad arguments or an error that prevented measuring.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace flowbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload "
               "paper|congested|stream|batch --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               why.c_str());
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        if (!(config.seconds > 0.0)) usage("--seconds must be > 0");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--workdir") {
        config.workdir = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (config.workdir.empty()) usage("--workdir is required");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse_args(argc, argv);
  RunOutput out;
  try {
    if (config.workload == "paper")
      out = run_paper(config);
    else if (config.workload == "congested")
      out = run_congested(config);
    else if (config.workload == "stream")
      out = run_stream(config);
    else if (config.workload == "batch")
      out = run_batch(config);
    else
      usage("unknown workload " + config.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "flowbench: check failed: %s\n", p.c_str());

  nanomap::JsonWriter w(/*compact=*/true);
  w.begin_object();
  w.field("correct", out.correct);
  w.field("attempted", out.attempted);
  w.field("failed", out.failed);
  w.key("facts");
  w.begin_object();
  w.field("build_type", FLOWBENCH_BUILD_TYPE);
  w.field("compiler", FLOWBENCH_COMPILER);
  w.field("hardware_threads", nanomap::ThreadPool::hardware_threads());
  w.end();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : out.metrics) w.field(name, value);
  w.end();
  w.end();
  std::printf("%s\n", w.str().c_str());
  return out.correct ? 0 : 1;
}

// Design-space explorer throughput: run_nanomap_explore in serial vs
// parallel mode on a multi-candidate sweep (folding levels crossed with a
// widened-channel fabric variant). Besides the wall-clock comparison,
// every row *asserts* byte-identity of the fold — winner index, Pareto
// front, every candidate's metrics and serialized bitmap, the warm-start
// decisions, and the merged diagnostic trail — across
//   serial@1  vs  serial@T  vs  parallel@1  vs  parallel@T,
// plus a warm-start-off run whose measured results must match the warm
// runs byte for byte (only the warm counters may differ). The benchmark
// doubles as an end-to-end determinism check and exits nonzero on any
// divergence.
//
// Wall-clock note: parallel-mode speedup scales with real cores; on a
// single-core container serial and parallel land at ~parity. The numbers
// emitted are honest measurements of this machine.
//
//   ./bench/explore_throughput [--smoke] [out.json]  (default BENCH_explore.json)
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "flow/explore.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

// The thread budget both modes share per row: serial mode gives all T
// threads to one flow job at a time; parallel mode splits them across
// candidate chains. Same resources, different schedule.
constexpr int kThreads = 4;

// Channel-width variant crossed with every level. Strictly wider but
// otherwise identical, so it chains onto the base candidate's warm state
// (same level, arch equal ignoring channel tracks -> in-place widening).
ArchParams widened(const ArchParams& base) {
  ArchParams arch = base;
  arch.len1_tracks = base.len1_tracks + (base.len1_tracks + 1) / 2;
  arch.len4_tracks = base.len4_tracks + (base.len4_tracks + 1) / 2;
  arch.global_tracks = base.global_tracks + (base.global_tracks + 1) / 2;
  return arch;
}

ExploreOptions sweep_options(const CircuitParams& params, bool variants) {
  ExploreOptions eopts;
  for (int lv : {1, 2, 3, 4})
    if (lv <= params.depth_max) eopts.levels.push_back(lv);
  eopts.levels.push_back(0);
  if (variants) {
    FabricVariant v;
    v.label = "wide";
    eopts.variants.push_back(v);  // arch filled per row from the base
  }
  return eopts;
}

// Byte fingerprint of everything the fold *measures*: winner, Pareto
// front, and per candidate the metrics plus the serialized bitmap.
// Deliberately excludes the warm-start counters so it can also compare
// warm-on vs warm-off runs (whose measured results must agree).
std::string results_fingerprint(const ExploreResult& ex) {
  std::string fp;
  auto add_int = [&](long long v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  auto add_double = [&](double v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  add_int(ex.winner_index);
  add_int(static_cast<long long>(ex.explore.pareto.size()));
  for (int idx : ex.explore.pareto) add_int(idx);
  for (const FlowResult& r : ex.results) {
    add_int(r.feasible ? 1 : 0);
    add_int(r.num_les);
    add_int(r.clustered.num_cycles);
    add_double(r.delay_ns);
    std::vector<std::uint8_t> bytes = serialize_bitmap(r.bitmap);
    fp.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  return fp;
}

// Full fold fingerprint: the measured results plus the warm-start
// decisions and the merged diagnostic trail — every byte of the explore
// report except the run's own metadata (mode label, thread count) and
// masked timings, which legitimately differ between the compared runs.
std::string fold_fingerprint(const ExploreResult& ex) {
  std::string fp = results_fingerprint(ex);
  auto add_int = [&](long long v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  add_int(ex.explore.feasible_candidates);
  add_int(ex.explore.warm_starts);
  for (const ExploreCandidateOutcome& o : ex.explore.outcomes) {
    add_int(o.warm_schedule ? 1 : 0);
    add_int(o.on_pareto_front ? 1 : 0);
    add_int(o.winner ? 1 : 0);
    fp += o.label;
    fp += o.error_kind;
  }
  for (const FlowEvent& e : ex.report.events) {
    fp += e.stage;
    add_int(e.level);
    add_int(e.attempt);
    add_int(static_cast<long long>(e.kind));
    fp += e.action;
    fp += e.detail;
  }
  return fp;
}

ExploreResult run_once(const Design& d, const FlowOptions& base,
                       const ExploreOptions& eopts, ExploreMode mode,
                       int threads, bool warm) {
  FlowOptions flow = base;
  flow.threads = threads;
  ExploreOptions opts = eopts;
  opts.mode = mode;
  opts.warm_start = warm;
  return run_nanomap_explore(d, flow, opts);
}

// serial@1 is the reference; serial@T, parallel@1 and parallel@T must
// reproduce it byte for byte, and a warm-start-off parallel run must
// reproduce the measured results (warm counters excluded by design).
bool check_identity(const Design& d, const FlowOptions& base,
                    const ExploreOptions& eopts) {
  const ExploreResult want =
      run_once(d, base, eopts, ExploreMode::kSerial, 1, true);
  const std::string want_fold = fold_fingerprint(want);
  if (fold_fingerprint(run_once(d, base, eopts, ExploreMode::kSerial,
                                kThreads, true)) != want_fold)
    return false;
  if (fold_fingerprint(run_once(d, base, eopts, ExploreMode::kParallel, 1,
                                true)) != want_fold)
    return false;
  if (fold_fingerprint(run_once(d, base, eopts, ExploreMode::kParallel,
                                kThreads, true)) != want_fold)
    return false;
  const ExploreResult cold =
      run_once(d, base, eopts, ExploreMode::kParallel, kThreads, false);
  return results_fingerprint(cold) == results_fingerprint(want);
}

template <typename Fn>
double measure_ms(int min_reps, Fn body) {
  double seconds = 0.0;
  int reps = 0;
  while (reps < min_reps || (seconds < 0.2 && reps < 500)) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    auto t1 = std::chrono::steady_clock::now();
    if (reps > 0 || min_reps == 1)
      seconds += std::chrono::duration<double>(t1 - t0).count();
    ++reps;
  }
  const int timed = min_reps == 1 ? reps : reps - 1;
  return timed > 0 ? seconds * 1000.0 / timed : 0.0;
}

struct Row {
  std::string name;
  int candidates = 0;
  int chains = 0;          // parallel jobs the chain grouping yields
  int feasible = 0;
  int warm_starts = 0;
  int winner_index = -1;
  std::string winner_label;
  double serial_ms = 0.0;    // kSerial, kThreads per flow job
  double parallel_ms = 0.0;  // kParallel, chains share kThreads
  double cold_ms = 0.0;      // kParallel with warm starts off
  bool identical = false;
};

Row measure(const std::string& name, bool variants, bool smoke) {
  Design d = make_benchmark(name);
  const CircuitParams params = extract_circuit_params(d.net);
  FlowOptions base;
  base.arch = ArchParams::paper_instance_unbounded_k();
  ExploreOptions eopts = sweep_options(params, variants);
  for (FabricVariant& v : eopts.variants) v.arch = widened(base.arch);

  Row row;
  row.name = name;
  row.identical = check_identity(d, base, eopts);

  ExploreResult last;
  const int reps = smoke ? 1 : 3;
  row.serial_ms = measure_ms(reps, [&] {
    last = run_once(d, base, eopts, ExploreMode::kSerial, kThreads, true);
  });
  row.candidates = last.explore.candidates;
  row.feasible = last.explore.feasible_candidates;
  row.warm_starts = last.explore.warm_starts;
  row.winner_index = last.winner_index;
  if (last.winner_index >= 0)
    row.winner_label =
        last.explore.outcomes[static_cast<std::size_t>(last.winner_index)]
            .label;
  row.parallel_ms = measure_ms(reps, [&] {
    last = run_once(d, base, eopts, ExploreMode::kParallel, kThreads, true);
  });
  // Chain count: candidates minus the ones that warm-chained onto an
  // earlier candidate (grouping is deterministic, so this is stable).
  row.chains = row.candidates - row.warm_starts;
  row.cold_ms = measure_ms(reps, [&] {
    last = run_once(d, base, eopts, ExploreMode::kParallel, kThreads, false);
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_explore.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else
      out_path = arg;
  }

  std::vector<Row> rows;
  rows.push_back(measure("ex1", /*variants=*/true, smoke));
  if (!smoke) {
    rows.push_back(measure("FIR", /*variants=*/true, smoke));
    rows.push_back(measure("ex1", /*variants=*/false, smoke));
  }

  // Emit BENCH_explore.json (schema in docs/FORMATS.md) through the
  // shared JSON writer — same dialect as the --report=json output.
  auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
  JsonWriter w;
  w.begin_object();
  w.field("unit", "milliseconds per full explore sweep (lower is better)");
  w.field("serial", "ExploreMode::kSerial, all threads inside one job");
  w.field("parallel",
          "ExploreMode::kParallel, candidate chains as pool jobs");
  w.field("threads", kThreads);
  w.field("hardware_threads", ThreadPool::hardware_threads());
  w.field("smoke", smoke);
  w.key("rows");
  w.begin_array();
  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    w.begin_object();
    w.field("circuit", r.name);
    w.field("candidates", r.candidates);
    w.field("chains", r.chains);
    w.field("feasible", r.feasible);
    w.field("warm_starts", r.warm_starts);
    w.field("winner_index", r.winner_index);
    w.field("winner_label", r.winner_label);
    w.field("serial_ms", round2(r.serial_ms));
    w.field("parallel_ms", round2(r.parallel_ms));
    w.field("parallel_speedup",
            round2(r.parallel_ms > 0 ? r.serial_ms / r.parallel_ms : 0.0));
    w.field("cold_parallel_ms", round2(r.cold_ms));
    w.field("warm_speedup",
            round2(r.parallel_ms > 0 ? r.cold_ms / r.parallel_ms : 0.0));
    w.field("identical_fold", r.identical);
    w.end();
    std::printf(
        "%-6s %2d candidates (%2d chains, %2d warm)  winner [%2d] %-10s  "
        "serial %8.2f ms  parallel %8.2f ms (%4.2fx)  cold %8.2f ms "
        "(warm %4.2fx)  identical %s\n",
        r.name.c_str(), r.candidates, r.chains, r.warm_starts,
        r.winner_index, r.winner_label.c_str(), r.serial_ms, r.parallel_ms,
        r.parallel_ms > 0 ? r.serial_ms / r.parallel_ms : 0.0, r.cold_ms,
        r.parallel_ms > 0 ? r.cold_ms / r.parallel_ms : 0.0,
        r.identical ? "yes" : "NO");
  }
  w.end();
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}

// The two closed-loop flow workloads, `paper` and `congested`, and the
// traced replay that splits a job's wall time into its layers.
//
// A timed run calls run_nanomap once per job, one job after another, and
// times each call; each job's output check runs after its call, outside
// the timed region. A traced run measures the same jobs twice: first
// exactly as the timed run does, then again with each call followed by a
// replay of the job's layers through their public functions (the level
// sweep, placement, RR-graph build, routing, STA, bitmap), each call
// timed from here. The replay must reproduce the job's #LEs, delay and
// bitmap size; a job whose replay differs gets no per-layer numbers.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "netlist/plane.h"
#include "route/rr_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace flowbench {

using namespace nanomap;

double timed_setup(const std::function<void()>& setup) {
  constexpr int kRepeats = 9;
  auto cpu_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };
  std::vector<double> seconds;
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = cpu_seconds();
    setup();
    seconds.push_back(cpu_seconds() - t0);
  }
  return median(seconds);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

namespace {

// Seed-stream base of the flow's re-seeded placement rung (kept equal to
// the constant in flow/nanomap_flow.cc; the replay's placement identity
// check fails loudly if the two ever drift apart).
constexpr std::uint64_t kReseedStreamBase = 0x5eedu;

struct FlowJob {
  int design = 0;  // index into FlowWorkload::designs
  FlowOptions options;
};

// One closed-loop workload: its designs (built in set-up) and the job
// sequence over them.
struct FlowWorkload {
  std::vector<Design> designs;
  std::vector<double> build_ms;  // per design, last set-up
  int round = 1;       // jobs are run in whole rounds of this many
  long qor_jobs = 0;   // the fixed job prefix QoR and counts are taken over
  // Percentiles pooled over all jobs (one generator); otherwise each job
  // is first normalized by its design's geomean (see timed_run).
  bool pooled_percentiles = true;
  std::function<FlowJob(long)> job;
};

// Wall time of one replayed layer call, summed over a job.
struct Replay {
  int levels = 0;
  double schedule_ms = 0.0;
  double cluster_ms = 0.0;
  double place_ms = 0.0;
  double rr_build_ms = 0.0;
  double route_ms = 0.0;
  double sta_ms = 0.0;
  double bitmap_ms = 0.0;
};

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

// Placement attempt that produced the result: the attempt of the last
// "recovered" routing event (a re-seeded placement), else attempt 0.
int winning_place_attempt(const FlowResult& result) {
  int attempt = 0;
  for (const FlowEvent& e : result.diagnostics.events)
    if (e.stage == "route" && e.action == "recovered") attempt = e.attempt;
  return attempt;
}

// Replays the layers of a finished feasible job through their public
// functions, timing each call. Returns nullopt (with *why) when the replay
// does not reproduce the job's #LEs, delay, placement or bitmap size.
std::optional<Replay> replay_flow(const Design& design,
                                  const FlowOptions& options,
                                  const FlowResult& result,
                                  std::string* why) {
  Replay rep;
  ThreadPool pool(options.threads > 0 ? options.threads
                                      : ThreadPool::hardware_threads());
  const CircuitParams params = extract_circuit_params(design.net);
  const int chosen = result.folding.level;

  FdsOptions fds;
  fds.scheduler = options.use_fds ? options.scheduler : SchedulerKind::kAsap;
  fds.refine = options.refine_schedule;

  std::optional<DesignSchedule> chosen_schedule;
  std::optional<ClusteredDesign> chosen_clustered;
  for (int level : candidate_folding_levels(params, options)) {
    const FoldingConfig cfg = make_folding_config(params, level);
    if (!cfg.no_folding() && !options.arch.reconf_unbounded() &&
        options.planes_share &&
        cfg.total_configs(params.num_plane) > options.arch.num_reconf)
      continue;  // the flow skips levels deeper than the NRAM
    ++rep.levels;
    DesignSchedule sched;
    sched.folding = cfg;
    sched.planes_share = cfg.no_folding() ? false : options.planes_share;
    bool feasible = true;
    rep.schedule_ms += time_ms([&] {
      try {
        for (int p = 0; p < params.num_plane && feasible; ++p) {
          PlaneScheduleGraph graph = build_schedule_graph(design, p, cfg);
          if (!graph.feasible) {
            feasible = false;
            break;
          }
          FdsResult fr = schedule_plane(graph, options.arch, fds, &pool);
          feasible = fr.feasible;
          sched.graphs.push_back(std::move(graph));
          sched.plane_results.push_back(std::move(fr));
        }
      } catch (const std::exception&) {
        feasible = false;
      }
    });
    if (!feasible) continue;
    ClusteredDesign cd;
    rep.cluster_ms += time_ms([&] {
      try {
        cd = temporal_cluster(design, sched, options.arch);
        verify_clustering(design, sched, options.arch, cd);
      } catch (const std::exception&) {
        feasible = false;
      }
    });
    if (feasible && level == chosen) {
      chosen_schedule = std::move(sched);
      chosen_clustered = std::move(cd);
    }
  }
  if (!chosen_clustered) {
    *why = "chosen level " + std::to_string(chosen) + " not in the sweep";
    return std::nullopt;
  }
  const DesignSchedule& sched = *chosen_schedule;
  const ClusteredDesign& cd = *chosen_clustered;

  PlacementOptions popts = options.placement;
  const int attempt = winning_place_attempt(result);
  popts.seed = attempt == 0
                   ? options.seed
                   : derive_seed(options.seed,
                                 kReseedStreamBase +
                                     static_cast<std::uint64_t>(attempt));
  PlacementResult placed;
  rep.place_ms = time_ms(
      [&] { placed = place_design(cd, options.arch, popts, &pool); });
  if (placed.placement.site_of_smb !=
      result.placement.placement.site_of_smb) {
    *why = "replayed placement differs";
    return std::nullopt;
  }

  std::optional<RrGraph> rr;
  rep.rr_build_ms = time_ms(
      [&] { rr.emplace(placed.placement.grid, result.routed_arch); });
  RoutingResult routed;
  rep.route_ms = time_ms([&] {
    routed = route_design(cd, placed.placement, *rr, result.routed_router,
                          &pool);
  });
  TimingReport timing;
  rep.sta_ms = time_ms([&] {
    timing = analyze_timing(design, sched, cd, placed.placement, &routed,
                            result.routed_arch);
  });
  ConfigBitmap bitmap;
  rep.bitmap_ms = time_ms([&] {
    bitmap = generate_bitmap(design, sched, cd, &routed, result.routed_arch);
  });

  if (cd.les_used != result.num_les) {
    *why = "replayed #LEs " + std::to_string(cd.les_used) + " != " +
           std::to_string(result.num_les);
    return std::nullopt;
  }
  if (!routed.success || timing.circuit_delay_ns != result.delay_ns) {
    *why = "replayed delay differs";
    return std::nullopt;
  }
  if (bitmap.total_bits != result.bitmap.total_bits) {
    *why = "replayed bitmap bits differ";
    return std::nullopt;
  }
  return rep;
}

// Distinct SMB pin sets (driver plus sinks) over the inter-SMB nets.
long distinct_pin_sets(const ClusteredDesign& cd) {
  std::set<std::vector<int>> sets;
  for (const PlacedNet& net : cd.nets) {
    std::vector<int> pins = net.sink_smbs;
    pins.push_back(net.driver_smb);
    std::sort(pins.begin(), pins.end());
    sets.insert(std::move(pins));
  }
  return static_cast<long>(sets.size());
}

long recovery_events(const FlowResult& result) {
  long n = 0;
  for (const FlowEvent& e : result.diagnostics.events)
    if (e.action == "retry" || e.action == "escalate" ||
        e.action == "fallback")
      ++n;
  return n;
}

// One job as the benchmark saw it: its wall time, what came out, and
// whether the output check passed.
struct JobRecord {
  int design = 0;
  double ms = 0.0;
  bool ok = false;
  double check_ms = 0.0;
  FlowResult result;
};

// Runs job i (timed), then checks its output (untimed, before the next
// job starts, so no result outlives its job). Check failures of feasible
// results mark the run incorrect; an infeasible job is a failed job, not
// a wrong output.
JobRecord run_job(const FlowWorkload& w, long i, std::uint64_t seed,
                  RunOutput* out) {
  const FlowJob job = w.job(i);
  const Design& design = w.designs[static_cast<std::size_t>(job.design)];
  JobRecord rec;
  rec.design = job.design;
  const auto t0 = Clock::now();
  rec.result = run_nanomap(design, job.options);
  const auto t1 = Clock::now();
  rec.ms = ms_between(t0, t1);
  std::string why;
  rec.ok = check_flow_result(design, rec.result,
                             derive_seed(seed, static_cast<std::uint64_t>(i)),
                             &why);
  rec.check_ms = ms_between(t1, Clock::now());
  if (!rec.ok && rec.result.feasible) {
    out->correct = false;
    out->problems.push_back("job " + std::to_string(i) + ": " + why);
  }
  return rec;
}

// Untimed first job: lets the allocator and caches settle before timing.
void warm_up(const FlowWorkload& w) {
  const FlowJob job = w.job(0);
  (void)run_nanomap(w.designs[static_cast<std::size_t>(job.design)],
                    job.options);
}

void timed_run(const FlowWorkload& w, const RunConfig& config,
               RunOutput* out) {
  warm_up(w);
  std::vector<double> ms;
  std::vector<int> design_of;
  double les = 0.0;
  std::vector<double> delays;
  long good = 0;
  double timed_ms = 0.0;  // the job calls only; checks are excluded
  for (long i = 0;; ++i) {
    if (i >= w.qor_jobs && i % w.round == 0 &&
        timed_ms >= config.seconds * 1000.0)
      break;
    const JobRecord rec = run_job(w, i, config.seed, out);
    timed_ms += rec.ms;
    ms.push_back(rec.ms);
    design_of.push_back(rec.design);
    good += rec.ok ? 1 : 0;
    if (i < w.qor_jobs) {  // QoR over the fixed prefix: same every run
      les += rec.result.num_les;
      if (rec.result.feasible) delays.push_back(rec.result.delay_ns);
    }
  }
  out->metrics["peak_rss_mb"] = peak_rss_mb();
  out->attempted = static_cast<long>(ms.size());
  out->failed = out->attempted - good;

  const double gm = geomean(ms);
  out->metrics["jobs_per_s"] =
      static_cast<double>(ms.size()) / (timed_ms / 1000.0);
  out->metrics["job_ms_geomean"] = gm;
  std::optional<double> p50, p90;
  if (w.pooled_percentiles) {
    p50 = percentile(ms, 0.5);
    p90 = percentile(ms, 0.9);
  } else {
    // Several generators (circuits): a pooled percentile would pick
    // whichever circuit's cluster its rank lands in. Normalize each job
    // by its circuit's geomean and scale the quantile of the ratios by the
    // overall geomean instead.
    std::map<int, std::vector<double>> by_design;
    for (std::size_t k = 0; k < ms.size(); ++k)
      by_design[design_of[k]].push_back(ms[k]);
    std::map<int, double> design_gm;
    for (const auto& [d, v] : by_design) design_gm[d] = geomean(v);
    std::vector<double> ratios;
    for (std::size_t k = 0; k < ms.size(); ++k)
      ratios.push_back(ms[k] / design_gm[design_of[k]]);
    p50 = gm * quantile(ratios, 0.5);
    p90 = gm * quantile(ratios, 0.9);
  }
  if (!p50 || !p90)
    throw std::runtime_error("too few jobs for the reported percentiles");
  out->metrics["job_ms_p50"] = *p50;
  out->metrics["job_ms_p90"] = *p90;
  out->metrics["ok_frac"] = ok_fraction(good, out->attempted);
  out->metrics["les_total"] = les;
  out->metrics["delay_ns_geomean"] = geomean(delays);
}

// Per-layer sums over the jobs whose replay reproduced them.
struct LayerTotals {
  double jobs = 0, job_ms = 0, levels = 0, schedule = 0, cluster = 0,
         place = 0, rr = 0, route = 0, sta = 0, bitmap = 0, check = 0;
  double moves = 0, accepted = 0, nets = 0, pin_sets = 0, iterations = 0,
         rerouted = 0, cache_hits = 0, cache_lookups = 0, cycles_reused = 0,
         cycles = 0, spec_batches = 0, spec_conflicts = 0, bits = 0,
         levels_tried = 0, retries = 0;

  void add(const JobRecord& rec, const Replay& rep) {
    const FlowResult& r = rec.result;
    const RouteReuseStats& reuse = r.routing.reuse;
    jobs += 1;
    job_ms += rec.ms;
    levels += rep.levels;
    schedule += rep.schedule_ms;
    cluster += rep.cluster_ms;
    place += rep.place_ms;
    rr += rep.rr_build_ms;
    route += rep.route_ms;
    sta += rep.sta_ms;
    bitmap += rep.bitmap_ms;
    check += rec.check_ms;
    moves += static_cast<double>(r.placement.moves_attempted);
    accepted += static_cast<double>(r.placement.moves_accepted);
    nets += static_cast<double>(r.clustered.nets.size());
    pin_sets += static_cast<double>(distinct_pin_sets(r.clustered));
    iterations += r.routing.worst_iterations;
    rerouted += static_cast<double>(reuse.nets_rerouted);
    cache_hits += static_cast<double>(reuse.net_cache_hits);
    cache_lookups +=
        static_cast<double>(reuse.net_cache_hits + reuse.net_cache_misses);
    cycles_reused += static_cast<double>(reuse.cycles_reused);
    cycles += static_cast<double>(reuse.cycles_total);
    spec_batches += static_cast<double>(reuse.spec_batches);
    spec_conflicts += static_cast<double>(reuse.spec_conflicts);
    bits += static_cast<double>(r.bitmap.total_bits);
    levels_tried += r.levels_tried;
    retries += static_cast<double>(recovery_events(r));
  }
};

void traced_run(const FlowWorkload& w, const RunConfig& config,
                RunOutput* out) {
  warm_up(w);
  // Pass A: the QoR prefix exactly as the timed run measures it.
  double plain_ms = 0.0;
  for (long i = 0; i < w.qor_jobs; ++i)
    plain_ms += run_job(w, i, config.seed, out).ms;

  // Pass B: the same jobs, each followed by its layer replay.
  LayerTotals t;
  double traced_ms = 0.0;
  long good = 0, refused = 0;
  for (long i = 0; i < w.qor_jobs; ++i) {
    const JobRecord rec = run_job(w, i, config.seed, out);
    traced_ms += rec.ms;
    good += rec.ok ? 1 : 0;
    if (!rec.result.feasible) continue;
    const FlowJob job = w.job(i);
    std::string why;
    const std::optional<Replay> rep =
        replay_flow(w.designs[static_cast<std::size_t>(job.design)],
                    job.options, rec.result, &why);
    if (rep) {
      t.add(rec, *rep);
    } else {
      ++refused;
      std::fprintf(stderr, "flowbench: replay of job %ld refused: %s\n", i,
                   why.c_str());
    }
  }
  out->attempted = w.qor_jobs;
  out->failed = w.qor_jobs - good;
  if (t.jobs == 0) throw std::runtime_error("no job's replay reproduced it");

  const double n = t.jobs;
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double sweep = t.schedule + t.cluster;
  const double residual = t.job_ms - (sweep + t.place + t.rr + t.route +
                                      t.sta + t.bitmap);
  auto& m = out->metrics;
  m["rtl.parse_ms"] = median(w.build_ms);
  m["core.levels"] = t.levels / n;
  m["core.sweep_ms"] = sweep / n;
  m["core.sweep_share"] = ratio(sweep, t.job_ms);
  m["core.schedule_ms"] = t.schedule / n;
  m["core.cluster_ms"] = t.cluster / n;
  m["place.ms"] = t.place / n;
  m["place.share"] = ratio(t.place, t.job_ms);
  m["place.moves"] = t.moves / n;
  m["place.accept_frac"] = ratio(t.accepted, t.moves);
  m["place.nets"] = t.nets / n;
  m["place.pin_sets"] = t.pin_sets / n;
  m["route.rr_build_ms"] = t.rr / n;
  m["route.ms"] = t.route / n;
  m["route.share"] = ratio(t.rr + t.route, t.job_ms);
  m["route.iterations"] = t.iterations / n;
  m["route.nets_rerouted"] = t.rerouted / n;
  m["route.net_cache_hit_frac"] = ratio(t.cache_hits, t.cache_lookups);
  m["route.cycles_reused_frac"] = ratio(t.cycles_reused, t.cycles);
  m["route.spec_batches"] = t.spec_batches / n;
  m["route.spec_conflict_frac"] = ratio(t.spec_conflicts, t.rerouted);
  m["route.sta_ms"] = t.sta / n;
  m["bitstream.bitmap_ms"] = t.bitmap / n;
  m["bitstream.bits"] = t.bits / n;
  m["bitstream.check_ms"] = t.check / n;
  m["flow.levels_tried"] = t.levels_tried / n;
  m["flow.retries"] = t.retries / n;
  m["flow.residual_ms"] = residual / n;
  m["flow.residual_share"] = ratio(residual, t.job_ms);
  m["bench.trace_overhead_frac"] = ratio(traced_ms, plain_ms) - 1.0;
  m["bench.replay_refused"] = static_cast<double>(refused);
}

RunOutput run_flow_workload(const FlowWorkload& w, const RunConfig& config,
                            double setup_s) {
  RunOutput out;
  if (config.trace) {
    traced_run(w, config, &out);
  } else {
    timed_run(w, config, &out);
    out.metrics["setup_s"] = setup_s;
  }
  return out;
}

}  // namespace

RunOutput run_paper(const RunConfig& config) {
  // The seven paper circuits, each placed with a fresh placement seed per
  // round; the CLI's defaults (AT objective, paper fabric), one thread.
  FlowWorkload w;
  const std::vector<std::string> names = benchmark_names();
  const double setup_s = timed_setup([&] {
    w.designs.clear();
    w.build_ms.clear();
    for (const std::string& name : names) {
      const auto t0 = Clock::now();
      w.designs.push_back(make_benchmark(name));
      w.build_ms.push_back(ms_between(t0, Clock::now()));
    }
  });
  const int circuits = static_cast<int>(w.designs.size());
  w.round = circuits;
  w.qor_jobs = 3L * circuits;
  w.pooled_percentiles = false;
  const std::uint64_t seed = config.seed;
  w.job = [seed, circuits](long i) {
    FlowJob job;
    job.design = static_cast<int>(i % circuits);
    job.options.objective = Objective::kAreaDelayProduct;
    job.options.threads = 1;
    job.options.seed =
        derive_seed(seed, static_cast<std::uint64_t>(i / circuits));
    return job;
  };
  return run_flow_workload(w, config, setup_s);
}

RunOutput run_congested(const RunConfig& config) {
  // Random 80-LUT DAGs, one per job, mapped without folding onto a fabric
  // narrowed until routing needs the recovery ladder; two threads, so the
  // pooled routing/scheduling/cost paths run.
  constexpr int kDesigns = 256;
  FlowWorkload w;
  const std::uint64_t seed = config.seed;
  const double setup_s = timed_setup([&] {
    w.designs.clear();
    w.build_ms.clear();
    for (int i = 0; i < kDesigns; ++i) {
      RandomDagSpec spec;
      spec.luts_per_plane = 80;
      spec.depth = 5;
      spec.num_inputs = 24;
      spec.seed = derive_seed(seed, static_cast<std::uint64_t>(i));
      const auto t0 = Clock::now();
      w.designs.push_back(make_random_design(spec));
      w.build_ms.push_back(ms_between(t0, Clock::now()));
    }
  });
  w.round = 1;
  w.qor_jobs = 100;
  w.pooled_percentiles = true;
  w.job = [seed](long i) {
    FlowJob job;
    job.design = static_cast<int>(i % kDesigns);
    FlowOptions& o = job.options;
    o.arch = ArchParams::paper_instance_unbounded_k();
    o.arch.direct_links_per_side = 4;
    o.arch.len1_tracks = 6;
    o.arch.len4_tracks = 3;
    o.arch.global_tracks = 2;
    o.forced_folding_level = 0;
    o.threads = 2;
    o.seed = derive_seed(seed, (1ull << 32) + static_cast<std::uint64_t>(i));
    return job;
  };
  return run_flow_workload(w, config, setup_s);
}

}  // namespace flowbench

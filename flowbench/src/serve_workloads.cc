// The two serving workloads over one generated JSON-lines job list:
// `stream` (an open loop: each line becomes readable at its due time)
// and `batch` (every line readable at once). Both run serve_jobs with
// four workers of one thread each and time every job from when its line
// was due to when its response line was written.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "bench.h"
#include "circuits/random_dag.h"
#include "rtl/blif.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace flowbench {

using namespace nanomap;

namespace {

constexpr int kWorkers = 4;
constexpr int kThreads = 4;  // one thread per worker
// Open-loop arrival rate of `stream`, a third of what `batch` measures
// the server sustaining on this mix (about 18 jobs/s on a 4-core host).
constexpr double kStreamJobsPerSecond = 6.0;
// Job count of `batch` per second of --seconds: about what the server
// completes in that time on a 4-core host.
constexpr double kBatchJobsPerSecond = 18.0;
// Jobs come in blocks of this fixed composition; a run serves whole blocks.
constexpr long kBlockJobs = 32;
// Every run serves at least this many jobs, so p90 has 10 samples beyond.
constexpr long kMinJobs = 4 * kBlockJobs;
// Jobs the trace-overhead probe serves untraced and traced.
constexpr int kOverheadProbeJobs = 32;

const char* const kCircuits[] = {"bench:ex1", "bench:FIR", "bench:ex2",
                                 "bench:c5315"};

struct JobList {
  std::vector<ServeJob> jobs;
  std::vector<std::string> lines;
  std::vector<std::string> netlists;  // random-DAG BLIF files written
};

// Blocks of 32 jobs, half a server admission chunk, all of one
// composition: 8 random-DAG netlists seen once (1/4); 4 jobs on a fabric
// with ~1% defects (1/8), one per paper circuit; 20 paper-circuit jobs,
// five per circuit (AT objective three times, min-delay and min-area once
// each) with placement seed 1, 2 or 3. The seed picks the DAGs, the
// job seeds and the order inside each block.
JobList make_job_list(std::uint64_t seed, long count,
                      const std::string& workdir) {
  struct Slot {
    int circuit = -1;  // index into kCircuits; -1 = random DAG
    Objective objective = Objective::kAreaDelayProduct;
    bool defects = false;
  };
  std::vector<Slot> composition(8);  // the random DAGs
  for (int c = 0; c < 4; ++c) {
    composition.push_back({c, Objective::kAreaDelayProduct, true});
    for (Objective o : {Objective::kAreaDelayProduct,
                        Objective::kAreaDelayProduct,
                        Objective::kAreaDelayProduct, Objective::kMinDelay,
                        Objective::kMinArea})
      composition.push_back({c, o, false});
  }
  if (static_cast<long>(composition.size()) != kBlockJobs)
    throw std::logic_error("job block composition is not kBlockJobs long");

  JobList list;
  Rng rng(seed);
  std::vector<Slot> block;
  for (long i = 0; i < count; ++i) {
    if (block.empty()) {
      block = composition;
      for (std::size_t k = block.size() - 1; k > 0; --k)
        std::swap(block[k], block[rng.next_below(k + 1)]);
    }
    const Slot slot = block.back();
    block.pop_back();

    ServeJob job;
    job.id = "j" + std::to_string(i);
    if (slot.circuit < 0) {
      RandomDagSpec spec;
      spec.luts_per_plane = 60;
      spec.depth = 6;
      spec.num_inputs = 16;
      spec.seed = rng.next_u64();
      const std::string path =
          workdir + "/dag-" + std::to_string(i) + ".blif";
      std::ofstream file(path);
      file << write_blif(make_random_design(spec));
      if (!file) throw std::runtime_error("cannot write " + path);
      job.circuit = path;
      list.netlists.push_back(path);
    } else {
      job.circuit = kCircuits[slot.circuit];
      job.objective = slot.objective;
      if (slot.defects)
        job.defects = "seed=" + std::to_string(1 + rng.next_below(2)) +
                      ",le=0.01,smb=0.01,wire=0.01";
      else
        job.seed = 1 + rng.next_below(3);
    }
    list.lines.push_back(write_job_line(job));
    list.jobs.push_back(std::move(job));
  }
  return list;
}

struct ServedRun {
  ServeSummary summary;
  std::vector<std::string> responses;
  std::vector<double> job_ms;       // per job: due to response written
  std::vector<double> read_lag_ms;  // per job: due to line read
  double wall_ms = 0.0;  // origin to the last response written
  double generator_late_ms = 0.0;
};

ServedRun serve(const std::vector<std::string>& lines,
                const std::vector<double>& due_ms, bool include_timings) {
  ServeOptions options;
  options.workers = kWorkers;
  options.threads = kThreads;
  options.include_timings = include_timings;
  ServeCaches caches;
  PacedLineBuf in_buf(lines, due_ms);
  LineStampBuf out_buf;
  std::istream in(&in_buf);
  std::ostream out(&out_buf);

  ServedRun run;
  const Clock::time_point origin = Clock::now();
  in_buf.start(origin);
  run.summary = serve_jobs(in, out, options, &caches);
  run.responses = out_buf.lines();
  const std::vector<Clock::time_point> written = out_buf.stamps();
  if (written.size() != lines.size() || in_buf.released() != lines.size())
    throw std::runtime_error("server answered " +
                             std::to_string(written.size()) + " of " +
                             std::to_string(lines.size()) + " job lines");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    run.job_ms.push_back(ms_between(in_buf.due(i), written[i]));
    run.read_lag_ms.push_back(in_buf.read_lag_ms(i));
  }
  run.wall_ms = ms_between(origin, written.back());
  run.generator_late_ms = in_buf.generator_late_ms_max();
  return run;
}

struct Response {
  bool done = false;
  bool ok = false;
  int les = 0;
  double delay_ns = 0.0;
  double elapsed_ms = 0.0;
  double exec_ms = 0.0;
};

Response parse_response(const std::string& line) {
  Response r;
  const JsonValue doc = parse_json(line);
  auto number = [](const JsonValue* v) {
    return v != nullptr ? v->number : 0.0;
  };
  const JsonValue* status = doc.find("status");
  r.done = status != nullptr && status->string == "done";
  const JsonValue* ok = doc.find("ok");
  r.ok = ok != nullptr && ok->boolean;
  r.elapsed_ms = number(doc.find("elapsed_ms"));
  if (const JsonValue* report = doc.find("report")) {
    if (const JsonValue* result = report->find("result")) {
      r.les = static_cast<int>(number(result->find("num_les")));
      r.delay_ns = number(result->find("delay_ns"));
    }
    if (const JsonValue* outcome = report->find("outcome"))
      r.exec_ms = 1000.0 * number(outcome->find("cpu_seconds"));
  }
  return r;
}

// A job line without its id: jobs with equal keys are the same job, and
// the flow is deterministic, so one reference run covers them all.
std::string job_key(ServeJob job) {
  job.id.clear();
  return write_job_line(job);
}

// Checks every response: status done and feasible, with #LEs and delay
// equal to a direct run_nanomap of the same job (one reference run per
// distinct job, in parallel, outside the timed region).
std::vector<char> check_responses(const JobList& list,
                                  const std::vector<Response>& responses,
                                  RunOutput* out) {
  std::map<std::string, std::size_t> first_of;
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < list.jobs.size(); ++i)
    if (first_of.emplace(job_key(list.jobs[i]), i).second)
      distinct.push_back(i);

  ServeCaches caches;
  std::vector<FlowResult> reference(distinct.size());
  ThreadPool pool(ThreadPool::hardware_threads());
  pool.parallel_for(static_cast<int>(distinct.size()), [&](int k) {
    const ServeJob& job = list.jobs[distinct[static_cast<std::size_t>(k)]];
    FlowOptions o;
    o.arch = *caches.arch(job.arch_file, job.defects,
                          ArchParams::paper_instance());
    o.objective = job.objective;
    o.area_constraint_le = job.area;
    o.delay_constraint_ns = job.delay;
    o.forced_folding_level = job.level;
    o.planes_share = !job.no_share;
    o.seed = job.seed ? *job.seed : ServeOptions{}.default_seed;
    o.threads = 1;
    reference[static_cast<std::size_t>(k)] =
        run_nanomap(*caches.design(job.circuit), o);
  });
  std::map<std::size_t, const FlowResult*> ref_of_first;
  for (std::size_t k = 0; k < distinct.size(); ++k)
    ref_of_first[distinct[k]] = &reference[k];

  std::vector<char> good(list.jobs.size(), 0);
  for (std::size_t i = 0; i < list.jobs.size(); ++i) {
    if (i >= responses.size()) {
      out->correct = false;
      out->problems.push_back("job " + std::to_string(i) + ": no response");
      continue;
    }
    const Response& r = responses[i];
    const FlowResult& ref = *ref_of_first[first_of[job_key(list.jobs[i])]];
    std::string why;
    if (!r.done)
      why = "status is not done";
    else if (r.ok != ref.feasible)
      why = "feasibility differs from a direct run";
    else if (r.ok && (r.les != ref.num_les || r.delay_ns != ref.delay_ns))
      why = "#LEs/delay differ from a direct run";
    if (!why.empty()) {
      out->correct = false;
      out->problems.push_back("job " + std::to_string(i) + ": " + why);
    }
    good[i] = why.empty() && r.ok ? 1 : 0;
  }
  return good;
}

double require(const std::optional<double>& v) {
  if (!v) throw std::runtime_error("too few jobs for the reported percentile");
  return *v;
}

RunOutput run_serve_workload(const RunConfig& config, bool paced) {
  const double rate = paced ? kStreamJobsPerSecond : kBatchJobsPerSecond;
  const long wanted = std::max(
      kMinJobs, static_cast<long>(std::lround(rate * config.seconds)));
  const long count = (wanted + kBlockJobs - 1) / kBlockJobs * kBlockJobs;
  JobList list;
  const double setup_s = timed_setup([&] {
    list = make_job_list(config.seed, count, config.workdir);
  });
  std::vector<double> due_ms(list.lines.size(), 0.0);
  if (paced)
    for (std::size_t i = 0; i < due_ms.size(); ++i)
      due_ms[i] = 1000.0 * static_cast<double>(i) / rate;

  RunOutput out;
  double overhead = 0.0;
  if (config.trace) {
    // Trace overhead: the first jobs served at once, untraced then traced,
    // after one warm-up pass so neither side pays first-touch costs.
    const std::vector<std::string> probe(
        list.lines.begin(), list.lines.begin() + kOverheadProbeJobs);
    const std::vector<double> at_once(probe.size(), 0.0);
    serve(probe, at_once, false);
    const double plain = serve(probe, at_once, false).wall_ms;
    const double traced = serve(probe, at_once, true).wall_ms;
    overhead = traced / plain - 1.0;
  }

  const ServedRun run = serve(list.lines, due_ms, config.trace);
  if (!config.trace) out.metrics["peak_rss_mb"] = peak_rss_mb();

  std::vector<Response> responses;
  for (const std::string& line : run.responses)
    responses.push_back(parse_response(line));
  const std::vector<char> good = check_responses(list, responses, &out);
  out.attempted = static_cast<long>(list.jobs.size());
  out.failed = out.attempted -
               static_cast<long>(std::count(good.begin(), good.end(), 1));

  auto& m = out.metrics;
  if (!config.trace) {
    const std::vector<double>& job_ms = run.job_ms;
    m["jobs_per_s"] =
        static_cast<double>(run.responses.size()) / (run.wall_ms / 1000.0);
    m["job_ms_geomean"] = geomean(job_ms);
    m["job_ms_p50"] = require(percentile(job_ms, 0.5));
    m["job_ms_p90"] = require(percentile(job_ms, 0.9));
    m["ok_frac"] = ok_fraction(
        static_cast<long>(std::count(good.begin(), good.end(), 1)),
        out.attempted);
    double les = 0.0;
    std::vector<double> delays;
    for (const Response& r : responses) {
      les += r.les;
      if (r.ok) delays.push_back(r.delay_ns);
    }
    m["les_total"] = les;
    m["delay_ns_geomean"] = geomean(delays);
    m["setup_s"] = setup_s;
    return out;
  }

  // Traced: split each job's time at the line being read (read lag), the
  // flow starting (admission wait: chunking, queueing, parse and cache
  // work), the flow ending (execution) and the response being written
  // (order wait behind earlier responses).
  std::vector<double> admit, exec, order;
  double exec_total = 0.0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& r = responses[i];
    const double read_to_written = run.job_ms[i] - run.read_lag_ms[i];
    admit.push_back(r.elapsed_ms - r.exec_ms);
    exec.push_back(r.exec_ms);
    order.push_back(read_to_written - r.elapsed_ms);
    exec_total += r.exec_ms;
  }
  std::vector<double> parse_ms;
  for (const std::string& path : list.netlists) {
    const auto t0 = Clock::now();
    (void)parse_blif_file(path);
    parse_ms.push_back(ms_between(t0, Clock::now()));
  }
  auto frac = [](long hits, long misses) {
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
  };
  const ServeCaches::Stats& cache = run.summary.cache;
  m["rtl.parse_ms"] = median(parse_ms);
  m["serve.read_lag_ms_p50"] = require(percentile(run.read_lag_ms, 0.5));
  m["serve.read_lag_ms_p90"] = require(percentile(run.read_lag_ms, 0.9));
  m["serve.admit_wait_ms_p50"] = require(percentile(admit, 0.5));
  m["serve.exec_ms_p50"] = require(percentile(exec, 0.5));
  m["serve.order_wait_ms_p90"] = require(percentile(order, 0.9));
  m["serve.busy_frac"] = exec_total / (kWorkers * run.wall_ms);
  m["serve.design_hit_frac"] = frac(cache.design_hits, cache.design_misses);
  m["serve.arch_hit_frac"] = frac(cache.arch_hits, cache.arch_misses);
  m["serve.rr_hit_frac"] = frac(cache.rr_hits, cache.rr_misses);
  m["bench.gen_late_ms_max"] = run.generator_late_ms;
  m["bench.trace_overhead_frac"] = overhead;
  return out;
}

}  // namespace

RunOutput run_stream(const RunConfig& config) {
  return run_serve_workload(config, /*paced=*/true);
}

RunOutput run_batch(const RunConfig& config) {
  return run_serve_workload(config, /*paced=*/false);
}

}  // namespace flowbench

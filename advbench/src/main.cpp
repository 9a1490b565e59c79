// advbench — the end-to-end benchmark program.
//
//   advbench --workload ipars-rows --seed 1 --seconds 10 --trace 0
//            --workdir DIR --report FILE [--spans FILE] [--corrupt-reference]
//
// Generates the seeded IPARS dataset under DIR, opens the system the way
// the workload's user does (several times, to time set-up), warms it up,
// runs the seeded query stream as a closed loop for --seconds, checks
// every answer against the naive reference, and writes one JSON report.
// With --trace 1 a second window follows the untraced one on the
// continuing stream, tracing every other block of 20 queries; per-layer
// metrics come from its traced blocks, end-to-end metrics always from the
// untraced window.
// See README.md in this directory.
#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "dataset/ipars.h"
#include "queries.h"
#include "runner.h"
#include "systems.h"

#ifndef ADVBENCH_BUILD_TYPE
#define ADVBENCH_BUILD_TYPE "unknown"
#endif

namespace advbench {

void Counters::add(const Counters& o) {
  afcs += o.afcs;
  afcs_pruned += o.afcs_pruned;
  bytes_skipped += o.bytes_skipped;
  bytes_read += o.bytes_read;
  rows_scanned += o.rows_scanned;
  rows_matched += o.rows_matched;
  bytes_sent += o.bytes_sent;
  io_retries += o.io_retries;
  afcs_interp += o.afcs_interp;
  afcs_vector += o.afcs_vector;
  afcs_jit += o.afcs_jit;
  groups_emitted += o.groups_emitted;
  agg_bytes_shipped += o.agg_bytes_shipped;
  agg_dense += o.agg_dense;
  agg_hash += o.agg_hash;
  agg_radix += o.agg_radix;
  agg_base_bytes += o.agg_base_bytes;
  busy_seconds += o.busy_seconds;
  makespan_seconds += o.makespan_seconds;
  execute_seconds += o.execute_seconds;
  filter_calls += o.filter_calls;
  filter_seconds += o.filter_seconds;
  net_overhead_seconds += o.net_overhead_seconds;
  dist_wall_seconds += o.dist_wall_seconds;
  dist_gather_seconds += o.dist_gather_seconds;
  dist_commits += o.dist_commits;
  dist_failovers += o.dist_failovers;
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string report;
  std::string spans;
  bool corrupt_reference = false;
};

// Openings per run; setup_s is their median.
constexpr int kSetupRuns = 15;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "advbench: %s\nusage: advbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR --report FILE "
               "[--spans FILE] [--corrupt-reference]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--report") a.report = v;
    else if (k == "--spans") a.spans = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.workload.empty() || a.workdir.empty() || a.report.empty())
    usage("--workload, --workdir and --report are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// The IPARS L0 configuration of bench_micro: 4 nodes x 4 REL x 500 TIME x
// 100 grid points = 800k rows of 17 variables.
adv::dataset::IparsConfig dataset_config(uint64_t seed) {
  adv::dataset::IparsConfig cfg;
  cfg.nodes = 4;
  cfg.rels = 4;
  cfg.timesteps = 500;
  cfg.grid_per_node = 100;
  cfg.pad_vars = 12;
  cfg.seed = seed;
  return cfg;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Flushes the generated files, so their write-back does not overlap the
// measurement.
void flush_files(const std::string& dir) {
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

// Runs the calling thread, and every thread it starts from then on, on one
// CPU: the last one it may run on.  release() gives the calling thread its
// CPUs back; threads started in between keep the one CPU.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&had_);
    if (sched_getaffinity(0, sizeof had_, &had_) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &had_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      confined_ = sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  bool confined() const { return confined_; }
  void release() {
    if (confined_) sched_setaffinity(0, sizeof had_, &had_);
  }

 private:
  cpu_set_t had_;
  bool confined_ = false;
};

// CPU time (user + system) of the whole process so far, in seconds.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Pass {
  std::vector<std::unique_ptr<Caller>> callers;
  double window = 0;  // seconds from first send to last answer
  Counters counters;
  uint64_t attempted = 0, failed = 0;

  std::vector<Sample> samples() const {
    std::vector<Sample> all;
    for (const auto& c : callers)
      all.insert(all.end(), c->samples.begin(), c->samples.end());
    return all;
  }
  std::vector<Sample> traced_samples() const {
    std::vector<Sample> out;
    for (const Sample& s : samples())
      if (s.traced) out.push_back(s);
    return out;
  }
  double mean_check_seconds() const {
    double s = 0;
    for (const auto& c : callers) s += c->check_seconds;
    return callers.empty() ? 0 : s / static_cast<double>(callers.size());
  }
};

bool is_pushdown(Caller& c, const adv::codegen::DataServicePlan& plan,
                 const std::string& sql) {
  auto it = c.pushdown.find(sql);
  if (it == c.pushdown.end())
    it = c.pushdown.emplace(sql, plan.bind(sql).is_pushdown()).first;
  return it->second;
}

// Runs every caller as a closed loop over whole blocks of its stream: at
// least one, and until `seconds` passed.  Whole blocks hold every class at
// its exact share, so a class's weight in a pass does not depend on where
// the deadline fell.  With `interleave`, each caller traces every other
// block, so traced and untraced queries have the same class mix and see
// the same phase of the host.
Pass closed_loop(System& sys, std::vector<QueryStream>& streams,
                 double seconds, bool interleave, Clock::time_point origin) {
  Pass p;
  for (std::size_t i = 0; i < streams.size(); ++i)
    p.callers.push_back(
        std::make_unique<Caller>(streams[i], static_cast<int>(i), origin));
  sys.begin_pass();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto body = [&](Caller& c) {
    while (c.samples.empty() || !c.stream.at_block_start() ||
           Clock::now() < deadline) {
      if (interleave && c.stream.at_block_start())
        c.tracer.set_enabled(!c.tracer.enabled());
      const Query q = c.stream.next();
      Sample s;
      s.cls = q.cls;
      s.traced = c.tracer.enabled();
      const uint64_t qid = c.next_query_id();
      const auto t0 = Clock::now();
      try {
        const adv::expr::Table answer = sys.run(c, q.sql, qid, s);
        s.latency = seconds_since(t0);
        const auto t1 = Clock::now();
        s.rows_out = answer.num_rows();
        c.answers.record(q.sql, is_pushdown(c, sys.plan(), q.sql), answer);
        c.check_seconds += seconds_since(t1);
      } catch (const std::exception& e) {
        s.latency = seconds_since(t0);
        s.failed = true;
        if (c.errors.size() < 5) c.errors.push_back(q.sql + ": " + e.what());
      }
      c.samples.push_back(s);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < p.callers.size(); ++i)
    threads.emplace_back(body, std::ref(*p.callers[i]));
  body(*p.callers[0]);
  for (auto& t : threads) t.join();
  p.window = seconds_since(start);
  for (const auto& c : p.callers) {
    p.counters.add(c->counters);
    for (const Sample& s : c->samples) p.failed += s.failed;
    p.attempted += c->samples.size();
  }
  sys.end_pass(p.callers, p.counters);
  return p;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct EndToEnd {
  std::vector<Metric> metrics;
  uint64_t samples = 0;
  double hot_share = 0;  // served-mix: answers replayed from the cache
};

EndToEnd end_to_end(const Pass& p, double setup_s, double rss_mb) {
  EndToEnd e;
  const std::vector<Sample> all = p.samples();
  std::vector<double> lat;
  double wall = 0, wall_scanned = 0;
  uint64_t out = 0, scanned = 0, ok = 0, hits = 0;
  for (const Sample& s : all) {
    // A failed query misses every latency limit.
    lat.push_back(s.failed ? HUGE_VAL : s.latency * 1e3);
    if (s.failed) continue;
    ++ok;
    wall += s.latency;
    out += s.rows_out;
    if (s.scanned) {
      scanned += s.rows_scanned;
      wall_scanned += s.latency;
    } else {
      ++hits;
    }
  }
  std::sort(lat.begin(), lat.end());
  e.samples = all.size();
  e.hot_share = all.empty() ? 0 : static_cast<double>(hits) /
                                       static_cast<double>(all.size());
  const double active = p.window - p.mean_check_seconds();
  e.metrics = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", percentile(lat, 0.5), "ms"},
      {"latency_p90_ms", percentile(lat, 0.9), "ms"},
      {"queries_per_s", static_cast<double>(ok) / active, "1/s"},
      {"rows_scanned_per_s",
       wall_scanned > 0 ? static_cast<double>(scanned) / wall_scanned : 0,
       "1/s"},
      {"rows_out_per_s", wall > 0 ? static_cast<double>(out) / wall : 0,
       "1/s"},
      {"rss_peak_mb", rss_mb, "MB"},
  };
  return e;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// p50 latency in ms of the samples that did not fail.
double p50_ms(const std::vector<Sample>& samples) {
  std::vector<double> lat;
  for (const Sample& s : samples)
    if (!s.failed) lat.push_back(s.latency * 1e3);
  std::sort(lat.begin(), lat.end());
  return percentile(lat, 0.5);
}

// Per-layer metrics of the traced blocks of an interleaved pass.
std::vector<Metric> per_layer(const Pass& p, const SelfTimes& st,
                              double compile_ms, double zonemap_build_ms) {
  const Counters& k = p.counters;
  const std::vector<Sample> all = p.traced_samples();
  std::vector<Sample> untraced;
  for (const Sample& s : p.samples())
    if (!s.traced) untraced.push_back(s);
  const double untraced_p50_ms = p50_ms(untraced);
  const double n = std::max<double>(1.0, static_cast<double>(all.size()));
  auto self_ms = [&](const char* name) {
    auto it = st.self_seconds.find(name);
    return it == st.self_seconds.end() ? 0.0 : it->second * 1e3 / n;
  };
  auto per_q = [&](double v) { return v / n; };
  std::vector<double> qwait, run, hit_lat, miss_lat;
  for (const Sample& s : all) {
    if (s.failed) continue;
    qwait.push_back(s.queue_wait * 1e3);
    run.push_back(s.server_run * 1e3);
    (s.scanned ? miss_lat : hit_lat).push_back(s.latency * 1e3);
  }
  for (auto* v : {&qwait, &run, &hit_lat, &miss_lat})
    std::sort(v->begin(), v->end());
  const bool served = k.result_lookups > 0;

  std::vector<Metric> m = {
      {"sql.parse_us", self_ms("sql.parse") * 1e3, "us"},
      {"codegen.bind_us", self_ms("codegen.bind") * 1e3, "us"},
      {"codegen.compile_ms", compile_ms, "ms"},
      {"zonemap.build_ms", zonemap_build_ms, "ms"},
      {"afc.plan_ms", self_ms("afc.plan_nodes"), "ms"},
      {"afc.afcs_planned", per_q(static_cast<double>(k.afcs)), "count"},
      {"zonemap.filter_ms", per_q(k.filter_seconds * 1e3), "ms"},
      {"zonemap.filter_calls", per_q(static_cast<double>(k.filter_calls)),
       "count"},
      {"zonemap.afcs_pruned", per_q(static_cast<double>(k.afcs_pruned)),
       "count"},
      {"zonemap.bytes_skipped", per_q(static_cast<double>(k.bytes_skipped)),
       "bytes"},
      {"zonemap.prune_ratio",
       ratio(static_cast<double>(k.afcs_pruned),
             static_cast<double>(k.afcs + k.afcs_pruned)),
       "ratio"},
      {"api.plan_hit_rate",
       ratio(static_cast<double>(k.plan_hits),
             static_cast<double>(k.plan_lookups)),
       "ratio"},
      {"storm.execute_ms", self_ms("storm.execute_planned"), "ms"},
      {"storm.makespan_ms", per_q(k.makespan_seconds * 1e3), "ms"},
      {"storm.busy_over_wall", ratio(k.busy_seconds, k.execute_seconds),
       "ratio"},
      {"storm.bytes_read", per_q(static_cast<double>(k.bytes_read)), "bytes"},
      {"storm.rows_scanned", per_q(static_cast<double>(k.rows_scanned)),
       "count"},
      {"storm.selectivity",
       ratio(static_cast<double>(k.rows_matched),
             static_cast<double>(k.rows_scanned)),
       "ratio"},
      {"storm.bytes_sent", per_q(static_cast<double>(k.bytes_sent)), "bytes"},
      {"storm.io_retries", static_cast<double>(k.io_retries), "count"},
      {"storm.merge_ms", self_ms("storm.merge"), "ms"},
      {"kernels.afcs_vector", per_q(static_cast<double>(k.afcs_vector)),
       "count"},
      {"kernels.afcs_jit", per_q(static_cast<double>(k.afcs_jit)), "count"},
      {"kernels.afcs_interp", per_q(static_cast<double>(k.afcs_interp)),
       "count"},
      {"agg.groups_emitted", per_q(static_cast<double>(k.groups_emitted)),
       "count"},
      {"agg.bytes_shipped", per_q(static_cast<double>(k.agg_bytes_shipped)),
       "bytes"},
      {"agg.ship_base_bytes", per_q(static_cast<double>(k.agg_base_bytes)),
       "bytes"},
      {"agg.ship_reduction",
       ratio(static_cast<double>(k.agg_base_bytes),
             static_cast<double>(k.agg_bytes_shipped)),
       "ratio"},
      {"agg.dense", per_q(static_cast<double>(k.agg_dense)), "count"},
      {"agg.hash", per_q(static_cast<double>(k.agg_hash)), "count"},
      {"agg.radix", per_q(static_cast<double>(k.agg_radix)), "count"},
      {"serve.result_hit_rate",
       ratio(static_cast<double>(k.result_hits),
             static_cast<double>(k.result_lookups)),
       "ratio"},
      {"serve.plan_hit_rate",
       ratio(static_cast<double>(k.served_plan_hits),
             static_cast<double>(k.served_plan_lookups)),
       "ratio"},
      {"serve.evictions", static_cast<double>(k.result_evictions), "count"},
      {"serve.hit_latency_p50_ms", served ? percentile(hit_lat, 0.5) : 0,
       "ms"},
      {"serve.miss_latency_p50_ms", served ? percentile(miss_lat, 0.5) : 0,
       "ms"},
      {"sched.queue_wait_p50_ms", served ? percentile(qwait, 0.5) : 0, "ms"},
      {"sched.queue_wait_p90_ms", served ? percentile(qwait, 0.9) : 0, "ms"},
      {"sched.run_ms", served ? percentile(run, 0.5) : 0, "ms"},
      {"sched.rejected", static_cast<double>(k.sched_rejected), "count"},
      {"sched.peak_running", static_cast<double>(k.sched_peak_running),
       "count"},
      {"net.overhead_ms", per_q(k.net_overhead_seconds * 1e3), "ms"},
      {"dist.wall_ms", per_q(k.dist_wall_seconds * 1e3), "ms"},
      {"dist.gather_overhead_ms", per_q(k.dist_gather_seconds * 1e3), "ms"},
      {"dist.commits", per_q(static_cast<double>(k.dist_commits)), "count"},
      {"dist.failovers", static_cast<double>(k.dist_failovers), "count"},
      {"trace.unattributed_frac",
       ratio(st.unattributed_seconds, st.root_seconds), "ratio"},
      {"trace.overhead_frac",
       untraced_p50_ms > 0 ? p50_ms(all) / untraced_p50_ms - 1 : 0,
       "ratio"},
  };
  return m;
}

// ---------------------------------------------------------------------------
// Report.

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
      continue;
    }
    o += ch;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics(std::FILE* f, const char* key,
                   const std::vector<Metric>& ms) {
  std::fprintf(f, "  %s: {", json_str(key).c_str());
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                 i ? "," : "", json_str(ms[i].name).c_str(),
                 json_num(ms[i].value).c_str(), json_str(ms[i].unit).c_str());
  std::fprintf(f, "\n  },\n");
}

int run(const Args& a) {
  namespace fs = std::filesystem;
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const QueryMix mix = make_mix(a.workload, a.seed);

  // 1. Data: the program receives only these files and SQL.
  const std::string root = (fs::path(a.workdir) / "data").string();
  fs::create_directories(root);
  const auto gen = adv::dataset::generate_ipars(
      dataset_config(a.seed), adv::dataset::IparsLayout::kL0, root);
  const Dataset data{gen.descriptor_text, gen.dataset_name, gen.root};
  flush_files(root);
  // Peak RSS after each stage, to tell the window's memory from set-up's.
  std::vector<std::pair<const char*, double>> rss_stages = {
      {"datagen", peak_rss_mb()}};

  // 2. Set-up, several times; the last opening serves the run.  From here
  // to the end of the windows every thread of the system and of the
  // callers runs on one CPU (see README.md, "Threads and CPUs").
  OneCpu one_cpu;
  const Clock::time_point origin = Clock::now();
  Tracer setup_tracer(origin);
  std::vector<double> setup, compile_ms, zm_ms;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetupRuns; ++i) {
    sys.reset();
    setup_tracer.set_enabled(a.trace);
    SetupTimes t;
    sys = open_system(a.workload, data, t, setup_tracer);
    setup.push_back(t.total);
    if (t.compile >= 0) compile_ms.push_back(t.compile * 1e3);
    if (t.zonemap_build >= 0) zm_ms.push_back(t.zonemap_build * 1e3);
  }
  rss_stages.emplace_back("setup", peak_rss_mb());

  // 3. Warm-up, one block per caller (caches fill, lazy set-up finishes),
  // then the window(s).
  std::vector<QueryStream> streams;
  for (int c = 0; c < sys->clients(); ++c)
    streams.emplace_back(mix, a.seed, c);
  Pass warm = closed_loop(*sys, streams, 0, false, origin);
  rss_stages.emplace_back("warmup", peak_rss_mb());
  const double cpu0 = process_cpu_seconds();
  Pass untraced =
      closed_loop(*sys, streams, a.seconds, false, origin);
  // The share of the window the process ran on its CPU: below 1 when it
  // waited (for I/O, or for a host that gave its CPU to someone else).
  const double cpu_share = (process_cpu_seconds() - cpu0) / untraced.window;
  const double rss = peak_rss_mb();
  rss_stages.emplace_back("window", rss);
  Pass traced;
  if (a.trace)
    traced = closed_loop(*sys, streams, a.seconds, true, origin);

  // 4. Check every answer, outside the timed regions and on every CPU.
  one_cpu.release();
  AnswerLog log;
  std::vector<std::string> errors;
  uint64_t attempted = 0, threw = 0;
  for (Pass* p : {&warm, &untraced, &traced}) {
    for (const auto& c : p->callers) {
      log.merge(c->answers);
      errors.insert(errors.end(), c->errors.begin(), c->errors.end());
    }
    attempted += p->attempted;
    threw += p->failed;
  }
  const CheckReport check = Checker::check(
      sys->plan(), log, std::min<std::size_t>(2, nproc), a.corrupt_reference);
  const uint64_t failed = threw + check.wrong_answers;

  // 5. Metrics.
  const EndToEnd e2e = end_to_end(untraced, median(setup), rss);
  std::vector<Metric> e2e_metrics = e2e.metrics;
  e2e_metrics.push_back({"error_rate",
                         ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)),
                         "ratio"});
  std::vector<Metric> layers;
  SelfTimes st;
  if (a.trace) {
    Tracer queries(origin);
    for (const auto& c : traced.callers) queries.append(c->tracer);
    st = self_times(queries.spans());
    layers = per_layer(traced, st, median(compile_ms), median(zm_ms));
    if (!a.spans.empty()) {
      Tracer all(origin);
      all.append(setup_tracer);
      all.append(queries);
      write_spans(a.spans, all.spans());
    }
  }

  // 6. Report.
  std::FILE* f = std::fopen(a.report.c_str(), "w");
  if (!f) {
    std::perror(a.report.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
               json_str(a.workload).c_str(),
               static_cast<unsigned long long>(a.seed));
  std::fprintf(f, "  \"seconds\": %s,\n  \"trace\": %d,\n",
               json_num(a.seconds).c_str(), a.trace ? 1 : 0);
  std::fprintf(f,
               "  \"correct\": %s,\n  \"attempted\": %llu,\n"
               "  \"failed\": %llu,\n  \"threw\": %llu,\n"
               "  \"wrong_answers\": %llu,\n",
               failed == 0 ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(threw),
               static_cast<unsigned long long>(check.wrong_answers));
  std::fprintf(f,
               "  \"samples\": %llu,\n  \"traced_samples\": %zu,\n"
               "  \"answers_checked\": %llu,\n"
               "  \"distinct_queries\": %llu,\n  \"query_pool\": %zu,\n"
               "  \"reference_s\": %s,\n",
               static_cast<unsigned long long>(e2e.samples),
               traced.traced_samples().size(),
               static_cast<unsigned long long>(check.answers_checked),
               static_cast<unsigned long long>(check.distinct_queries),
               mix.pool_size(), json_num(check.reference_seconds).c_str());
  std::fprintf(f,
               "  \"clients\": %d,\n  \"extraction_workers\": %zu,\n"
               "  \"nproc\": %zu,\n  \"cpus\": %zu,\n"
               "  \"hot_share\": %s,\n"
               "  \"window_s\": %s,\n  \"window_cpu_share\": %s,\n"
               "  \"build_type\": %s,\n"
               "  \"compiler\": %s,\n",
               sys->clients(), sys->extraction_workers(), nproc,
               one_cpu.confined() ? std::size_t{1} : nproc,
               json_num(e2e.hot_share).c_str(),
               json_num(untraced.window).c_str(),
               json_num(cpu_share).c_str(),
               json_str(ADVBENCH_BUILD_TYPE).c_str(),
               json_str(std::string("gcc ") + __VERSION__).c_str());
  std::fprintf(f, "  \"rss_peak_mb_after\": {");
  for (std::size_t i = 0; i < rss_stages.size(); ++i)
    std::fprintf(f, "%s%s: %s", i ? ", " : "",
                 json_str(rss_stages[i].first).c_str(),
                 json_num(rss_stages[i].second).c_str());
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"setup_runs_s\": [");
  for (std::size_t i = 0; i < setup.size(); ++i)
    std::fprintf(f, "%s%s", i ? ", " : "", json_num(setup[i]).c_str());
  std::fprintf(f, "],\n  \"classes\": {");
  {
    const std::vector<Sample> all = untraced.samples();
    for (std::size_t c = 0; c < mix.classes.size(); ++c) {
      std::vector<double> lat;
      for (const Sample& s : all)
        if (s.cls == static_cast<int>(c) && !s.failed)
          lat.push_back(s.latency * 1e3);
      std::sort(lat.begin(), lat.end());
      std::fprintf(f, "%s\n    %s: {\"queries\": %zu, \"p50_ms\": %s}",
                   c ? "," : "", json_str(mix.classes[c].name).c_str(),
                   lat.size(), json_num(percentile(lat, 0.5)).c_str());
    }
  }
  std::fprintf(f, "\n  },\n");
  write_metrics(f, "end_to_end", e2e_metrics);
  write_metrics(f, "per_layer", layers);
  std::fprintf(f, "  \"self_ms_per_query\": {");
  {
    const double n = std::max<double>(
        1.0, static_cast<double>(traced.traced_samples().size()));
    std::size_t i = 0;
    for (const auto& [name, secs] : st.self_seconds)
      std::fprintf(f, "%s\n    %s: %s", i++ ? "," : "",
                   json_str(name).c_str(), json_num(secs * 1e3 / n).c_str());
  }
  std::fprintf(f, "\n  },\n  \"errors\": [");
  std::vector<std::string> shown = errors;
  for (const auto& m : check.mismatches) shown.push_back("wrong answer: " + m);
  for (std::size_t i = 0; i < shown.size() && i < 10; ++i)
    std::fprintf(f, "%s%s", i ? ", " : "", json_str(shown[i]).c_str());
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
  return 0;
}

}  // namespace
}  // namespace advbench

int main(int argc, char** argv) {
  // glibc raises its mmap threshold (and with it the trim threshold) to the
  // size of the largest mapped block a process frees, up to 32 MiB.  Left
  // to adapt, whether a run's few-MB answers come from fresh mappings (a
  // page fault every 4 KiB) or from the heap depends on which thread freed
  // what first, and runs of the same code differ by a third on the
  // loopback workloads.  Both thresholds start where a long-running
  // process ends up: 32 MiB, and twice that for trimming.  Blocks above
  // 32 MiB are still mapped afresh, as in any process.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const advbench::Args a = advbench::parse_args(argc, argv);
  try {
    return advbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "advbench: %s\n", e.what());
    return 1;
  }
}

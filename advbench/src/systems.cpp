#include "systems.h"

#include <algorithm>
#include <map>
#include <optional>

#include "api/virtual_table.h"
#include "codegen/emit.h"
#include "common/error.h"
#include "metadata/model.h"
#include "sched/scheduler.h"
#include "serve/result_cache.h"
#include "storm/dist.h"
#include "storm/net.h"
#include "storm/node_daemon.h"
#include "zonemap/zonemap.h"

namespace advbench {

using adv::expr::Table;
namespace storm = adv::storm;

namespace {

double since(Clock::time_point t0) { return seconds_since(t0); }

// Chunk filter decorator: times every may_match() call into the zone map.
// Planning is sequential per query, so plain counters suffice.
class TimedFilter final : public adv::afc::ChunkFilter {
 public:
  explicit TimedFilter(const adv::afc::ChunkFilter* inner) : inner_(inner) {}
  bool may_match(const std::string& file_path, uint64_t offset,
                 const adv::expr::QueryIntervals& qi) const override {
    const auto t0 = Clock::now();
    const bool m = inner_->may_match(file_path, offset, qi);
    seconds_ += since(t0);
    ++calls_;
    return m;
  }
  // Returns and clears the totals since the last take().
  std::pair<uint64_t, double> take() {
    auto r = std::make_pair(calls_, seconds_);
    calls_ = 0;
    seconds_ = 0;
    return r;
  }

 private:
  const adv::afc::ChunkFilter* inner_;
  mutable uint64_t calls_ = 0;
  mutable double seconds_ = 0;
};

void add_node_stats(const std::vector<storm::NodeStats>& nodes, Counters& k) {
  for (const auto& n : nodes) {
    k.afcs += n.afcs;
    k.afcs_pruned += n.afcs_pruned;
    k.bytes_skipped += n.bytes_skipped;
    k.bytes_read += n.bytes_read;
    k.rows_scanned += n.rows_scanned;
    k.rows_matched += n.rows_matched;
    k.bytes_sent += n.bytes_sent;
    k.io_retries += n.io_retries;
    k.afcs_interp += n.afcs_interp;
    k.afcs_vector += n.afcs_vector;
    k.afcs_jit += n.afcs_jit;
    k.groups_emitted += n.groups_emitted;
    k.agg_bytes_shipped += n.agg_bytes_shipped;
    k.agg_dense += n.agg_dense;
    k.agg_hash += n.agg_hash;
    k.agg_radix += n.agg_radix;
    k.busy_seconds += n.busy_seconds;
  }
}

uint64_t rows_scanned(const std::vector<storm::NodeStats>& nodes) {
  uint64_t n = 0;
  for (const auto& s : nodes) n += s.rows_scanned;
  return n;
}

double max_busy(const std::vector<storm::NodeStats>& nodes) {
  double m = 0;
  for (const auto& s : nodes) m = std::max(m, s.busy_seconds);
  return m;
}

std::shared_ptr<adv::codegen::DataServicePlan> compile(const Dataset& d) {
  return std::make_shared<adv::codegen::DataServicePlan>(
      adv::meta::parse_descriptor(d.descriptor_text), d.name, d.root);
}

// ipars-rows and ipars-aggregate: an in-process VirtualTable with the zone
// map built at open and the plan cache at its default capacity.  Nodes run
// one after another with one extraction worker, so the caller's thread
// scans.
class InProcess final : public System {
 public:
  InProcess(const Dataset& d, SetupTimes& t, Tracer& tr) {
    adv::VirtualTable::Options o;
    o.build_zonemap = true;
    o.cluster.parallel_nodes = false;
    o.cluster.threads_per_node = 1;
    const auto t0 = Clock::now();
    {
      Scope s(tr, "api.open", -1, 0);
      vt_.emplace(adv::VirtualTable::open(d.descriptor_text, d.name, d.root,
                                          o));
    }
    t.total = since(t0);
    t.zonemap_build = vt_->zone_map()->build_seconds();
    // VirtualTable::open compiles inside one call; the traced run times a
    // second, separate compile of the same descriptor to split it out.
    if (tr.enabled()) {
      const auto c0 = Clock::now();
      Scope s(tr, "codegen.compile", -1, 0);
      compile(d);
      t.compile = since(c0);
    }
    filter_.emplace(vt_->chunk_filter());
  }

  const adv::codegen::DataServicePlan& plan() const override {
    return vt_->plan();
  }
  std::size_t extraction_workers() const override { return 1; }

  Table run(Caller& c, const std::string& sql, uint64_t qid,
            Sample& s) override {
    storm::QueryResult r;
    Table out;
    if (!c.tracer.enabled()) {
      r = vt_->query_detailed(sql);
      out = r.merged();
    } else {
      out = traced(c, sql, qid, r);
    }
    s.rows_scanned = rows_scanned(r.node_stats);
    return out;
  }

  void begin_pass() override { plan0_ = vt_->plan_cache_stats(); }
  void end_pass(std::vector<std::unique_ptr<Caller>>&,
                Counters& out) override {
    const adv::PlanCache::Stats p = vt_->plan_cache_stats();
    out.plan_hits += p.hits - plan0_.hits;
    out.plan_lookups += (p.hits + p.misses) - (plan0_.hits + plan0_.misses);
  }

 private:
  // The public calls VirtualTable::query_detailed makes, one span each:
  // cache key (which parses the SQL), plan-cache lookup, and on a miss
  // bind + per-node planning through the timed chunk filter (+ the jit
  // compile in jit mode) + insert; then execution and the client merge.
  Table traced(Caller& c, const std::string& sql, uint64_t qid,
               storm::QueryResult& r) {
    Tracer& tr = c.tracer;
    Counters& k = c.counters;
    Scope root(tr, "query", -1, qid);
    std::string key;
    {
      Scope s(tr, "sql.parse", root.id(), qid);
      key = vt_->plan_key(sql);
    }
    adv::PlanCache* cache = vt_->plan_cache();
    std::shared_ptr<const adv::CachedPlan> entry;
    {
      Scope s(tr, "api.plan_cache", root.id(), qid);
      entry = cache->find(key);
    }
    if (!entry) {
      std::shared_ptr<adv::CachedPlan> fresh;
      {
        Scope s(tr, "codegen.bind", root.id(), qid);
        fresh = std::make_shared<adv::CachedPlan>(vt_->plan().bind(sql));
      }
      {
        Scope s(tr, "afc.plan_nodes", root.id(), qid);
        fresh->node_plans =
            vt_->cluster().plan_nodes(fresh->query, &*filter_);
        const auto [calls, secs] = filter_->take();
        k.filter_calls += calls;
        k.filter_seconds += secs;
        tr.derived("zonemap.filter", s.id(), secs);
      }
      if (adv::resolve_kernel_mode() == adv::KernelMode::kJit &&
          adv::codegen::can_jit_query(fresh->query)) {
        Scope s(tr, "kernels.jit_compile", root.id(), qid);
        for (const auto& pr : fresh->node_plans)
          fresh->jit_modules.push_back(
              pr.groups.empty()
                  ? nullptr
                  : adv::kernels::JitCache::instance().get_or_compile(
                        adv::codegen::emit_extract_cpp(pr, fresh->query)));
      }
      {
        Scope s(tr, "api.plan_cache", root.id(), qid);
        cache->insert(key, fresh);
      }
      entry = std::move(fresh);
    }
    const auto e0 = Clock::now();
    {
      Scope s(tr, "storm.execute_planned", root.id(), qid);
      r = vt_->cluster().execute_planned(
          entry->query, entry->node_plans, {}, nullptr,
          entry->jit_modules.empty() ? nullptr : &entry->jit_modules);
    }
    k.execute_seconds += since(e0);
    if (!r.first_error().empty())
      throw adv::IoError("query failed on a node: " + r.first_error());
    Table out;
    {
      Scope s(tr, "storm.merge", root.id(), qid);
      out = r.merged();
    }
    add_node_stats(r.node_stats, k);
    k.makespan_seconds += r.makespan_seconds;
    if (entry->query.is_pushdown()) {
      uint64_t matched = 0;
      for (const auto& n : r.node_stats) matched += n.rows_matched;
      k.agg_base_bytes +=
          matched * entry->query.select_slots().size() * sizeof(double);
    }
    return out;
  }

  std::optional<adv::VirtualTable> vt_;
  std::optional<TimedFilter> filter_;
  adv::PlanCache::Stats plan0_;
};

std::optional<adv::zonemap::ZoneMap> build_zonemap(
    const adv::codegen::DataServicePlan& plan, SetupTimes& t, Tracer& tr) {
  Scope s(tr, "zonemap.build", -1, 0);
  auto zm = adv::zonemap::ZoneMap::build(plan);
  t.zonemap_build = zm.build_seconds();
  return zm;
}

std::shared_ptr<adv::codegen::DataServicePlan> timed_compile(
    const Dataset& d, SetupTimes& t, Tracer& tr) {
  const auto c0 = Clock::now();
  Scope s(tr, "codegen.compile", -1, 0);
  auto plan = compile(d);
  t.compile = since(c0);
  return plan;
}

// served-mix: a QueryServer on loopback, zone map as chunk filter, result
// cache on, plan cache at its default, two admission slots for four
// client connections.  An admitted query scans its nodes one after another
// on the server thread that runs it, so at most kSlots threads scan.
class Served final : public System {
 public:
  static constexpr int kClients = 4;
  static constexpr int kSlots = 2;

  Served(const Dataset& d, SetupTimes& t, Tracer& tr) {
    const auto t0 = Clock::now();
    plan_ = timed_compile(d, t, tr);
    zm_ = build_zonemap(*plan_, t, tr);
    {
      Scope s(tr, "serve.start", -1, 0);
      storm::ClusterOptions copts;
      copts.parallel_nodes = false;
      copts.threads_per_node = 1;
      adv::sched::SchedulerOptions sopts;
      sopts.max_concurrent_queries = kSlots;
      adv::serve::ServeOptions vopts;
      vopts.enable_result_cache = true;
      server_ = std::make_unique<storm::QueryServer>(plan_, copts, 0, &*zm_,
                                                     sopts, vopts);
    }
    t.total = since(t0);
  }

  int clients() const override { return kClients; }
  const adv::codegen::DataServicePlan& plan() const override {
    return *plan_;
  }
  std::size_t extraction_workers() const override { return kSlots; }

  Table run(Caller& c, const std::string& sql, uint64_t qid,
            Sample& s) override {
    Tracer& tr = c.tracer;
    Scope root(tr, "query", -1, qid);
    storm::RemoteResult r;
    const auto t0 = Clock::now();
    {
      Scope e(tr, "net.client_execute", root.id(), qid);
      r = storm::QueryClient("127.0.0.1", server_->port()).execute(sql);
      tr.derived("sched.queue", e.id(), r.sched.queue_wait_seconds);
      tr.derived("serve.run", e.id(), r.sched.run_seconds);
    }
    const double exec = since(t0);
    Table out;
    {
      Scope m(tr, "storm.merge", root.id(), qid);  // RemoteResult::merged
      out = r.merged();
    }
    s.queue_wait = r.sched.queue_wait_seconds;
    s.server_run = r.sched.run_seconds;
    s.scanned = !r.sched.served_from_cache;
    if (s.scanned) c.misses.emplace_back(c.samples.size(), sql);
    if (tr.enabled()) {
      Counters& k = c.counters;
      k.net_overhead_seconds +=
          exec - r.sched.queue_wait_seconds - r.sched.run_seconds;
      if (s.scanned) {
        add_node_stats(r.node_stats, k);
        k.makespan_seconds += max_busy(r.node_stats);
      }
    }
    return out;
  }

  void begin_pass() override {
    rc0_ = server_->result_cache_stats();
    pc0_ = server_->plan_cache_stats();
    rejected0_ = server_->scheduler_metrics().rejected;
  }
  void end_pass(std::vector<std::unique_ptr<Caller>>& callers,
                Counters& out) override {
    // The wire's per-node stats carry no rows_scanned, so a miss scanned
    // the candidate rows of its plan under the same zone map (what the
    // server's extraction reads).
    for (auto& c : callers)
      for (const auto& [i, sql] : c->misses)
        c->samples[i].rows_scanned = candidate_rows(sql);
    const auto rc = server_->result_cache_stats();
    const auto pc = server_->plan_cache_stats();
    const auto sm = server_->scheduler_metrics();
    out.result_lookups += rc.lookups - rc0_.lookups;
    out.result_hits += rc.hits - rc0_.hits;
    out.result_evictions += rc.evictions - rc0_.evictions;
    out.served_plan_hits += pc.hits - pc0_.hits;
    out.served_plan_lookups +=
        (pc.hits + pc.misses) - (pc0_.hits + pc0_.misses);
    out.sched_rejected += sm.rejected - rejected0_;
    out.sched_peak_running =
        std::max<uint64_t>(out.sched_peak_running, sm.peak_running);
  }

 private:
  uint64_t candidate_rows(const std::string& sql) {
    auto it = scanned_.find(sql);
    if (it == scanned_.end()) {
      adv::afc::PlannerOptions popts;
      popts.filter = &*zm_;
      it = scanned_
               .emplace(sql, plan_->index_fn(plan_->bind(sql), popts)
                                 .candidate_rows())
               .first;
    }
    return it->second;
  }

  std::shared_ptr<adv::codegen::DataServicePlan> plan_;
  std::optional<adv::zonemap::ZoneMap> zm_;
  std::unique_ptr<storm::QueryServer> server_;
  std::map<std::string, uint64_t> scanned_;
  adv::serve::ResultCache::Stats rc0_;
  adv::PlanCache::Stats pc0_;
  uint64_t rejected0_ = 0;
};

// dist-mix: a DistCoordinator over one in-process NodeDaemon per node on
// loopback, each with one extraction worker and the shared zone map.  The
// scatter runs the daemons at once, so one thread per node scans.
class Dist final : public System {
 public:
  Dist(const Dataset& d, SetupTimes& t, Tracer& tr) {
    const auto t0 = Clock::now();
    plan_ = timed_compile(d, t, tr);
    zm_ = build_zonemap(*plan_, t, tr);
    Scope s(tr, "dist.start", -1, 0);
    std::vector<storm::ShardConfig> shards;
    for (int n = 0; n < plan_->model().num_nodes(); ++n) {
      storm::NodeDaemonOptions nopts;
      nopts.node_id = n;
      nopts.cluster.threads_per_node = 1;
      nopts.filter = &*zm_;
      daemons_.push_back(std::make_unique<storm::NodeDaemon>(plan_, nopts));
      shards.push_back({n, {{"127.0.0.1", daemons_.back()->port()}}});
    }
    coord_ = std::make_unique<storm::DistCoordinator>(std::move(shards),
                                                      storm::DistOptions{});
    t.total = since(t0);
  }

  const adv::codegen::DataServicePlan& plan() const override {
    return *plan_;
  }
  std::size_t extraction_workers() const override { return daemons_.size(); }

  Table run(Caller& c, const std::string& sql, uint64_t qid,
            Sample& s) override {
    Tracer& tr = c.tracer;
    Scope root(tr, "query", -1, qid);
    storm::DistResult r;
    {
      Scope e(tr, "dist.run", root.id(), qid);
      r = coord_->run(sql);
      tr.derived("storm.node_busy", e.id(), max_busy(r.node_stats));
    }
    if (r.partial()) throw adv::IoError("partial answer: " + r.first_error());
    Table out;
    {
      Scope m(tr, "storm.merge", root.id(), qid);  // DistResult::merged
      out = r.merged();
    }
    s.rows_scanned = rows_scanned(r.node_stats);
    if (tr.enabled()) {
      Counters& k = c.counters;
      add_node_stats(r.node_stats, k);
      k.makespan_seconds += max_busy(r.node_stats);
      k.dist_wall_seconds += r.wall_seconds;
      k.dist_gather_seconds += r.wall_seconds - max_busy(r.node_stats);
      k.dist_commits += r.commits;
      k.dist_failovers += r.failovers;
    }
    return out;
  }

 private:
  std::shared_ptr<adv::codegen::DataServicePlan> plan_;
  std::optional<adv::zonemap::ZoneMap> zm_;
  std::vector<std::unique_ptr<storm::NodeDaemon>> daemons_;
  std::unique_ptr<storm::DistCoordinator> coord_;
};

}  // namespace

std::unique_ptr<System> open_system(const std::string& workload,
                                    const Dataset& data, SetupTimes& times,
                                    Tracer& tracer) {
  if (workload == "ipars-rows" || workload == "ipars-aggregate")
    return std::make_unique<InProcess>(data, times, tracer);
  if (workload == "served-mix")
    return std::make_unique<Served>(data, times, tracer);
  if (workload == "dist-mix")
    return std::make_unique<Dist>(data, times, tracer);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace advbench

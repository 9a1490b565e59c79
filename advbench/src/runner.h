// Closed-loop callers and the counters the workloads fill in.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check.h"
#include "queries.h"
#include "trace.h"

namespace advbench {

struct Sample {
  double latency = 0;  // seconds, at the caller
  int cls = 0;
  bool failed = false;
  uint64_t rows_out = 0;
  // Rows the storage layer scanned for this query; on served-mix only
  // cache misses scan (filled in after the window, see systems.cpp).
  uint64_t rows_scanned = 0;
  bool scanned = true;       // false: a served cache hit
  double queue_wait = 0;     // served-mix: scheduler queue wait (s)
  double server_run = 0;     // served-mix: server-side run time (s)
  bool traced = false;       // run with the caller's tracer on
};

// Work the layers report per query (NodeStats and friends), summed over a
// pass.  Means are taken over the pass's queries.
struct Counters {
  uint64_t afcs = 0, afcs_pruned = 0, bytes_skipped = 0;
  uint64_t bytes_read = 0, rows_scanned = 0, rows_matched = 0;
  uint64_t bytes_sent = 0, io_retries = 0;
  uint64_t afcs_interp = 0, afcs_vector = 0, afcs_jit = 0;
  uint64_t groups_emitted = 0, agg_bytes_shipped = 0;
  uint64_t agg_dense = 0, agg_hash = 0, agg_radix = 0;
  uint64_t agg_base_bytes = 0;  // matched rows x select columns x 8
  double busy_seconds = 0, makespan_seconds = 0, execute_seconds = 0;
  uint64_t filter_calls = 0;
  double filter_seconds = 0;
  uint64_t plan_lookups = 0, plan_hits = 0;
  // served-mix
  uint64_t result_lookups = 0, result_hits = 0, result_evictions = 0;
  uint64_t served_plan_lookups = 0, served_plan_hits = 0;
  uint64_t sched_rejected = 0, sched_peak_running = 0;
  double net_overhead_seconds = 0;
  // dist-mix
  double dist_wall_seconds = 0, dist_gather_seconds = 0;
  uint64_t dist_commits = 0, dist_failovers = 0;

  void add(const Counters& o);
};

// One closed-loop caller: it sends its next query only after the previous
// answer arrived and was recorded for checking.
struct Caller {
  Caller(QueryStream& stream, int id, Clock::time_point origin)
      : id(id), stream(stream), tracer(origin) {}

  int id;
  QueryStream& stream;  // continues across warm-up and passes
  Tracer tracer;
  AnswerLog answers;
  std::vector<Sample> samples;
  std::vector<std::string> errors;  // first few exception messages
  Counters counters;
  double check_seconds = 0;  // spent recording answers, not querying
  // served-mix: (sample index, SQL) of cache misses, whose rows_scanned
  // end_pass() fills in after the window.
  std::vector<std::pair<std::size_t, std::string>> misses;
  uint64_t queries = 0;
  std::unordered_map<std::string, bool> pushdown;  // per SQL

  uint64_t next_query_id() {
    return (static_cast<uint64_t>(id) + 1) << 32 | ++queries;
  }
};

}  // namespace advbench

// The system under test, opened the way a user of each workload opens it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codegen/plan.h"
#include "expr/table.h"
#include "runner.h"

namespace advbench {

struct Dataset {
  std::string descriptor_text;
  std::string name;
  std::string root;
};

// Set-up times of one opening, in seconds; compile / zonemap_build are
// filled when measured (the in-process workloads only time them in the
// traced run, see systems.cpp).
struct SetupTimes {
  double total = 0;
  double compile = -1;
  double zonemap_build = -1;
};

class System {
 public:
  virtual ~System() = default;

  // Closed-loop callers the workload runs.
  virtual int clients() const { return 1; }
  // The compiled plan the reference answers are computed from.
  virtual const adv::codegen::DataServicePlan& plan() const = 0;
  // One query as the workload's user sends it; returns the answer.  With
  // the caller's tracer enabled, every call into a module is a span.
  // Throws on a failed query.
  virtual adv::expr::Table run(Caller& c, const std::string& sql,
                               uint64_t query_id, Sample& s) = 0;
  // Server-side counters are cumulative: begin_pass() takes a snapshot,
  // end_pass() adds the deltas to `out` and completes the callers'
  // samples where that needs work outside the timed region.
  virtual void begin_pass() {}
  virtual void end_pass(std::vector<std::unique_ptr<Caller>>& callers,
                        Counters& out) {
    (void)callers;
    (void)out;
  }
  // Threads that scan at once at most (reported with the results).
  virtual std::size_t extraction_workers() const = 0;
};

// Opens `workload`'s system over the generated dataset, with one
// extraction thread per query, admitted query or node.  Set-up spans go to
// `tracer` when it is enabled.
std::unique_ptr<System> open_system(const std::string& workload,
                                    const Dataset& data,
                                    SetupTimes& times, Tracer& tracer);

}  // namespace advbench

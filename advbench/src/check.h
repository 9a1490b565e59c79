// Answer checking, kept outside every timed region.
//
// Each answer the system returns is recorded against its SQL text; after
// the measured window the reference answer of every distinct query is
// computed once with the naive single-threaded DataServicePlan::execute
// (interp kernels, no chunk filter, no StormCluster, no src/agg — it
// bypasses every layer under test) and compared:
//
//   * row queries: as multisets, through an order-independent digest of
//     the rows' raw bit patterns (row count, column count, and two
//     independent 64-bit sums of per-row hashes).  The digest lets a
//     800k-row answer be checked without keeping it;
//   * pushdown queries (GROUP BY / aggregates / ORDER BY ... LIMIT): the
//     answer tables are kept and compared the way the dq harness does —
//     group keys, COUNT, MIN and MAX bit-exact, SUM and AVG within 1e-9
//     relative error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "codegen/plan.h"
#include "expr/table.h"

namespace advbench {

struct RowDigest {
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;
  auto operator<=>(const RowDigest&) const = default;
};

RowDigest row_digest(const adv::expr::Table& t);

// Answers recorded by one calling thread.
class AnswerLog {
 public:
  // `pushdown`: the query aggregates or has ORDER BY / LIMIT.
  void record(const std::string& sql, bool pushdown,
              const adv::expr::Table& answer);
  void merge(const AnswerLog& other);

 private:
  friend class Checker;
  struct Entry {
    bool pushdown = false;
    // Distinct answers seen for this query (normally exactly one), keyed
    // by digest, with how many times each came back.
    std::map<RowDigest, uint64_t> digests;
    std::map<RowDigest, adv::expr::Table> tables;  // pushdown only
  };
  std::map<std::string, Entry> entries_;
};

struct CheckReport {
  uint64_t answers_checked = 0;
  uint64_t wrong_answers = 0;
  uint64_t distinct_queries = 0;
  double reference_seconds = 0;
  std::vector<std::string> mismatches;  // SQL of the first few wrong ones
};

class Checker {
 public:
  // `corrupt_reference`: alter the first query's reference answer, so the
  // benchmark's own tests can prove a wrong answer fails the run.
  static CheckReport check(const adv::codegen::DataServicePlan& plan,
                           const AnswerLog& log, std::size_t threads,
                           bool corrupt_reference);
};

}  // namespace advbench

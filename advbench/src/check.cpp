#include "check.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/stopwatch.h"

namespace advbench {

using adv::expr::Table;

namespace {

uint64_t bits_of(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

uint64_t mix(uint64_t z) {  // SplitMix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// IEEE total order as an unsigned compare (as the dq harness sorts).
uint64_t obits(double v) {
  const uint64_t b = bits_of(v);
  return (b >> 63) ? ~b : b | (uint64_t{1} << 63);
}

// SUM / AVG columns of a pushdown query depend on accumulation order; the
// engine uses an exact accumulator, the reference a plain double sum.
std::vector<bool> exact_columns(const adv::expr::BoundQuery& q) {
  if (!q.has_aggregates())
    return std::vector<bool>(q.result_columns().size(), true);
  std::vector<bool> exact;
  for (const auto& o : q.output_cols()) {
    bool e = true;
    if (o.is_agg) {
      const adv::sql::AggFn fn =
          q.agg_items()[static_cast<std::size_t>(o.index)].fn;
      e = fn != adv::sql::AggFn::kSum && fn != adv::sql::AggFn::kAvg;
    }
    exact.push_back(e);
  }
  return exact;
}

constexpr double kAggRelTol = 1e-9;

// Rows are aligned by sorting on the exact columns first (group keys are
// unique per row, so that order is total); exact columns must then match
// bit for bit and the others within kAggRelTol.
bool pushdown_rows_match(const adv::expr::BoundQuery& q, const Table& a,
                         const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols())
    return false;
  const std::vector<bool> exact = exact_columns(q);
  if (exact.size() != a.num_cols()) return false;
  const std::size_t nc = a.num_cols();
  std::vector<std::size_t> colord;
  for (std::size_t c = 0; c < nc; ++c)
    if (exact[c]) colord.push_back(c);
  for (std::size_t c = 0; c < nc; ++c)
    if (!exact[c]) colord.push_back(c);
  auto sorted = [&](const Table& t) {
    std::vector<std::size_t> p(t.num_rows());
    std::iota(p.begin(), p.end(), std::size_t{0});
    std::sort(p.begin(), p.end(), [&](std::size_t x, std::size_t y) {
      for (std::size_t c : colord) {
        const uint64_t u = obits(t.at(x, c)), v = obits(t.at(y, c));
        if (u != v) return u < v;
      }
      return false;
    });
    return p;
  };
  const std::vector<std::size_t> pa = sorted(a), pb = sorted(b);
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    for (std::size_t c = 0; c < nc; ++c) {
      const double u = a.at(pa[r], c), v = b.at(pb[r], c);
      if (bits_of(u) == bits_of(v)) continue;
      if (exact[c] || std::isnan(u) || std::isnan(v)) return false;
      if (std::abs(u - v) >
          kAggRelTol * std::max({std::abs(u), std::abs(v), 1.0}))
        return false;
    }
  }
  return true;
}

// The same table with its first value moved (or one extra row when it is
// empty): a wrong answer by construction.
Table corrupted(const Table& t) {
  Table out(t.columns());
  std::vector<double> row(t.num_cols());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_cols(); ++c) row[c] = t.at(r, c);
    if (r == 0 && !row.empty()) row[0] += 1.0;
    out.append_row(row.data());
  }
  if (t.num_rows() == 0 && t.num_cols() > 0) out.append_row(row.data());
  return out;
}

}  // namespace

RowDigest row_digest(const Table& t) {
  RowDigest d;
  d.rows = t.num_rows();
  d.cols = t.num_cols();
  std::vector<uint64_t> acc(t.num_rows(), 0x243f6a8885a308d3ULL);
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    const std::vector<double>& col = t.column(c);
    const uint64_t salt = mix(c + 1);
    for (std::size_t r = 0; r < acc.size(); ++r)
      acc[r] = mix(acc[r] ^ (bits_of(col[r]) + salt));
  }
  for (uint64_t h : acc) {
    d.sum1 += h;
    d.sum2 += mix(h ^ 0x9e3779b97f4a7c15ULL);
  }
  return d;
}

void AnswerLog::record(const std::string& sql, bool pushdown,
                       const Table& answer) {
  Entry& e = entries_[sql];
  e.pushdown = pushdown;
  const RowDigest d = row_digest(answer);
  if (e.digests[d]++ == 0 && pushdown) e.tables.emplace(d, answer);
}

void AnswerLog::merge(const AnswerLog& other) {
  for (const auto& [sql, theirs] : other.entries_) {
    Entry& mine = entries_[sql];
    mine.pushdown = theirs.pushdown;
    for (const auto& [d, n] : theirs.digests) mine.digests[d] += n;
    for (const auto& [d, t] : theirs.tables) mine.tables.emplace(d, t);
  }
}

CheckReport Checker::check(const adv::codegen::DataServicePlan& plan,
                           const AnswerLog& log, std::size_t threads,
                           bool corrupt_reference) {
  adv::Stopwatch sw;
  std::vector<const std::pair<const std::string, AnswerLog::Entry>*> todo;
  for (const auto& kv : log.entries_) todo.push_back(&kv);

  CheckReport rep;
  rep.distinct_queries = todo.size();
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
      const std::string& sql = todo[i]->first;
      const AnswerLog::Entry& e = todo[i]->second;
      uint64_t checked = 0, wrong = 0;
      for (const auto& kv : e.digests) checked += kv.second;
      try {
        const adv::expr::BoundQuery q = plan.bind(sql);
        Table ref = plan.execute(q);
        if (corrupt_reference && i == 0) ref = corrupted(ref);
        const RowDigest ref_digest = row_digest(ref);
        for (const auto& [d, n] : e.digests) {
          const bool ok = e.pushdown
                              ? pushdown_rows_match(q, e.tables.at(d), ref)
                              : d == ref_digest;
          if (!ok) wrong += n;
        }
      } catch (const std::exception&) {
        wrong = checked;  // no reference, no verified answer
      }
      std::lock_guard<std::mutex> lk(mu);
      rep.answers_checked += checked;
      rep.wrong_answers += wrong;
      if (wrong && rep.mismatches.size() < 5) rep.mismatches.push_back(sql);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(threads, 1); ++t)
    pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  rep.reference_seconds = sw.elapsed_seconds();
  return rep;
}

}  // namespace advbench

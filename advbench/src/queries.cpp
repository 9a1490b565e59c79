#include "queries.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace advbench {

namespace {

constexpr int kBlock = 20;
constexpr int kRels = 4;
constexpr int kTimesteps = 500;

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next() % i]);
}

// Adds `n` distinct queries made by `make` to the pool of class `cls`.
template <typename Make>
void fill(QueryMix& m, int cls, std::size_t n, Make make) {
  std::vector<std::string>& out = m.pool[static_cast<std::size_t>(cls)];
  for (int tries = 0; out.size() < n && tries < 100000; ++tries) {
    std::string sql = make();
    if (std::find(out.begin(), out.end(), sql) == out.end())
      out.push_back(std::move(sql));
  }
}

void add_class(QueryMix& m, const char* name, int share, bool unique = false) {
  m.classes.push_back({name, share});
  m.pool.emplace_back();
  m.unique.push_back(unique);
}

// The i-th of n values spread evenly over [lo, hi), each at a seeded
// point of its stratum: every seed's pool covers the range the same way,
// so a class costs about the same on every seed.
double stratum(Rng& r, double lo, double hi, int i, int n) {
  return lo + (hi - lo) * ((i % n) + r.real(0, 1)) / n;
}

std::string rel_pair(Rng& r) {
  int a = r.between(0, kRels - 1), b = r.between(0, kRels - 2);
  if (b >= a) ++b;
  return fmt("%d, %d", std::min(a, b), std::max(a, b));
}

// Paper Fig. 8 row-returning types.  Median latencies on one CPU with
// one extraction worker, plan-cache misses included: subset, soil and sgas
// 11-24 ms, udf 60-85 ms, full 300-440 ms.  With these shares p50 lies
// inside the selective classes (0%-75% of the sorted latencies, p50 in the
// middle of their plan-cache misses) and p90 inside the full scans
// (85%-100%).  64 distinct queries: four times the default plan cache,
// which a quarter of the queries hit.
QueryMix rows_mix(Rng& r) {
  QueryMix m;
  m.repeat_every = 4;
  add_class(m, "full", 3);
  add_class(m, "subset", 6);
  add_class(m, "soil", 5);
  add_class(m, "sgas", 4);
  add_class(m, "udf", 2);
  fill(m, 0, 4, [&] {
    const int t = r.between(1, 4);
    return t == 1 ? std::string("SELECT * FROM IparsData")
                  : fmt("SELECT * FROM IparsData WHERE TIME >= %d", t);
  });
  fill(m, 1, 18, [&] {
    const int t = r.between(1, kTimesteps - 50);
    return fmt("SELECT * FROM IparsData WHERE REL IN (%s) AND TIME BETWEEN "
               "%d AND %d",
               rel_pair(r).c_str(), t, t + 45);
  });
  int i = 0;
  fill(m, 2, 14, [&] {
    return fmt("SELECT * FROM IparsData WHERE SOIL >= %.3f",
               stratum(r, 0.88, 0.92, i++, 14));
  });
  i = 0;
  fill(m, 3, 12, [&] {
    return fmt("SELECT REL, TIME, X, Y, Z, SGAS FROM IparsData WHERE "
               "SGAS >= %.4f",
               stratum(r, 0.975, 0.985, i++, 12));
  });
  i = 0;
  fill(m, 4, 16, [&] {
    return fmt("SELECT * FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) "
               "< %.2f",
               stratum(r, 5.0, 6.0, i++, 16));
  });
  return m;
}

// Pushdown queries; every class folds rows inside the workers.  Median
// latencies on one CPU with one extraction worker: dense-rel ~25 ms,
// plain-topk ~50 ms, group-topk ~140 ms, dense-time ~250 ms, high-card
// ~260 ms; p50 lies inside group-topk (45%-65%), p90 inside dense-time
// (65%-95%).  48 distinct queries, a quarter of them plan-cache hits.
QueryMix aggregate_mix(Rng& r) {
  QueryMix m;
  m.repeat_every = 4;
  add_class(m, "dense-time", 6);
  add_class(m, "dense-rel", 6);
  add_class(m, "group-topk", 4);
  add_class(m, "plain-topk", 3);
  add_class(m, "high-card", 1);
  int i = 0;
  fill(m, 0, 12, [&] {
    return fmt("SELECT TIME, COUNT(*), SUM(SOIL), AVG(SGAS) FROM IparsData "
               "WHERE SGAS >= %.3f GROUP BY TIME",
               stratum(r, 0.2, 0.3, i++, 12));
  });
  fill(m, 1, 12, [&] {
    const int t = r.between(1, kTimesteps - 230);
    return fmt("SELECT REL, COUNT(*), AVG(SOIL), MIN(OILVX), MAX(SGAS) FROM "
               "IparsData WHERE TIME BETWEEN %d AND %d GROUP BY REL",
               t, t + 220);
  });
  // ORDER BY an exact aggregate, ties broken by the TIME key: the cut at
  // LIMIT is the same for the engine and the reference.
  i = 0;
  fill(m, 2, 10, [&] {
    return fmt("SELECT TIME, COUNT(*), MAX(SGAS) FROM IparsData WHERE "
               "SGAS >= %.3f GROUP BY TIME ORDER BY COUNT(*) DESC LIMIT 10",
               stratum(r, 0.6, 0.7, i++, 10));
  });
  fill(m, 3, 10, [&] {
    const int t = r.between(1, kTimesteps - 170);
    return fmt("SELECT * FROM IparsData WHERE TIME BETWEEN %d AND %d ORDER "
               "BY SGAS DESC LIMIT 100",
               t, t + 165);
  });
  fill(m, 4, 4, [&] {
    const int t = r.between(1, kTimesteps - 55);
    return fmt("SELECT SOIL, COUNT(*), MAX(SGAS) FROM IparsData WHERE TIME "
               "BETWEEN %d AND %d GROUP BY SOIL",
               t, t + 50);
  });
  return m;
}

// A hot set of 8 selective queries with 1-2 MB answers (each well under
// the result cache's 8 MiB entry limit, all of them well inside its 64 MiB
// budget), a cold stream of never-repeated subsets of the same size, and a
// few aggregates.  At this size a query's cost is mostly shipping rows,
// not connection set-up, which keeps the workload steady on a shared host.
QueryMix served_mix(Rng& r) {
  QueryMix m;
  add_class(m, "hot", 14);
  add_class(m, "cold", 5, /*unique=*/true);
  add_class(m, "aggregate", 1);
  int i = 0;
  fill(m, 0, 4, [&] {
    return fmt("SELECT * FROM IparsData WHERE SOIL >= %.3f",
               stratum(r, 0.88, 0.90, i++, 4));
  });
  fill(m, 0, 8, [&] {
    const int t = r.between(1, kTimesteps - 40);
    return fmt("SELECT * FROM IparsData WHERE REL = %d AND TIME "
               "BETWEEN %d AND %d",
               r.between(0, kRels - 1), t, t + 40);
  });
  fill(m, 2, 8, [&] {
    const int t = r.between(1, kTimesteps - 80);
    return fmt("SELECT TIME, COUNT(*), AVG(SOIL) FROM IparsData WHERE TIME "
               "BETWEEN %d AND %d GROUP BY TIME",
               t, t + 75);
  });
  return m;
}

// Row subsets of 2-7 MB and aggregates: each query ships enough through
// the scatter/gather path that per-query connection set-up to the four
// daemons is not most of its cost.
QueryMix dist_mix(Rng& r) {
  QueryMix m;
  add_class(m, "subset", 8);
  add_class(m, "soil", 6);
  add_class(m, "aggregate", 6);
  fill(m, 0, 12, [&] {
    const int t = r.between(1, kTimesteps - 70);
    return fmt("SELECT * FROM IparsData WHERE REL IN (%s) AND TIME BETWEEN "
               "%d AND %d",
               rel_pair(r).c_str(), t, t + 65);
  });
  int i = 0;
  fill(m, 1, 10, [&] {
    return fmt("SELECT * FROM IparsData WHERE SOIL >= %.3f",
               stratum(r, 0.85, 0.87, i++, 10));
  });
  fill(m, 2, 10, [&] {
    const int t = r.between(1, kTimesteps - 210);
    return fmt("SELECT REL, COUNT(*), SUM(SGAS), MAX(SOIL) FROM IparsData "
               "WHERE TIME BETWEEN %d AND %d GROUP BY REL",
               t, t + 200);
  });
  return m;
}

// Independent seeds for the pool and for each caller's stream.
uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  Rng r(seed ^ (0xa0761d6478bd642fULL * (stream + 1)));
  return r.next();
}

}  // namespace

std::size_t QueryMix::pool_size() const {
  std::size_t n = 0;
  for (const auto& p : pool) n += p.size();
  return n;
}

QueryMix make_mix(const std::string& workload, uint64_t seed) {
  Rng r(derive_seed(seed, 1000));
  QueryMix m;
  if (workload == "ipars-rows") m = rows_mix(r);
  else if (workload == "ipars-aggregate") m = aggregate_mix(r);
  else if (workload == "served-mix") m = served_mix(r);
  else if (workload == "dist-mix") m = dist_mix(r);
  else throw std::invalid_argument("unknown workload '" + workload + "'");
  int total = 0;
  for (const auto& c : m.classes) total += c.share;
  if (total != kBlock) throw std::logic_error("class shares must sum to 20");
  return m;
}

QueryStream::QueryStream(const QueryMix& mix, uint64_t seed, int client)
    : mix_(mix), rng_(derive_seed(seed, 2000 + static_cast<uint64_t>(client))),
      client_(client) {
  for (int t = 1; t <= kTimesteps - 35; ++t)
    for (int w = 20; w <= 35; ++w) fresh_.emplace_back(t, w);
  shuffle(fresh_, rng_);
  for (std::size_t c = 0; c < mix_.classes.size(); ++c)
    drawn_.push_back(mix_.repeat_every > 0
                         ? static_cast<int>(rng_.next() % static_cast<
                                                uint64_t>(mix_.repeat_every))
                         : 0);
}

std::string QueryStream::unique_query() {
  // One REL per client keeps the streams of concurrent clients disjoint.
  const auto [t, w] = fresh_[fresh_pos_++ % fresh_.size()];
  return fmt("SELECT * FROM IparsData WHERE "
             "REL = %d AND TIME BETWEEN %d AND %d",
             client_ % kRels, t, t + w);
}

const std::string& QueryStream::pool_query(int cls, bool repeat) {
  const auto& pool = mix_.pool[static_cast<std::size_t>(cls)];
  if (mix_.repeat_every == 0) return pool[rng_.next() % pool.size()];
  auto is_recent = [&](const std::string& s) {
    return std::find(recent_.begin(), recent_.end(), &s) != recent_.end();
  };
  std::vector<const std::string*> pick;
  for (const auto& s : pool)
    if (is_recent(s) == repeat) pick.push_back(&s);
  if (pick.empty())  // no recent query of this class, or no other one
    for (const auto& s : pool) pick.push_back(&s);
  const std::string* chosen = pick[rng_.next() % pick.size()];
  recent_.erase(std::remove(recent_.begin(), recent_.end(), chosen),
                recent_.end());
  recent_.push_back(chosen);
  if (recent_.size() > QueryMix::kRecent) recent_.erase(recent_.begin());
  return *chosen;
}

Query QueryStream::next() {
  if (pos_ == block_.size()) {
    block_.clear();
    for (std::size_t c = 0; c < mix_.classes.size(); ++c)
      block_.insert(block_.end(),
                    static_cast<std::size_t>(mix_.classes[c].share),
                    static_cast<int>(c));
    shuffle(block_, rng_);
    pos_ = 0;
  }
  Query q;
  q.cls = block_[pos_++];
  const std::size_t c = static_cast<std::size_t>(q.cls);
  const bool repeat =
      mix_.repeat_every > 0 && ++drawn_[c] % mix_.repeat_every == 0;
  q.sql = mix_.unique[c] ? unique_query() : pool_query(q.cls, repeat);
  return q;
}

}  // namespace advbench

// Seeded query streams for the four workloads.
//
// Every stream draws from query classes with fixed shares.  Shares are
// enforced per block of 20 queries (the class sequence of a block is a
// seeded shuffle of its exact class counts), so percentile positions fall
// in the same class on every seed.  Inside a class the seed places the
// TIME windows (of a fixed width) and picks the REL sets, and value
// thresholds are spread evenly over a narrow range, so a class costs about
// the same on every seed.  Same seed, same stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace advbench {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform integer in [lo, hi].
  int between(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<uint64_t>(hi - lo + 1));
  }
  // Uniform real in [lo, hi).
  double real(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

struct Query {
  std::string sql;
  int cls = 0;  // index into QueryMix::classes
};

struct QueryClass {
  std::string name;
  int share = 0;  // queries per block of 20
};

// A pool of distinct queries per class plus the stream over them.
struct QueryMix {
  std::vector<QueryClass> classes;
  std::vector<std::vector<std::string>> pool;  // pool[cls]
  // Classes whose queries are generated fresh on every draw (never
  // repeated), instead of drawn from `pool`.
  std::vector<bool> unique;
  // Plan-cache reuse, fixed instead of left to chance: when nonzero, every
  // repeat_every-th draw of each class picks one of the last kRecent
  // distinct queries (a plan-cache hit) and the others a query outside
  // them (a miss).  0: uniform draws from the class pool.
  int repeat_every = 0;
  static constexpr std::size_t kRecent = 16;  // VirtualTable's default

  std::size_t pool_size() const;
};

// Workload names: "ipars-rows", "ipars-aggregate", "served-mix",
// "dist-mix".
QueryMix make_mix(const std::string& workload, uint64_t seed);

// The stream of one caller; `client` separates concurrent callers.
class QueryStream {
 public:
  QueryStream(const QueryMix& mix, uint64_t seed, int client);
  Query next();
  // True when the next draw starts a block of 20.
  bool at_block_start() const { return pos_ == block_.size(); }

 private:
  std::string unique_query();
  const std::string& pool_query(int cls, bool repeat);

  const QueryMix& mix_;
  Rng rng_;
  int client_;
  std::vector<int> block_;  // class sequence of the current block
  std::size_t pos_ = 0;
  std::vector<int> drawn_;  // draws per class, from a seeded phase
  // Distinct pool queries drawn last, most recent at the back.
  std::vector<const std::string*> recent_;
  // Fresh (REL, TIME window) subsets of this client, in seeded order.
  std::vector<std::pair<int, int>> fresh_;
  std::size_t fresh_pos_ = 0;
};

}  // namespace advbench

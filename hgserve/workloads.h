#ifndef HGSERVE_WORKLOADS_H_
#define HGSERVE_WORKLOADS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace hgserve {

/// Where a workload's query times fall in the served history [lo, hi].
enum class TimeShape {
  kNewest32,  ///< Uniform in the newest 1/32 of the history.
  kAll,       ///< Uniform over the whole history.
  kWindow8,   ///< All times of a query in one random window of 1/8 of it.
};

/// \brief One traffic mix. Every workload runs a closed-loop capacity phase
/// with `capacity_callers` callers, then a latency phase: open-loop Poisson
/// arrivals at `open_qps` served by `latency_callers` callers, or, when
/// `open_qps` is 0, a closed loop of `latency_callers` callers.
struct WorkloadSpec {
  const char* name;
  TimeShape shape;
  int points;  ///< Times per query; 0 = 80% single-point, 20% four-point.
  double open_qps;
  int capacity_callers;
  int latency_callers;
  bool live_ingest;  ///< A writer streams the live part of the trace beside the readers.
};

// The decoded-delta LRU holds 64 entries against ~480 skeleton edges, so
// serve_hot's working set (~5 newest leaves) fits it and serve_cold's does
// not. multipoint_k8 is the only mix that reaches the Steiner planner and the
// parallel executor. serve_ingest is serve_hot's read shape with the write
// path beside it. Open-loop rates sit at 10-20% of the measured capacity.
inline constexpr WorkloadSpec kWorkloads[] = {
    {"serve_hot", TimeShape::kNewest32, 0, 150, 4, 4, false},
    {"serve_cold", TimeShape::kAll, 0, 80, 4, 4, false},
    {"multipoint_k8", TimeShape::kWindow8, 8, 0, 4, 1, false},
    {"serve_ingest", TimeShape::kNewest32, 0, 100, 3, 3, true},
};

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// SplitMix64: a small, fully specified generator, so a seed gives the same
/// inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n], n >= 0.
  int64_t Upto(int64_t n) { return static_cast<int64_t>(Unit() * static_cast<double>(n + 1)); }
  /// Exponential with the given rate.
  double Exponential(double rate) { return -std::log1p(-Unit()) / rate; }

 private:
  uint64_t state_;
};

/// Independent input streams derived from the run's seed.
enum class Stream : uint64_t { kTrace = 1, kWarmup, kCapacity, kLatency, kArrivals };

inline uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t caller = 0) {
  Rng mix(seed * 0x100000001b3ULL ^ (static_cast<uint64_t>(stream) << 40) ^ caller);
  return mix.Next();
}

/// The times of request `index` of a stream, over the history [lo, hi].
/// Depends only on its arguments, so which caller thread sends a request
/// does not change what it asks.
inline std::vector<hgdb::Timestamp> QueryTimes(const WorkloadSpec& spec, uint64_t stream_seed,
                                               uint64_t index, hgdb::Timestamp lo,
                                               hgdb::Timestamp hi) {
  Rng rng(stream_seed ^ (index * 0xd1342543de82ef95ULL));
  const int k = spec.points > 0 ? spec.points : (rng.Unit() < 0.2 ? 4 : 1);
  const int64_t span = hi - lo;
  std::vector<hgdb::Timestamp> times;
  times.reserve(k);
  switch (spec.shape) {
    case TimeShape::kNewest32: {
      const int64_t width = span / 32;
      for (int i = 0; i < k; ++i) times.push_back(hi - rng.Upto(width));
      break;
    }
    case TimeShape::kAll:
      for (int i = 0; i < k; ++i) times.push_back(lo + rng.Upto(span));
      break;
    case TimeShape::kWindow8: {
      const int64_t width = span / 8;
      const hgdb::Timestamp start = lo + rng.Upto(span - width);
      for (int i = 0; i < k; ++i) times.push_back(start + rng.Upto(width));
      break;
    }
  }
  return times;
}

/// Due times (seconds from the phase start) of a Poisson arrival process at
/// `rate` per second over `seconds`.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate, double seconds) {
  Rng rng(seed);
  std::vector<double> due;
  for (double t = rng.Exponential(rate); t < seconds; t += rng.Exponential(rate)) {
    due.push_back(t);
  }
  return due;
}

}  // namespace hgserve

#endif  // HGSERVE_WORKLOADS_H_

#ifndef HGSERVE_STATS_H_
#define HGSERVE_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace hgserve {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile of `v` (sorted in place). A failed request is
/// stored as +inf, so it counts as missing every latency limit.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return (*v)[std::min(i, v->size() - 1)];
}

inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Length of the union of the intervals `spans`, each clipped to [lo, hi].
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> spans, int64_t lo,
                         int64_t hi) {
  for (auto& [s, e] : spans) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(spans.begin(), spans.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [s, e] : spans) {
    if (e <= reach) continue;
    covered += e - std::max(s, reach);
    reach = e;
  }
  return covered;
}

/// One request of a measured phase: when it was due (seconds from the phase
/// start) and its latency in ms (+inf when it failed).
struct Sample {
  double due_s = 0;
  double latency_ms = 0;
};

/// Successful requests finished in each whole second of a phase of
/// `seconds`, by finish time (due_s + latency).
inline std::vector<double> CompletionsPerSecond(const std::vector<Sample>& samples,
                                                double seconds) {
  std::vector<double> per(static_cast<size_t>(seconds), 0);
  for (const Sample& s : samples) {
    const double done_s = s.due_s + s.latency_ms / 1e3;
    if (std::isfinite(done_s) && done_s < static_cast<double>(per.size())) {
      per[static_cast<size_t>(done_s)] += 1;
    }
  }
  return per;
}

/// A 1-second window of a phase whose slowest request took more than
/// `factor` times the phase's median latency.
struct StallWindow {
  int offset_s = 0;
  double max_ms = 0;
  int requests = 0;
};

inline std::vector<StallWindow> FindStalls(const std::vector<Sample>& samples,
                                           double p50_ms, double factor) {
  std::vector<StallWindow> windows;
  for (const Sample& s : samples) {
    const int w = static_cast<int>(s.due_s);
    if (windows.size() <= static_cast<size_t>(w)) windows.resize(w + 1);
    windows[w].offset_s = w;
    windows[w].max_ms = std::max(windows[w].max_ms, s.latency_ms);
    ++windows[w].requests;
  }
  std::vector<StallWindow> stalls;
  for (const StallWindow& w : windows) {
    if (w.requests > 0 && w.max_ms > factor * p50_ms) stalls.push_back(w);
  }
  return stalls;
}

/// Peak resident set size of this process in MB (VmHWM), 0 if unreadable.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

}  // namespace hgserve

#endif  // HGSERVE_STATS_H_

// bench_hgserve: the repository's serving benchmark.
//
// Drives HistGraphServer with one of four traffic mixes (workloads.h) over a
// seeded random trace, checks sampled answers against a forward
// replay of the event log, and prints every metric by name with its unit.
// See README.md next to this file for the metrics, the workloads and the
// traced method.
//
//   bench_hgserve --workload serve_hot [--seed 1] [--seconds 25] [--traced]
//                 [--out run.json]
//
// Untraced runs report the end-to-end metrics. --traced runs one serial
// caller that alternates instrumented and plain queries and reports the
// per-layer split, timed from outside each layer's public functions.
//
// Exit codes: 0 ok, 1 setup or I/O failure, 2 bad arguments, 3 an answer
// differed from the replay, 4 the instrument's self-check failed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codec/delta_codec.h"
#include "codec/event_codec.h"
#include "exec/prefetcher.h"
#include "graph/delta.h"
#include "kvstore/compression.h"
#include "kvstore/kv_store.h"
#include "obs/metrics.h"
#include "server/hist_graph_server.h"
#include "stats.h"
#include "timed_kv_store.h"
#include "workload/generators.h"
#include "workloads.h"

namespace hgserve {
namespace {

using Clock = std::chrono::steady_clock;
using hgdb::Event;
using hgdb::HistGraphServer;
using hgdb::Status;
using hgdb::Timestamp;

// The live stream is 30 s of serve_ingest's writer, so it outlasts a run.
constexpr size_t kBulkEvents = 160000;
constexpr size_t kLiveEvents = 60000;
constexpr size_t kBulkBatch = 2048;
// setup_s is the median of this many complete set-ups; the last one serves.
constexpr int kSetupRuns = 3;
constexpr int kWarmupQueries = 48;
// Live stream of serve_ingest: 2000 events/s in 64-event batches, with a
// Finalize after every 32nd batch.
constexpr size_t kLiveBatch = 64;
constexpr double kLiveEventsPerSec = 2000;
constexpr uint64_t kFinalizeEvery = 32;
constexpr auto kWriterPoll = std::chrono::microseconds(100);
constexpr double kCapacityShare = 0.25;  // Of --seconds; the rest is the latency phase.
constexpr double kStallFactor = 5;
constexpr double kFailedLatencyMs = 1e9;  // How a +inf percentile is written out.

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool traced = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      a->traced = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--out") {
      a->out = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 2;
}

// -- Data ----------------------------------------------------------------------

/// The seeded event log: a bulk-loaded prefix and the live stream.
struct History {
  std::vector<Event> log;
  size_t bulk = 0;
  Timestamp lo = 0;       ///< First event time.
  Timestamp bulk_hi = 0;  ///< Last bulk-loaded event time.
};

History MakeHistory(uint64_t seed) {
  hgdb::RandomTraceOptions o;
  o.num_events = kBulkEvents + kLiveEvents;
  o.seed = StreamSeed(seed, Stream::kTrace);
  History h;
  h.log = hgdb::GenerateRandomTrace(o).events;
  // Split on a time boundary so no equal-time run straddles the two parts.
  h.bulk = kBulkEvents;
  while (h.bulk < h.log.size() && h.log[h.bulk].time == h.log[h.bulk - 1].time) ++h.bulk;
  h.lo = h.log.front().time;
  h.bulk_hi = h.log[h.bulk - 1].time;
  return h;
}

// -- Set-up --------------------------------------------------------------------

/// One served database. Members are destroyed bottom-up: the server before
/// the stores it reads.
struct Served {
  std::unique_ptr<hgdb::KVStore> mem;
  std::unique_ptr<TimedKVStore> timed;  // Traced runs only.
  std::unique_ptr<HistGraphServer> server;

  const hgdb::DeltaGraph& index() const { return server->manager().index(); }
  void Reset() {
    server.reset();
    timed.reset();
    mem.reset();
  }
};

/// Set-up timings, and the write-path spans of a traced bulk load.
struct LoadStats {
  double load_s = 0;    ///< Create excluded: bulk load through Finalize + Flush.
  double warmup_s = 0;
  std::vector<double> append_us;  ///< Per batch: Append + Flush.
  double finalize_us = 0;         ///< Finalize + Flush.
  uint64_t write_bytes = 0;       ///< Value bytes handed to the store.
  int64_t write_ns = 0;           ///< Time inside store writes.
  size_t events = 0;
};

Status Load(const History& h, bool traced, Served* s, LoadStats* ls) {
  for (size_t i = 0; i < h.bulk; i += kBulkBatch) {
    const size_t n = std::min(kBulkBatch, h.bulk - i);
    std::vector<Event> batch(h.log.begin() + i, h.log.begin() + i + n);
    const int64_t t0 = NowNs();
    Status st = s->server->Append(std::move(batch));
    if (!traced) {
      if (!st.ok()) return st;
      continue;
    }
    if (st.ok()) st = s->server->Flush();
    ls->append_us.push_back(Us(NowNs() - t0));
    if (!st.ok()) return st;
  }
  const int64_t t0 = NowNs();
  Status st = s->server->Finalize();
  if (st.ok()) st = s->server->Flush();
  ls->finalize_us = Us(NowNs() - t0);
  ls->events = h.bulk;
  return st;
}

/// Closed loop from as many callers as the capacity phase uses, so each
/// caller thread's allocator state is warm before anything is timed.
Status Warmup(const WorkloadSpec& spec, const History& h, uint64_t seed, int callers,
              HistGraphServer* server) {
  std::vector<Status> status(callers);
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      const uint64_t stream = StreamSeed(seed, Stream::kWarmup, c);
      for (int i = 0; i < kWarmupQueries / callers && status[c].ok(); ++i) {
        auto r = server->Retrieve(QueryTimes(spec, stream, i, h.lo, h.bulk_hi));
        if (!r.ok()) status[c] = r.status();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Create -> bulk load -> Finalize -> Flush -> warmup on a fresh store with
/// the simulated 2012-era disk (500 us per read round-trip + 50 MB/s). No
/// warmup when `warmup_callers` is 0.
Status Setup(const WorkloadSpec& spec, const History& h, uint64_t seed, bool traced,
             int warmup_callers, Served* s, LoadStats* ls) {
  hgdb::KVStoreOptions kopts;
  kopts.read_latency_us = 500;
  kopts.read_throughput_mbps = 50;
  s->mem = hgdb::NewMemKVStore(kopts);
  hgdb::KVStore* kv = s->mem.get();
  if (traced) {
    s->timed = std::make_unique<TimedKVStore>(kv);
    s->timed->SetRecording(true);
    kv = s->timed.get();
  }
  hgdb::HistGraphServerOptions options;
  options.max_concurrent_queries = 256;
  auto created = HistGraphServer::Create(kv, options);
  if (!created.ok()) return created.status();
  s->server = std::move(created).value();
  const int64_t t0 = NowNs();
  const Status st = Load(h, traced, s, ls);
  ls->load_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (traced) {
    s->timed->SetRecording(false);
    for (const TimedKVStore::Op& op : s->timed->Drain()) {
      if (op.is_read()) continue;
      ls->write_bytes += op.bytes;
      ls->write_ns += op.end_ns - op.start_ns;
    }
  }
  if (!st.ok() || warmup_callers == 0) return st;
  const int64_t t1 = NowNs();
  const Status warm = Warmup(spec, h, seed, warmup_callers, s->server.get());
  ls->warmup_s = static_cast<double>(NowNs() - t1) / 1e9;
  return warm;
}

// -- Correctness ---------------------------------------------------------------

/// Answers kept for the replay check: request `index` of a phase is kept
/// when it is a multiple of the stride, up to `cap` answers. Kept answers
/// stay resident until the check, so they count in peak_rss_mb; the caps
/// are small and fixed.
class Keeper {
 public:
  Keeper(uint64_t stride, size_t cap) : stride_(std::max<uint64_t>(stride, 1)), cap_(cap) {}

  void Offer(uint64_t index, const std::vector<Timestamp>& times,
             HistGraphServer::QueryResult* r) {
    if (index % stride_ != 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (kept_.size() >= cap_) return;
    const size_t i = (index / stride_) % times.size();
    kept_.push_back(Kept{times[i], r->event_count, std::move(r->snapshots[i])});
  }

  struct Kept {
    Timestamp t;
    size_t event_count;
    hgdb::Snapshot snapshot;
  };
  std::vector<Kept> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(kept_);
  }

 private:
  const uint64_t stride_;
  const size_t cap_;
  std::mutex mu_;
  std::vector<Kept> kept_;  // Guarded by mu_.
};

/// Compares every kept answer with one forward replay of the log: the answer
/// for time t at a frontier of n events equals the first min(n, #events with
/// time <= t) events applied in order.
bool CheckAgainstReplay(const History& h, std::vector<Keeper::Kept> kept, std::string* err) {
  std::vector<std::pair<size_t, size_t>> order;  // (prefix length, kept index)
  for (size_t i = 0; i < kept.size(); ++i) {
    const auto past = std::upper_bound(
        h.log.begin(), h.log.end(), kept[i].t,
        [](Timestamp t, const Event& e) { return t < e.time; });
    order.emplace_back(std::min(kept[i].event_count,
                                static_cast<size_t>(past - h.log.begin())),
                       i);
  }
  std::sort(order.begin(), order.end());
  hgdb::Snapshot replay;
  size_t applied = 0;
  for (const auto& [prefix, i] : order) {
    for (; applied < prefix; ++applied) {
      const Status s = replay.Apply(h.log[applied], /*forward=*/true);
      if (!s.ok()) {
        *err = "replay failed at event " + std::to_string(applied) + ": " + s.ToString();
        return false;
      }
    }
    if (!kept[i].snapshot.Equals(replay)) {
      *err = "answer for t=" + std::to_string(kept[i].t) + " at event_count " +
             std::to_string(kept[i].event_count) + " differs from the replay of " +
             std::to_string(prefix) + " events";
      return false;
    }
  }
  return true;
}

// -- Traffic -------------------------------------------------------------------

/// What the callers of one run share.
struct Traffic {
  const WorkloadSpec& spec;
  const History& h;
  uint64_t seed;
  HistGraphServer* server;
  Clock::time_point writer_start{};  ///< serve_ingest: when the live stream began.

  /// Newest time a query may ask for at `at`: the end of the bulk-loaded
  /// history, or for serve_ingest the newest event the writer was due to
  /// have sent by then.
  Timestamp HiAt(Clock::time_point at) const {
    if (!spec.live_ingest || at < writer_start) return h.bulk_hi;
    const double gap_s = kLiveBatch / kLiveEventsPerSec;
    const auto due = static_cast<size_t>(std::chrono::duration<double>(at - writer_start).count() /
                                         gap_s) + 1;
    const size_t live = std::min(h.log.size() - h.bulk, due * kLiveBatch);
    return h.log[h.bulk + live - 1].time;
  }
};

struct PhaseOut {
  std::vector<Sample> samples;
  std::vector<double> late_ms;  ///< Open loop: how late each request was sent.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Sends request `index` and records its latency counted from `from`.
  void Send(const Traffic& tr, uint64_t index, const std::vector<Timestamp>& times,
            Clock::time_point from, double offset_s, Keeper* keeper) {
    auto r = tr.server->Retrieve(times);
    double latency = Ms(Clock::now() - from);
    ++attempted;
    if (r.ok()) {
      keeper->Offer(index, times, &r.value());
    } else {
      ++failed;
      latency = kInf;
    }
    samples.push_back(Sample{offset_s, latency});
  }

  void Absorb(PhaseOut&& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Runs `body(caller, &out)` on `callers` threads and merges their outputs.
template <typename Body>
PhaseOut RunCallers(int callers, const Body& body) {
  std::vector<PhaseOut> outs(callers);
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) threads.emplace_back([&, c] { body(c, &outs[c]); });
  for (auto& t : threads) t.join();
  PhaseOut all;
  for (auto& o : outs) all.Absorb(std::move(o));
  return all;
}

/// Closed loop: each caller sends its next request when the previous one
/// returns. Latency is taken from the send time.
PhaseOut RunClosed(const Traffic& tr, Stream stream, int callers, double seconds,
                   Keeper* keeper) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Secs(seconds);
  return RunCallers(callers, [&](int c, PhaseOut* out) {
    const uint64_t ss = StreamSeed(tr.seed, stream, c);
    for (uint64_t j = 0; Clock::now() < end; ++j) {
      const Clock::time_point sent = Clock::now();
      out->Send(tr, j, QueryTimes(tr.spec, ss, j, tr.h.lo, tr.HiAt(sent)), sent,
                std::chrono::duration<double>(sent - start).count(), keeper);
    }
  });
}

/// Open loop: requests are due on a Poisson schedule and `callers` threads
/// send each one at its due time, or as soon as one is free. Latency is
/// taken from the due time, so a stall also charges the requests queued
/// behind it.
PhaseOut RunOpen(const Traffic& tr, int callers, double seconds, Keeper* keeper) {
  const std::vector<double> due =
      PoissonSchedule(StreamSeed(tr.seed, Stream::kArrivals), tr.spec.open_qps, seconds);
  const uint64_t ss = StreamSeed(tr.seed, Stream::kLatency);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  return RunCallers(callers, [&](int, PhaseOut* out) {
    for (size_t i = next.fetch_add(1); i < due.size(); i = next.fetch_add(1)) {
      const Clock::time_point due_at = start + Secs(due[i]);
      std::this_thread::sleep_until(due_at);
      out->late_ms.push_back(Ms(Clock::now() - due_at));
      out->Send(tr, i, QueryTimes(tr.spec, ss, i, tr.h.lo, tr.HiAt(due_at)), due_at, due[i],
                keeper);
    }
  });
}

/// serve_ingest's writer: appends the live stream open loop, one batch per
/// slot, and while it waits for the next slot polls the published frontier
/// to time each batch from its due time to the first frontier covering it.
class LiveWriter {
 public:
  LiveWriter(const History& h, HistGraphServer* server) : h_(h), server_(server) {}

  LiveWriter(const LiveWriter&) = delete;
  LiveWriter& operator=(const LiveWriter&) = delete;
  ~LiveWriter() { Stop(); }

  void Start(Clock::time_point start) {
    thread_ = std::thread([this, start] { Loop(start); });
  }
  /// Batches due from `t` on count toward visibility.
  void MeasureFrom(Clock::time_point t) {
    measure_from_ns_.store(t.time_since_epoch().count(), std::memory_order_relaxed);
  }
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> visibility_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Pending {
    Clock::time_point due;
    size_t covers;  ///< Events a frontier must hold to include the batch.
  };

  void Loop(Clock::time_point start) {
    const auto gap = Secs(kLiveBatch / kLiveEventsPerSec);
    std::deque<Pending> pending;
    size_t pos = h_.bulk;
    uint64_t slot = 0, appended = 0;
    Clock::time_point drain_deadline{};
    for (;;) {
      const size_t visible = server_->manager().index().PinFrontier()->event_count;
      const Clock::time_point now = Clock::now();
      const Clock::duration::rep from = measure_from_ns_.load(std::memory_order_relaxed);
      while (!pending.empty() && pending.front().covers <= visible) {
        if (pending.front().due.time_since_epoch().count() >= from) {
          visibility_ms.push_back(Ms(now - pending.front().due));
        }
        pending.pop_front();
      }
      if (stop_.load(std::memory_order_relaxed)) {
        // Let batches already sent become visible, so a stall in progress
        // at the end of the phase still counts.
        if (drain_deadline == Clock::time_point{}) drain_deadline = now + std::chrono::seconds(5);
        if (pending.empty() || now >= drain_deadline) return;
        std::this_thread::sleep_for(kWriterPoll);
        continue;
      }
      const Clock::time_point due = start + slot * gap;
      if (pos >= h_.log.size() || now < due) {
        std::this_thread::sleep_for(
            pos >= h_.log.size() ? kWriterPoll : std::min<Clock::duration>(kWriterPoll, due - now));
        continue;
      }
      ++slot;
      const size_t n = std::min(kLiveBatch, h_.log.size() - pos);
      std::vector<Event> batch(h_.log.begin() + pos, h_.log.begin() + pos + n);
      ++attempted;
      if (!server_->Append(std::move(batch)).ok()) {
        ++failed;  // Retried in the next slot.
        continue;
      }
      pos += n;
      pending.push_back(Pending{due, pos});
      if (++appended % kFinalizeEvery == 0) {
        ++attempted;
        if (!server_->Finalize().ok()) ++failed;
      }
    }
  }

  const History& h_;
  HistGraphServer* server_;
  std::atomic<bool> stop_{false};
  std::atomic<Clock::duration::rep> measure_from_ns_{0};
  std::thread thread_;  // Last: joined before the members it uses go.
};

// -- Output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? kFailedLatencyMs : 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":" << Num(metrics[i].value)
        << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;      ///< Gated: end to end, or per layer when traced.
  std::vector<Metric> diagnostics;  ///< Reported, not gated.
  std::string stalls_json = "[]";
};

int Finish(const Args& args, const RunResult& r, int code) {
  PrintMetrics(args.traced ? "per-layer metrics:" : "end-to-end metrics:", r.metrics);
  PrintMetrics("diagnostics:", r.diagnostics);
  std::printf("attempted %" PRIu64 ", failed %" PRIu64 ", correct %s\n", r.attempted, r.failed,
              r.correct ? "yes" : "NO");
  if (!args.out.empty()) {
    std::ofstream f(args.out);
    f << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"seconds\":" << Num(args.seconds) << ",\"traced\":" << (args.traced ? "true" : "false")
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"correct\":" << (r.correct ? "true" : "false") << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"metrics\":" << MetricsJson(r.metrics)
      << ",\"diagnostics\":" << MetricsJson(r.diagnostics) << ",\"stall_windows\":" << r.stalls_json
      << "}\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 1;
    }
  }
  return code;
}

std::string StallsJson(const std::vector<StallWindow>& stalls) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < stalls.size(); ++i) {
    out << (i ? "," : "") << "{\"offset_s\":" << stalls[i].offset_s
        << ",\"max_ms\":" << Num(stalls[i].max_ms) << ",\"requests\":" << stalls[i].requests << "}";
  }
  out << "]";
  return out.str();
}

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
  return 1;
}

// -- Untraced run: end-to-end metrics -------------------------------------------

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  const History h = MakeHistory(args.seed);
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int capacity_callers = std::min(spec.capacity_callers, hw);
  const int latency_callers = std::min(spec.latency_callers, hw);

  std::vector<double> setup_s, load_s, warmup_s;
  Served served;
  for (int i = 0; i < kSetupRuns; ++i) {
    served.Reset();  // Release the previous set-up before the next one.
    LoadStats ls;
    const Clock::time_point t0 = Clock::now();
    const Status st = Setup(spec, h, args.seed, /*traced=*/false, capacity_callers, &served, &ls);
    if (!st.ok()) return Fail("setup", st);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    load_s.push_back(ls.load_s);
    warmup_s.push_back(ls.warmup_s);
  }

  const hgdb::DeltaStore& ds = served.index().delta_store();
  const size_t hits0 = ds.decoded_cache_hits(), misses0 = ds.decoded_cache_misses();
  Traffic tr{spec, h, args.seed, served.server.get()};
  const double capacity_s = std::max(1.0, std::round(kCapacityShare * args.seconds));
  const double latency_s = args.seconds - capacity_s;

  LiveWriter writer(h, served.server.get());
  if (spec.live_ingest) {
    tr.writer_start = Clock::now();
    writer.MeasureFrom(tr.writer_start + Secs(capacity_s));
    writer.Start(tr.writer_start);
  }
  Keeper capacity_keep(64, 8);
  const PhaseOut cap =
      RunClosed(tr, Stream::kCapacity, capacity_callers, capacity_s, &capacity_keep);
  if (spec.live_ingest) writer.MeasureFrom(Clock::now());
  PhaseOut lat;
  Keeper latency_keep(spec.open_qps > 0 ? static_cast<uint64_t>(spec.open_qps * latency_s / 16)
                                        : 32,
                      16);
  if (spec.open_qps > 0) {
    lat = RunOpen(tr, latency_callers, latency_s, &latency_keep);
  } else {
    lat = RunClosed(tr, Stream::kLatency, latency_callers, latency_s, &latency_keep);
  }
  writer.Stop();
  const Status flushed = served.server->Flush();
  if (!flushed.ok()) return Fail("final flush", flushed);
  const double peak_rss_mb = PeakRssMb();
  const size_t hits = ds.decoded_cache_hits() - hits0;
  const size_t misses = ds.decoded_cache_misses() - misses0;

  RunResult r;
  r.attempted = cap.attempted + lat.attempted + writer.attempted;
  r.failed = cap.failed + lat.failed + writer.failed;
  std::vector<double> lat_ms;
  for (const Sample& s : lat.samples) lat_ms.push_back(s.latency_ms);
  const double p50 = Quantile(&lat_ms, 0.50);
  const size_t events = served.index().PinFrontier()->event_count;
  r.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"read_p50_ms", p50, "ms"},
      {"read_p99_ms", Quantile(&lat_ms, 0.99), "ms"},
      {"store_bytes_per_event",
       static_cast<double>(served.mem->ValueBytes()) / static_cast<double>(events), "B/event"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  // Capacity and p90 spread 10-21% between runs on a shared 4-vCPU VM, too
  // wide to gate on; they are reported here.
  std::vector<double> late = lat.late_ms;
  r.diagnostics = {
      {"read_p90_ms", Quantile(&lat_ms, 0.90), "ms"},
      {"read_capacity_qps", Median(CompletionsPerSecond(cap.samples, capacity_s)), "q/s"},
      {"fail_frac", r.attempted ? static_cast<double>(r.failed) / r.attempted : 0, "fraction"},
      {"latency_phase_reads", static_cast<double>(lat.samples.size()), "count"},
      {"capacity_phase_reads", static_cast<double>(cap.samples.size()), "count"},
      {"generator_late_p50_ms", Quantile(&late, 0.50), "ms"},
      {"generator_late_p99_ms", Quantile(&late, 0.99), "ms"},
      {"lru_hit_ratio", hits + misses ? static_cast<double>(hits) / (hits + misses) : 0,
       "fraction"},
      {"events_indexed", static_cast<double>(events), "count"},
      {"skeleton_edges", static_cast<double>(served.index().skeleton().edge_count()), "count"},
  };
  r.diagnostics.push_back({"setup_load_s", Median(load_s), "s"});
  r.diagnostics.push_back({"setup_warmup_s", Median(warmup_s), "s"});
  if (spec.live_ingest) {
    std::vector<double> vis = writer.visibility_ms;
    r.diagnostics.push_back({"visibility_p50_ms", Quantile(&vis, 0.50), "ms"});
    r.diagnostics.push_back({"visibility_p99_ms", Quantile(&vis, 0.99), "ms"});
    r.diagnostics.push_back({"visibility_batches", static_cast<double>(vis.size()), "count"});
  }
  r.stalls_json = StallsJson(FindStalls(lat.samples, p50, kStallFactor));

  auto kept = capacity_keep.Take();
  auto more = latency_keep.Take();
  std::move(more.begin(), more.end(), std::back_inserter(kept));
  r.diagnostics.push_back({"answers_checked", static_cast<double>(kept.size()), "count"});
  std::string err;
  r.correct = CheckAgainstReplay(h, std::move(kept), &err);
  if (!r.correct) std::fprintf(stderr, "replay check: %s\n", err.c_str());
  return Finish(args, r, r.correct ? 0 : 3);
}

// -- Traced run: per-layer split -----------------------------------------------

/// One instrumented query, measured from outside the layers it crosses.
struct TracedQuery {
  double retrieve_us = 0;
  double covered_us = 0;  ///< Union of the query's KV read spans.
  bool planned = false;   ///< Shadow plan ran against the query's frontier.
  double plan_us = 0;
  double plan_steps = 0;
  double plan_fetches = 0;
  double est_cost = 0;
  double decode_us = 0;
  uint64_t decoded_bytes = 0;
  uint64_t reads_outside = 0;  ///< Read spans not inside the retrieve span.
  uint64_t read_calls = 0;
  uint64_t read_keys = 0;
  uint64_t read_bytes = 0;  ///< As stored (compressed), like the registry counts.
  uint64_t lru_hits = 0;
  uint64_t lru_misses = 0;
  uint64_t result_elements = 0;
};

/// Decodes every blob the query fetched, through the codec's public entry
/// points. Keys are `d/<delta id>/<component tag>`; whether a delta id holds
/// an interior delta or a leaf-eventlist comes from the frontier's skeleton.
Status ShadowDecode(const std::vector<std::pair<std::string, std::string>>& blobs,
                    const hgdb::Skeleton& skel, TracedQuery* q) {
  if (blobs.empty()) return Status::OK();
  std::unordered_map<hgdb::DeltaId, bool> is_eventlist;
  for (size_t e = 0; e < skel.edge_count(); ++e) {
    is_eventlist[skel.edge(static_cast<int32_t>(e)).delta_id] =
        skel.edge(static_cast<int32_t>(e)).is_eventlist;
  }
  for (const auto& [key, blob] : blobs) {
    const size_t slash = key.rfind('/');
    if (key.rfind("d/", 0) != 0 || slash != key.size() - 2) continue;
    const auto kind = is_eventlist.find(std::stoull(key.substr(2, slash - 2)));
    if (kind == is_eventlist.end()) continue;
    hgdb::ComponentMask mask = hgdb::kCompStruct;
    switch (key.back()) {
      case 'n': mask = hgdb::kCompNodeAttr; break;
      case 'e': mask = hgdb::kCompEdgeAttr; break;
      case 't': mask = hgdb::kCompTransient; break;
      default: break;
    }
    const int64_t t0 = NowNs();
    Status s;
    if (kind->second) {
      std::vector<hgdb::codec::SeqEvent> events;
      s = hgdb::codec::DecodeEventListComponent(blob, &events);
    } else {
      hgdb::Delta delta;
      s = hgdb::codec::DecodeDeltaComponent(mask, blob, &delta);
    }
    q->decode_us += Us(NowNs() - t0);
    if (!s.ok()) return s;
    q->decoded_bytes += blob.size();
  }
  return Status::OK();
}

uint64_t RegistryCount(const char* name) {
  return hgdb::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  const History h = MakeHistory(args.seed);
  Served served;
  LoadStats load;
  // No warmup: the traced queries start from a cold decoded cache, so the
  // cache fill is part of the split and no layer reads exactly zero.
  const Status st = Setup(spec, h, args.seed, /*traced=*/true, /*warmup_callers=*/0, &served,
                          &load);
  if (!st.ok()) return Fail("setup", st);
  // Registry counters on, so the instrument can be checked against them.
  hgdb::obs::SetMetricsEnabled(true);

  const hgdb::DeltaGraph& index = served.index();
  const hgdb::DeltaStore& ds = index.delta_store();
  TimedKVStore& kv = *served.timed;
  Traffic tr{spec, h, args.seed, served.server.get()};
  LiveWriter writer(h, served.server.get());
  if (spec.live_ingest) {
    tr.writer_start = Clock::now();
    writer.Start(tr.writer_start);
  }

  std::vector<TracedQuery> traced;
  std::vector<double> plain_us;
  uint64_t attempted = 0, failed = 0, registry_keys = 0, registry_bytes = 0;
  Keeper keep(16, 24);
  const uint64_t ss = StreamSeed(args.seed, Stream::kLatency);
  const Clock::time_point end = Clock::now() + Secs(args.seconds);
  Status shadow_error;
  for (uint64_t i = 0; Clock::now() < end; ++i) {
    const auto times = QueryTimes(spec, ss, i, h.lo, tr.HiAt(Clock::now()));
    ++attempted;
    if (i % 2 == 1) {  // Plain query: the same instruments, all off.
      const int64_t t0 = NowNs();
      auto r = served.server->Retrieve(times);
      const int64_t t1 = NowNs();
      if (!r.ok()) {
        ++failed;
        continue;
      }
      plain_us.push_back(Us(t1 - t0));
      continue;
    }
    const hgdb::FrontierPtr pinned = index.PinFrontier();
    const size_t hits0 = ds.decoded_cache_hits(), misses0 = ds.decoded_cache_misses();
    const uint64_t keys0 = RegistryCount("kvstore.keys_read");
    const uint64_t bytes0 = RegistryCount("kvstore.bytes_read");
    kv.SetRecording(true);
    const int64_t t0 = NowNs();
    auto r = served.server->Retrieve(times);
    const int64_t t1 = NowNs();
    kv.SetRecording(false);
    registry_keys += RegistryCount("kvstore.keys_read") - keys0;
    registry_bytes += RegistryCount("kvstore.bytes_read") - bytes0;
    TracedQuery q;
    q.lru_hits = ds.decoded_cache_hits() - hits0;
    q.lru_misses = ds.decoded_cache_misses() - misses0;
    std::vector<TimedKVStore::Op> ops = kv.Drain();
    if (!r.ok()) {
      ++failed;
      continue;
    }
    q.retrieve_us = Us(t1 - t0);
    std::vector<std::pair<int64_t, int64_t>> spans;
    std::vector<std::pair<std::string, std::string>> blobs;
    std::string stored;
    for (TimedKVStore::Op& op : ops) {
      if (!op.is_read()) continue;  // The live writer's puts.
      if (op.start_ns < t0 || op.end_ns > t1) ++q.reads_outside;
      spans.emplace_back(op.start_ns, op.end_ns);
      ++q.read_calls;
      q.read_keys += op.keys;
      for (auto& blob : op.blobs) {
        hgdb::CompressValue(blob.second, &stored);  // Deterministic: the stored size.
        q.read_bytes += stored.size();
        blobs.push_back(std::move(blob));
      }
    }
    q.covered_us = Us(CoveredNs(std::move(spans), t0, t1));
    for (const hgdb::Snapshot& s : r.value().snapshots) q.result_elements += s.ElementCount();

    // Shadow calls against the frontier the query pinned: the plan, its
    // fetch list, and a decode of what it fetched.
    const hgdb::FrontierPtr shadow =
        pinned->epoch == r.value().epoch ? pinned : index.PinFrontier();
    if (shadow->epoch == r.value().epoch) {
      const int64_t p0 = NowNs();
      auto plan = index.PlanForAt(shadow, times);
      const int64_t p1 = NowNs();
      if (plan.ok()) {
        q.planned = true;
        q.plan_us = Us(p1 - p0);
        q.plan_steps = static_cast<double>(plan.value().StepCount());
        q.plan_fetches = static_cast<double>(hgdb::CollectPlanFetches(plan.value()).size());
        q.est_cost = plan.value().estimated_cost;
      }
    }
    const Status decoded = ShadowDecode(blobs, *shadow->skeleton, &q);
    if (!decoded.ok() && shadow_error.ok()) shadow_error = decoded;
    keep.Offer(i / 2, times, &r.value());
    traced.push_back(q);
  }
  writer.Stop();
  const Status flushed = served.server->Flush();
  if (!flushed.ok()) return Fail("final flush", flushed);

  // Aggregate: per-query means, so the layers add up to the retrieve time.
  RunResult r;
  r.attempted = attempted + writer.attempted;
  r.failed = failed + writer.failed;
  double sum_retrieve = 0, sum_covered = 0, sum_plan = 0, sum_decode = 0, sum_apply = 0;
  double sum_steps = 0, sum_fetches = 0, sum_est = 0;
  uint64_t calls = 0, keys = 0, bytes = 0, decoded_bytes = 0, hits = 0, misses = 0;
  uint64_t elements = 0, planned = 0, overattributed = 0, reads_outside = 0;
  std::vector<double> traced_us;
  for (const TracedQuery& q : traced) {
    // compute_self is retrieve minus the union of the query's read spans.
    const double self = q.retrieve_us - q.covered_us;
    reads_outside += q.reads_outside;
    traced_us.push_back(q.retrieve_us);
    sum_retrieve += q.retrieve_us;
    sum_covered += q.covered_us;
    sum_decode += q.decode_us;
    calls += q.read_calls;
    keys += q.read_keys;
    bytes += q.read_bytes;
    decoded_bytes += q.decoded_bytes;
    hits += q.lru_hits;
    misses += q.lru_misses;
    elements += q.result_elements;
    if (!q.planned) continue;
    ++planned;
    sum_plan += q.plan_us;
    sum_apply += self - q.plan_us - q.decode_us;
    sum_steps += q.plan_steps;
    sum_fetches += q.plan_fetches;
    sum_est += q.est_cost;
    if (q.plan_us + q.decode_us > self) ++overattributed;
  }
  const double n = std::max<double>(1, traced.size());
  const double np = std::max<double>(1, planned);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  r.metrics = {
      {"server.retrieve_us", sum_retrieve / n, "us"},
      {"server.retrieve_p50_us", Median(traced_us), "us"},
      {"kvstore.read_calls", calls / n, "count"},
      {"kvstore.read_keys", keys / n, "count"},
      {"kvstore.read_bytes", bytes / n, "B"},
      {"kvstore.keys_per_call", ratio(keys, calls), "count"},
      {"kvstore.covered_us", sum_covered / n, "us"},
      {"deltagraph.lru_hit_ratio", ratio(hits, hits + misses), "fraction"},
      {"deltagraph.compute_self_us", (sum_retrieve - sum_covered) / n, "us"},
      {"deltagraph.plan_us", sum_plan / np, "us"},
      {"deltagraph.plan_steps", sum_steps / np, "count"},
      {"deltagraph.plan_fetches", sum_fetches / np, "count"},
      {"codec.decode_us", sum_decode / n, "us"},
      {"codec.decode_mb_per_s", ratio(decoded_bytes, sum_decode), "MB/s"},
      {"deltagraph.apply_by_diff_us", sum_apply / np, "us"},
      {"kvstore.bytes_per_element", ratio(bytes, elements), "B"},
      {"server.append_us", Mean(load.append_us), "us"},
      {"server.finalize_us", load.finalize_us, "us"},
      {"kvstore.write_bytes_per_event", ratio(load.write_bytes, load.events), "B/event"},
      {"kvstore.write_us_per_event", ratio(Us(load.write_ns), load.events), "us/event"},
      {"bench.trace_overhead_pct", (ratio(sum_retrieve / n, Mean(plain_us)) - 1) * 100, "%"},
  };
  r.diagnostics = {
      // The paper's cost model: planned bytes against bytes actually read.
      {"deltagraph.plan_est_ratio", ratio(sum_est, bytes), "ratio"},
      {"graph.result_elements", elements / n, "count"},
      {"bench.traced_queries", static_cast<double>(traced.size()), "count"},
      {"bench.plain_queries", static_cast<double>(plain_us.size()), "count"},
      {"bench.planned_queries", static_cast<double>(planned), "count"},
      {"bench.overattributed_queries", static_cast<double>(overattributed), "count"},
      {"bench.registry_keys_read", static_cast<double>(registry_keys), "count"},
      {"bench.registry_bytes_read", static_cast<double>(registry_bytes), "B"},
  };

  int code = 0;
  if (keys != registry_keys || bytes != registry_bytes || reads_outside != 0 ||
      !shadow_error.ok()) {
    std::fprintf(stderr,
                 "instrument self-check failed: keys %" PRIu64 " vs registry %" PRIu64
                 ", bytes %" PRIu64 " vs registry %" PRIu64 ", %" PRIu64
                 " reads outside their query's span, shadow decode: %s\n",
                 keys, registry_keys, bytes, registry_bytes, reads_outside,
                 shadow_error.ToString().c_str());
    code = 4;
  }
  auto kept = keep.Take();
  r.diagnostics.push_back({"answers_checked", static_cast<double>(kept.size()), "count"});
  std::string err;
  r.correct = CheckAgainstReplay(h, std::move(kept), &err) && code == 0;
  if (!err.empty()) {
    std::fprintf(stderr, "replay check: %s\n", err.c_str());
    code = 3;
  }
  return Finish(args, r, code);
}

}  // namespace
}  // namespace hgserve

int main(int argc, char** argv) {
  hgserve::Args args;
  if (!hgserve::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_hgserve --workload <name> [--seed N] [--seconds S >= 2] "
                 "[--traced] [--out FILE]\n");
    return 2;
  }
  const hgserve::WorkloadSpec* spec = hgserve::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s; one of:", args.workload.c_str());
    for (const auto& w : hgserve::kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return args.traced ? hgserve::RunTraced(args, *spec) : hgserve::RunEndToEnd(args, *spec);
}

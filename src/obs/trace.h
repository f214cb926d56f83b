#ifndef HISTGRAPH_OBS_TRACE_H_
#define HISTGRAPH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace hgdb {
namespace obs {

/// \brief Per-query trace: a tree of timed spans plus query-wide tallies,
/// threaded explicitly through the retrieval path (session → planner →
/// prefetcher → fetch cache → delta store → kvstore/io → executor → merge).
///
/// The trace is passed as a `TraceCtx` value — a {trace, current-span} pair —
/// rather than a thread_local, because one query's work hops across IoPool
/// and TaskPool threads; whoever spawns work captures its ctx into the
/// closure. A null `TraceCtx.trace` means "not tracing" and every recording
/// call is a no-op, so instrumented code never branches on a global.
///
/// Span mutations take a mutex (spans are created at plan/drain/execute
/// granularity — dozens per query, not millions); the high-frequency tallies
/// (fetch counts, LRU hits, bytes) are relaxed atomics updated lock-free.
///
/// Tracing is enabled per-session: `RetrievalSession`, over one shard or many
/// (and the one-shot DeltaGraph::GetSnapshots entry points)
/// allocate a QueryTrace when `TraceEnabled()` — set by HISTGRAPH_TRACE=1 or
/// programmatically. When HISTGRAPH_TRACE is set the finished trace is also
/// dumped as JSON to stderr (or to the file named by HISTGRAPH_TRACE_OUT);
/// with programmatic enable the caller reads `session->LastTrace()` instead.

class QueryTrace;

using SpanId = int32_t;
inline constexpr SpanId kNoSpan = -1;

/// True when sessions should allocate traces. Initialized from the
/// HISTGRAPH_TRACE environment variable; overridable at runtime.
bool TraceEnabled();
void SetTraceEnabled(bool on);

/// The unit of trace propagation: which trace (if any) and which span new
/// child work should attach under. Copy freely; null trace = not tracing.
struct TraceCtx {
  QueryTrace* trace = nullptr;
  SpanId span = kNoSpan;

  explicit operator bool() const { return trace != nullptr; }
};

class QueryTrace {
 public:
  using AttrValue = std::variant<int64_t, double, std::string>;

  QueryTrace();

  /// Nanoseconds since this trace was created (steady clock).
  int64_t NowNs() const;

  /// Opens a span under `parent` (kNoSpan = root level). Thread-safe.
  SpanId BeginSpan(const std::string& name, SpanId parent);
  /// Closes the span at the current time. Idempotent.
  void EndSpan(SpanId id);
  /// Attaches/overwrites a named attribute on an open or closed span.
  void SetAttr(SpanId id, const std::string& key, AttrValue v);
  /// Attaches several attributes in one lock acquisition — the per-fetch
  /// hot path books its whole read ledger this way. Keys are appended
  /// without overwrite checks, so callers pass each key at most once and
  /// only on spans they just created.
  void SetAttrs(SpanId id,
                std::initializer_list<std::pair<const char*, AttrValue>> kvs);

  /// Closes any still-open spans and freezes end_ns for the whole trace.
  void Finish();

  /// The whole trace as one JSON object: {"query": ..., "summary": {...},
  /// "spans": [{id, parent, name, start_us, dur_us, attrs...}]}.
  std::string ToJSON() const;

  void set_query_label(std::string label) { query_label_ = std::move(label); }
  const std::string& query_label() const { return query_label_; }

  /// Total trace duration so far — frozen at Finish().
  int64_t TotalNs() const;

  // -- Query identity (plain fields; written by the owning thread before
  // Finish, read by the flight recorder after). -----------------------------

  /// The pinned frontier's epoch / visible-event count (sessions record the
  /// newest pinned frontier; a partitioned query records the max shard epoch
  /// and the summed per-shard event count).
  void set_epoch(uint64_t e) { epoch_ = e; }
  uint64_t epoch() const { return epoch_; }
  void set_event_count(uint64_t n) { event_count_ = n; }
  uint64_t event_count() const { return event_count_; }

  /// Cross-shard execution skew (busy_max * shards / busy_sum; 0 = n/a).
  void set_shard_skew(double s) { shard_skew_ = s; }
  double shard_skew() const { return shard_skew_; }

  /// A terminal event the query hit: "" (none), "deadline", "admission",
  /// "slow". Any non-empty event routes the finished trace into the flight
  /// recorder's slow-query log regardless of latency.
  void set_event(std::string e) { event_ = std::move(e); }
  const std::string& event() const { return event_; }

  // -- Query-wide tallies (relaxed atomics; summarized in ToJSON). ---------
  // A "fetch" is one payload (delta or event list) requested through the
  // fetch cache or directly from the DeltaStore during this query.
  std::atomic<uint64_t> fetches_total{0};      ///< All payload fetches.
  std::atomic<uint64_t> fetches_prefetched{0}; ///< Served by prefetch (incl. waits on in-flight prefetch).
  std::atomic<uint64_t> fetches_demand{0};     ///< Fetched on the demand path.
  std::atomic<uint64_t> prefetch_issued{0};    ///< Prefetch requests enqueued.
  std::atomic<uint64_t> lru_hits{0};           ///< Decoded-LRU hits.
  std::atomic<uint64_t> lru_misses{0};         ///< Decoded-LRU misses (hit the store).
  std::atomic<uint64_t> kv_reads{0};           ///< Keys read from the KVStore.
  std::atomic<uint64_t> bytes_read{0};         ///< Blob bytes fetched from the store.
  std::atomic<uint64_t> bytes_decoded{0};      ///< Blob bytes decoded into objects.

  /// fetches_prefetched / fetches_total (1.0 when there were no fetches).
  double PrefetchCoverage() const;

  struct Span {
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 = still open
    std::vector<std::pair<std::string, AttrValue>> attrs;
  };

  /// Snapshot of all spans (for tests and the trace viewer).
  std::vector<Span> Spans() const;

 private:
  std::chrono::steady_clock::time_point start_;
  std::string query_label_;
  uint64_t epoch_ = 0;
  uint64_t event_count_ = 0;
  double shard_skew_ = 0;
  std::string event_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t finished_ns_ = -1;
};

/// One span as a JSON object ({"id":..,"parent":..,"name":..,"start_us":..,
/// "dur_us":..,<attrs>}), exactly as QueryTrace::ToJSON renders it. Shared
/// with the flight recorder, which serializes retained span trees lazily.
std::string SpanToJSON(const QueryTrace::Span& span);

/// RAII span: opens on construction (when ctx is tracing), closes on
/// destruction. `ctx()` yields the context for child work.
class ScopedSpan {
 public:
  ScopedSpan(TraceCtx parent, const std::string& name) : trace_(parent.trace) {
    if (trace_) id_ = trace_->BeginSpan(name, parent.span);
  }
  ~ScopedSpan() {
    if (trace_) trace_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceCtx ctx() const { return TraceCtx{trace_, id_}; }
  void SetAttr(const std::string& key, QueryTrace::AttrValue v) {
    if (trace_) trace_->SetAttr(id_, key, std::move(v));
  }
  void SetAttrs(
      std::initializer_list<std::pair<const char*, QueryTrace::AttrValue>> kvs) {
    if (trace_) trace_->SetAttrs(id_, kvs);
  }

 private:
  QueryTrace* trace_;
  SpanId id_ = kNoSpan;
};

/// Finishes `trace`, hands it to the flight recorder (recent ring + slow
/// log; see flight_recorder.h) and, when the HISTGRAPH_TRACE env var is set,
/// dumps its JSON to stderr or to HISTGRAPH_TRACE_OUT (append mode, one JSON
/// object per line — emission is serialized under a process-wide mutex so
/// concurrent sessions never interleave half-lines). Callers holding the
/// trace for LastTrace() still call this — the dump is what's conditional,
/// not the finish or the recording.
void FinishAndMaybeDump(QueryTrace* trace);

}  // namespace obs
}  // namespace hgdb

#endif  // HISTGRAPH_OBS_TRACE_H_

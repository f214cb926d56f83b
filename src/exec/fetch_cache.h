#ifndef HISTGRAPH_EXEC_FETCH_CACHE_H_
#define HISTGRAPH_EXEC_FETCH_CACHE_H_

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/result.h"
#include "common/types.h"
#include "deltagraph/skeleton.h"
#include "graph/delta.h"
#include "obs/trace.h"
#include "temporal/event_list.h"

namespace hgdb {

class DeltaGraph;
class TaskPool;

/// \brief A thread-safe pin of decoded deltas/eventlists for one plan
/// execution (or one RetrievalSession spanning several), with future-based
/// entries so an asynchronous prefetcher can fill it ahead of the workers.
///
/// The plan executor needs the pin shared across worker threads, a session
/// wants it shared across *plans*, and the prefetch pipeline wants to start
/// fetches before any worker needs them. Entries are
/// keyed by (skeleton edge, components) and live for the cache's lifetime —
/// unlike the DeltaStore's LRU underneath, nothing is evicted, so a pinned
/// pointer stays valid without holding the lock.
///
/// Concurrency: every slot is claimed exactly once (first-claimer-wins under
/// the map lock) and holds a shared_future. The claimer — a prefetch job on
/// an I/O thread, or whichever worker got there first — fetches and decodes
/// *outside* the lock and fulfils the future; everyone else blocks on the
/// future, so a fetch is performed at most once per cache no matter how many
/// threads race on the same edge. Claimers run straight-line fetch/decode
/// code and never wait on other tasks. With a decode pool attached
/// (SetDecodePool) a slot's fulfilment may instead sit in the compute pool's
/// queue, so a waiter that is itself a pool worker *helps* — runs queued
/// tasks between readiness checks — rather than parking behind work only it
/// can start; that preserves the no-deadlock invariant of
/// src/exec/README.md.
class ExecFetchCache {
 public:
  /// Destruction waits for in-flight prefetch jobs (see BeginPrefetch), so
  /// owners may die with prefetches still queued on an IoPool.
  ~ExecFetchCache() { WaitPrefetchesIdle(); }

  /// Returns the decoded delta for skeleton edge `e`, fetching it if no
  /// prefetch ever claimed the slot, or blocking on the in-flight fetch if
  /// one did. The edge is passed by value-semantics reference (resolved by
  /// the caller against *its* pinned frontier's skeleton) so the cache never
  /// reads the live skeleton — payloads are immutable and never deleted, so
  /// an entry fetched under one epoch is valid under every later one.
  Result<std::shared_ptr<const Delta>> GetDelta(const DeltaGraph& dg,
                                                const SkeletonEdge& e,
                                                unsigned components);
  Result<std::shared_ptr<const EventList>> GetEventList(const DeltaGraph& dg,
                                                        const SkeletonEdge& e,
                                                        unsigned components);

  /// Queues one fetch for I/O shard `shard`'s next drain. The scheduler pairs
  /// each enqueue with one BeginPrefetch and one DrainPrefetchBatch job
  /// submitted to that IoPool shard. The edge's delta id and sizes are
  /// captured here, so the drain job never touches a (possibly newer) live
  /// skeleton.
  void EnqueuePrefetch(const DeltaGraph& dg, size_t shard, const SkeletonEdge& e,
                       bool is_eventlist, unsigned components);

  /// Drains everything queued for `shard` into one batched DeltaStore read —
  /// one storage round-trip per wakeup, however many deltas were queued while
  /// the shard was busy. Runs on an IoPool shard thread; a wakeup whose queue
  /// was already taken by an earlier drain is a no-op. Slots another claimer
  /// already owns are skipped (single-flight; the owner fulfils them). With a
  /// decode pool attached, the I/O thread only fetches bytes
  /// (DeltaStore::FetchBatch) and schedules one decode job per fetched miss
  /// on the compute pool, so a seek-bound shard never serializes the
  /// CPU-bound decode of many deltas.
  void DrainPrefetchBatch(size_t shard);

  /// Attaches the compute pool that drains should offload decode to; nullptr
  /// (default) or a pool of parallelism < 2 keeps decode inline on the I/O
  /// thread. Set before any prefetch is scheduled (not thread-safe against
  /// concurrent drains).
  void SetDecodePool(TaskPool* pool) { decode_pool_ = pool; }

  /// Registers one scheduled drain job, keeping this cache (and the
  /// DeltaGraph the queued fetch references) pinned until the job runs.
  /// Called by the scheduler *before* submitting the job to an IoPool.
  void BeginPrefetch();

  /// Blocks until every registered prefetch has run.
  void WaitPrefetchesIdle();

  /// Attaches the query trace that fetches through this cache attribute to
  /// (drain spans, demand-fetch spans, hit/byte tallies). The owning session
  /// sets it before scheduling prefetches or executors; the trace must
  /// outlive the cache. Null trace (the default) records nothing.
  void SetTrace(obs::TraceCtx ctx) {
    trace_span_.store(ctx.span, std::memory_order_relaxed);
    trace_.store(ctx.trace, std::memory_order_release);
  }
  obs::TraceCtx trace() const {
    obs::TraceCtx ctx;
    ctx.trace = trace_.load(std::memory_order_acquire);
    ctx.span = trace_span_.load(std::memory_order_relaxed);
    return ctx;
  }

 private:
  template <typename T>
  using FetchFuture = std::shared_future<Result<std::shared_ptr<const T>>>;

  // Components fit in 4 bits (kCompAll == 0xF).
  static uint64_t Key(int32_t edge, unsigned components) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(edge)) << 4) |
           (components & 0xF);
  }

  /// Claims the slot for `key` (returning an unset promise-backed future and
  /// claimed=true) or returns the existing future (claimed=false).
  template <typename T>
  FetchFuture<T> ClaimOrGet(std::unordered_map<uint64_t, FetchFuture<T>>* map,
                            uint64_t key, std::promise<Result<std::shared_ptr<const T>>>* promise,
                            bool* claimed);

  /// Drops a slot whose fetch failed so a later caller can retry (current
  /// waiters still observe the error through their future).
  template <typename T>
  void ReleaseFailedSlot(std::unordered_map<uint64_t, FetchFuture<T>>* map,
                         uint64_t key);

  /// One copy of the claim/fetch/fulfil/release-on-failure protocol (see the
  /// class comment); `fetch` runs outside any lock when the claim is won.
  template <typename T, typename FetchFn>
  Result<std::shared_ptr<const T>> FetchSingleFlight(
      std::unordered_map<uint64_t, FetchFuture<T>>* map, uint64_t key,
      bool wait_if_claimed, FetchFn fetch);

  std::shared_mutex mu_;
  std::unordered_map<uint64_t, FetchFuture<Delta>> deltas_;
  std::unordered_map<uint64_t, FetchFuture<EventList>> events_;

  /// One queued (not yet drained) prefetch. The DeltaGraph pointer rides
  /// along because a cache outlives plans and could in principle serve more
  /// than one graph; the drain groups reads per graph.
  struct QueuedPrefetch {
    const DeltaGraph* dg;
    int32_t edge;        ///< Skeleton edge id (cache key only).
    DeltaId delta_id;    ///< Storage id, captured at enqueue time.
    ComponentSizes sizes;
    bool is_eventlist;
    unsigned components;
  };
  std::mutex batch_mu_;
  std::unordered_map<size_t, std::vector<QueuedPrefetch>> batch_queues_;

  std::mutex prefetch_mu_;
  std::condition_variable prefetch_cv_;
  size_t prefetches_in_flight_ = 0;

  TaskPool* decode_pool_ = nullptr;  ///< Optional decode-offload target.

  // Trace attachment (see SetTrace). Two atomics rather than one struct so
  // drain threads can read it lock-free; span is written first and the trace
  // pointer released last, so a reader never sees the new trace with a stale
  // span id.
  std::atomic<obs::QueryTrace*> trace_{nullptr};
  std::atomic<obs::SpanId> trace_span_{obs::kNoSpan};
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_FETCH_CACHE_H_

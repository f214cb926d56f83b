#include "server/hist_graph_server.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace hgdb {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendQuoted(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

obs::Histogram& QueryLatency() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("server.query_us");
  return *h;
}
obs::Counter& QueriesServed() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.queries");
  return *c;
}
obs::Counter& QueriesShed() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.rejected");
  return *c;
}
obs::Counter& QueriesTimedOut() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.deadline_exceeded");
  return *c;
}
obs::Counter& MatTicks() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.mat_ticks");
  return *c;
}
obs::Counter& MatMaterializations() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.mat_materializations");
  return *c;
}
obs::Counter& MatEvictions() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.mat_evictions");
  return *c;
}
obs::Gauge& MatResidentBytes() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("server.mat_resident_bytes");
  return *g;
}
obs::Gauge& MatResidentNodes() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("server.mat_resident_nodes");
  return *g;
}
obs::Gauge& MatBudgetBytes() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("server.mat_budget_bytes");
  return *g;
}
obs::Histogram& IngestDwell() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("server.ingest_dwell_us");
  return *h;
}
obs::Histogram& EpochPublish() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("server.epoch_publish_us");
  return *h;
}
obs::Gauge& IngestQueueDepth() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("server.ingest_queue_depth");
  return *g;
}
obs::Gauge& IngestLag() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("server.ingest_lag_us");
  return *g;
}
obs::Counter& WatchdogStalls() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.watchdog_stalls");
  return *c;
}
obs::Counter& SlowQueries() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.slow_queries");
  return *c;
}

}  // namespace

Result<std::unique_ptr<HistGraphServer>> HistGraphServer::Create(
    KVStore* store, HistGraphServerOptions options) {
  auto gm = GraphManager::Create(store, options.manager);
  if (!gm.ok()) return gm.status();
  return std::unique_ptr<HistGraphServer>(
      new HistGraphServer(std::move(gm).value(), std::move(options)));
}

Result<std::unique_ptr<HistGraphServer>> HistGraphServer::Open(
    KVStore* store, HistGraphServerOptions options) {
  auto gm = GraphManager::Open(store, options.manager);
  if (!gm.ok()) return gm.status();
  return std::unique_ptr<HistGraphServer>(
      new HistGraphServer(std::move(gm).value(), std::move(options)));
}

HistGraphServer::HistGraphServer(std::unique_ptr<GraphManager> manager,
                                 HistGraphServerOptions options)
    : options_(std::move(options)), manager_(std::move(manager)) {
  // The budget knob lives on the manager options (HISTGRAPH_MAT_BUDGET
  // overrides); the rest of the advisor tuning rides on options_.advisor.
  MaterializationAdvisorOptions aopts = options_.advisor;
  aopts.budget_bytes = options_.manager.materialization_budget_bytes;
  if (MaterializationAdvisor::ResolveBudgetBytes(aopts.budget_bytes) > 0) {
    advisor_ = std::make_unique<MaterializationAdvisor>(aopts);
    advisor_->Attach(&manager_->index());
    MatBudgetBytes().Set(static_cast<int64_t>(advisor_->budget_bytes()));
  }
  // Apply the observability options to the process-wide sampler and flight
  // recorder (last constructed server wins; -1 sampling keeps the current
  // configuration).
  if (options_.trace_sample_every_n >= 0) {
    obs::TraceSampler::Global().Configure(
        static_cast<uint32_t>(options_.trace_sample_every_n),
        std::max<int64_t>(options_.slow_query_us, 0),
        static_cast<uint32_t>(std::max(options_.trace_arm_budget, 0)));
  }
  obs::FlightRecorder::Global().Configure(options_.flight_recent_capacity,
                                          options_.flight_slow_capacity,
                                          std::max<int64_t>(options_.slow_query_us, 0));
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  if (options_.watchdog_budget_us > 0) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
  ingest_thread_ = std::thread([this] { IngestLoop(); });
}

HistGraphServer::~HistGraphServer() {
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    stopping_ = true;
  }
  ingest_cv_.notify_all();
  ingest_thread_.join();
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
}

// -- Ingest strand -------------------------------------------------------------

Status HistGraphServer::EnqueueIngest(IngestOp op) {
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (stopping_) return Status::Unavailable("server is shutting down");
    // Surface a poisoned strand immediately: once a batch failed to apply,
    // later batches would be applied against inconsistent state, so the
    // strand discards them and producers see the original error.
    if (!ingest_error_.ok()) return ingest_error_;
    if (ingest_queue_.size() >= options_.max_ingest_queue) {
      appends_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("ingest queue full");
    }
    op.seq = next_seq_++;
    op.enqueued_ns = SteadyNowNs();
    ingest_queue_.push_back(std::move(op));
    IngestQueueDepth().Set(static_cast<int64_t>(ingest_queue_.size()));
  }
  ingest_cv_.notify_one();
  return Status::OK();
}

Status HistGraphServer::Append(std::vector<Event> batch) {
  if (batch.empty()) return Status::OK();
  IngestOp op;
  op.batch = std::move(batch);
  return EnqueueIngest(std::move(op));
}

Status HistGraphServer::Finalize() {
  IngestOp op;
  op.finalize = true;
  return EnqueueIngest(std::move(op));
}

Status HistGraphServer::Flush() {
  std::unique_lock<std::mutex> lock(ingest_mu_);
  const uint64_t target = next_seq_ - 1;
  drained_cv_.wait(lock, [&] { return applied_seq_ >= target; });
  return ingest_error_;
}

void HistGraphServer::IngestLoop() {
  // Advisor ticks share the strand with appends: they run while idle and
  // between queued ops (never preempting one), so every skeleton /
  // materialized-map mutation on this thread serializes with appends by
  // construction and publishes through the usual frontier protocol.
  const bool periodic = advisor_ != nullptr && options_.advisor_tick_us > 0;
  const auto interval = std::chrono::microseconds(
      periodic ? options_.advisor_tick_us : 0);
  auto next_tick = std::chrono::steady_clock::now() + interval;
  auto tick_if_due = [&] {
    // Caller must NOT hold ingest_mu_.
    if (periodic && std::chrono::steady_clock::now() >= next_tick) {
      RunAdvisorTick();
      next_tick = std::chrono::steady_clock::now() + interval;
    }
  };

  std::unique_lock<std::mutex> lock(ingest_mu_);
  for (;;) {
    if (periodic) {
      ingest_cv_.wait_until(lock, next_tick,
                            [&] { return stopping_ || !ingest_queue_.empty(); });
    } else {
      ingest_cv_.wait(lock, [&] { return stopping_ || !ingest_queue_.empty(); });
    }
    if (ingest_queue_.empty()) {
      if (stopping_) return;  // Drained and told to stop.
      lock.unlock();
      tick_if_due();  // Idle wakeup: keep adapting with no traffic to drain.
      lock.lock();
      continue;
    }
    IngestOp op = std::move(ingest_queue_.front());
    ingest_queue_.pop_front();
    IngestQueueDepth().Set(static_cast<int64_t>(ingest_queue_.size()));
    const bool poisoned = !ingest_error_.ok();
    lock.unlock();

    // Publish the executing op to the watchdog: which op, since when, and
    // how long it already waited in the queue. The test delay hook counts as
    // execution time on purpose — it is how tests stall the strand.
    const int64_t op_start_ns = SteadyNowNs();
    op_enqueued_ns_.store(op.enqueued_ns, std::memory_order_relaxed);
    op_started_ns_.store(op_start_ns, std::memory_order_relaxed);
    op_active_seq_.store(op.seq, std::memory_order_relaxed);

    const int64_t delay = ingest_delay_us_.load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    Status s;
    bool published = false;
    if (!poisoned) {
      if (op.advise) {
        if (advisor_ != nullptr) RunAdvisorTick();
      } else if (op.finalize) {
        s = manager_->FinalizeIndex();
        if (s.ok()) finalizes_.fetch_add(1, std::memory_order_relaxed);
        published = s.ok();
      } else {
        s = manager_->ApplyEvents(op.batch);
        if (s.ok()) {
          batches_appended_.fetch_add(1, std::memory_order_relaxed);
          events_appended_.fetch_add(op.batch.size(), std::memory_order_relaxed);
        }
        published = s.ok();
      }
    }
    const int64_t op_end_ns = SteadyNowNs();
    op_active_seq_.store(0, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) {
      IngestDwell().Record(static_cast<uint64_t>((op_end_ns - op_start_ns) / 1000));
      if (published) {
        // Epoch-publish latency: submission (enqueue) to visible frontier.
        EpochPublish().Record(
            static_cast<uint64_t>((op_end_ns - op.enqueued_ns) / 1000));
      }
    }
    if (published) last_publish_ns_.store(op_end_ns, std::memory_order_relaxed);
    tick_if_due();  // Busy path: ticks interleave with a saturated queue too.

    lock.lock();
    if (!s.ok() && ingest_error_.ok()) ingest_error_ = s;
    applied_seq_ = op.seq;
    drained_cv_.notify_all();
  }
}

void HistGraphServer::WatchdogLoop() {
  // Observe-only: the watchdog flags a stuck ingest strand (an op executing
  // past the budget) once per op and keeps the lag/queue gauges fresh; it
  // never interrupts, skips, or kills anything — a stall is a diagnosis, not
  // a fault the watchdog can safely "fix" mid-mutation.
  const int64_t budget_ns = options_.watchdog_budget_us * 1000;
  const auto period = std::chrono::microseconds(
      std::max<int64_t>(options_.watchdog_budget_us / 4, 10000));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    if (watchdog_cv_.wait_for(lock, period, [&] { return watchdog_stop_; })) {
      return;
    }
    const int64_t now = SteadyNowNs();
    const uint64_t seq = op_active_seq_.load(std::memory_order_relaxed);
    int64_t lag_ns = 0;
    if (seq != 0) {
      // Strand busy: lag = how long the executing op's work has been
      // pending, from its enqueue.
      lag_ns = now - op_enqueued_ns_.load(std::memory_order_relaxed);
      const int64_t running_ns =
          now - op_started_ns_.load(std::memory_order_relaxed);
      if (running_ns >= budget_ns &&
          watchdog_flagged_seq_.load(std::memory_order_relaxed) != seq) {
        watchdog_flagged_seq_.store(seq, std::memory_order_relaxed);
        watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
        WatchdogStalls().Add();
      }
    } else {
      // Strand idle between ops: lag = age of the oldest queued op, if any.
      std::lock_guard<std::mutex> qlock(ingest_mu_);
      if (!ingest_queue_.empty()) {
        lag_ns = now - ingest_queue_.front().enqueued_ns;
      }
    }
    IngestLag().Set(std::max<int64_t>(lag_ns / 1000, 0));
  }
}

void HistGraphServer::RunAdvisorTick() {
  auto res = advisor_->Tick(&manager_->index());
  MatTicks().Add();
  std::lock_guard<std::mutex> lock(advisor_mu_);
  if (res.ok()) {
    last_tick_status_ = Status::OK();
    last_tick_result_ = res.value();
    MatMaterializations().Add(last_tick_result_.materialized);
    MatEvictions().Add(last_tick_result_.evicted);
    MatResidentBytes().Set(static_cast<int64_t>(last_tick_result_.resident_bytes));
    MatResidentNodes().Set(static_cast<int64_t>(last_tick_result_.resident_nodes));
  } else {
    // An advisor failure does not poison ingest: appends remain correct
    // whether or not a materialized copy exists. Surfaced via RunAdvisorOnce.
    last_tick_status_ = res.status();
  }
}

Result<MaterializationAdvisor::TickResult> HistGraphServer::RunAdvisorOnce() {
  if (advisor_ == nullptr) {
    return Status::InvalidArgument(
        "adaptive materialization is disabled (resolved budget is 0)");
  }
  IngestOp op;
  op.advise = true;
  HG_RETURN_NOT_OK(EnqueueIngest(std::move(op)));
  HG_RETURN_NOT_OK(Flush());
  std::lock_guard<std::mutex> lock(advisor_mu_);
  HG_RETURN_NOT_OK(last_tick_status_);
  return last_tick_result_;
}

// -- Queries -------------------------------------------------------------------

Result<HistGraphServer::QueryResult> HistGraphServer::Retrieve(
    const std::vector<Timestamp>& times, unsigned components,
    int64_t deadline_us) {
  const int64_t limit =
      deadline_us < 0 ? options_.default_deadline_us : deadline_us;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_us = [&] {
    return static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  auto expired = [&] { return limit > 0 && elapsed_us() >= limit; };

  // Admission: run or reject, never queue — under overload the caller sheds
  // (or retries with backoff) instead of stacking latency onto every later
  // query.
  const int max = options_.max_concurrent_queries;
  const int running = active_queries_.fetch_add(1, std::memory_order_acq_rel);
  if (max <= 0 || running >= max) {
    active_queries_.fetch_sub(1, std::memory_order_acq_rel);
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    QueriesShed().Add();
    // A slim slow-log entry (no span tree — nothing ran) so overload shows
    // up in the flight recorder, not only as a counter.
    obs::FlightRecorder::Global().RecordEvent(
        "server", "admission", static_cast<double>(elapsed_us()),
        manager_->index().frontier_epoch(), 0);
    return Status::Unavailable("admission limit reached");
  }
  struct Admission {
    std::atomic<int>* active;
    ~Admission() { active->fetch_sub(1, std::memory_order_acq_rel); }
  } admission{&active_queries_};
  queries_admitted_.fetch_add(1, std::memory_order_relaxed);

  // Trace when globally enabled or when this query wins the sampler's draw;
  // sampled traces land in the flight recorder when the query finishes.
  std::unique_ptr<obs::QueryTrace> trace;
  if (obs::TraceEnabled() || obs::TraceSampler::Global().Sample()) {
    trace = std::make_unique<obs::QueryTrace>();
    trace->set_query_label(times.size() == 1 ? "server.singlepoint"
                                             : "server.multipoint");
  }

  // Pin one frontier; the whole query resolves against it, so the ingest
  // strand may keep publishing epochs while this runs.
  const FrontierPtr frontier = manager_->index().PinFrontier();
  if (trace != nullptr) {
    trace->set_epoch(frontier->epoch);
    trace->set_event_count(frontier->event_count);
  }
  auto finish_trace = [&](const char* event) {
    if (trace == nullptr) return;
    if (event != nullptr) trace->set_event(event);
    obs::FinishAndMaybeDump(trace.get());
  };
  auto record_deadline = [&] {
    deadlines_exceeded_.fetch_add(1, std::memory_order_relaxed);
    QueriesTimedOut().Add();
    if (trace != nullptr) {
      finish_trace("deadline");
    } else {
      obs::FlightRecorder::Global().RecordEvent(
          "server", "deadline", static_cast<double>(elapsed_us()),
          frontier->epoch, frontier->event_count);
    }
  };

  if (expired()) {
    record_deadline();
    return Status::DeadlineExceeded("deadline expired before execution");
  }
  auto snaps = manager_->index().GetSnapshotsAt(
      frontier, times, components, obs::TraceCtx{trace.get(), obs::kNoSpan});
  if (!snaps.ok()) {
    finish_trace("error");
    return snaps.status();
  }
  if (expired()) {
    // The work is done but the caller has given up; count and drop it.
    record_deadline();
    return Status::DeadlineExceeded("deadline expired during execution");
  }

  const int64_t latency_us = elapsed_us();
  QueriesServed().Add();
  QueryLatency().Record(static_cast<uint64_t>(latency_us));
  // Feed the sampler (tail arming) and the slow-query log with the
  // end-to-end server latency, queueing and admission included. This is the
  // query's only sampler observation: GetSnapshotsAt never observes.
  obs::TraceSampler::Global().Observe(static_cast<uint64_t>(latency_us));
  const bool slow =
      options_.slow_query_us > 0 && latency_us >= options_.slow_query_us;
  if (slow) {
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
    SlowQueries().Add();
  }
  if (trace != nullptr) {
    // The recorder routes it to the slow log by threshold (or event).
    finish_trace(nullptr);
  } else if (slow) {
    // Untraced slow query: retain a slim entry — identity without spans.
    obs::FlightRecorder::Global().RecordEvent(
        "server", "slow", static_cast<double>(latency_us), frontier->epoch,
        frontier->event_count);
  }

  QueryResult out;
  out.snapshots = std::move(snaps).value();
  out.epoch = frontier->epoch;
  out.event_count = frontier->event_count;
  return out;
}

// -- Introspection -------------------------------------------------------------

uint64_t HistGraphServer::frontier_epoch() const {
  return manager_->index().frontier_epoch();
}

HistGraphServer::Stats HistGraphServer::stats() const {
  Stats s;
  s.queries_admitted = queries_admitted_.load(std::memory_order_relaxed);
  s.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  s.deadlines_exceeded = deadlines_exceeded_.load(std::memory_order_relaxed);
  s.batches_appended = batches_appended_.load(std::memory_order_relaxed);
  s.events_appended = events_appended_.load(std::memory_order_relaxed);
  s.finalizes = finalizes_.load(std::memory_order_relaxed);
  s.appends_rejected = appends_rejected_.load(std::memory_order_relaxed);
  s.frontier_epoch = frontier_epoch();
  s.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  s.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    s.ingest_queue_depth = ingest_queue_.size();
  }
  return s;
}

std::string HistGraphServer::StatusJSON() const {
  const int64_t now_ns = SteadyNowNs();
  const Stats s = stats();

  // Ingest-strand state: queue shape under the lock, strand occupancy from
  // the watchdog atomics (a torn read costs one slightly stale number).
  size_t queue_depth = 0;
  int64_t queue_age_us = 0;
  uint64_t applied_seq = 0, next_seq = 0;
  Status ingest_error;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    queue_depth = ingest_queue_.size();
    if (!ingest_queue_.empty()) {
      queue_age_us = (now_ns - ingest_queue_.front().enqueued_ns) / 1000;
    }
    applied_seq = applied_seq_;
    next_seq = next_seq_;
    ingest_error = ingest_error_;
  }
  const uint64_t active_op = op_active_seq_.load(std::memory_order_relaxed);
  int64_t current_op_us = 0;
  int64_t lag_us = queue_age_us;
  if (active_op != 0) {
    current_op_us = (now_ns - op_started_ns_.load(std::memory_order_relaxed)) / 1000;
    lag_us = std::max<int64_t>(
        lag_us, (now_ns - op_enqueued_ns_.load(std::memory_order_relaxed)) / 1000);
  }

  const FrontierPtr frontier = manager_->index().PinFrontier();
  const int64_t frontier_age_us =
      (now_ns - last_publish_ns_.load(std::memory_order_relaxed)) / 1000;

  std::ostringstream out;
  out << "{\"server\":{"
      << "\"queries_admitted\":" << s.queries_admitted
      << ",\"queries_rejected\":" << s.queries_rejected
      << ",\"deadlines_exceeded\":" << s.deadlines_exceeded
      << ",\"slow_queries\":" << s.slow_queries
      << ",\"active_queries\":" << active_queries_.load(std::memory_order_relaxed)
      << ",\"max_concurrent_queries\":" << options_.max_concurrent_queries
      << ",\"slow_query_us\":" << options_.slow_query_us
      << ",\"trace_sample_every_n\":" << options_.trace_sample_every_n
      << ",\"batches_appended\":" << s.batches_appended
      << ",\"events_appended\":" << s.events_appended
      << ",\"finalizes\":" << s.finalizes
      << ",\"appends_rejected\":" << s.appends_rejected << "}";
  out << ",\"ingest\":{"
      << "\"queue_depth\":" << queue_depth
      << ",\"queue_age_us\":" << queue_age_us
      << ",\"lag_us\":" << lag_us
      << ",\"applied_seq\":" << applied_seq
      << ",\"next_seq\":" << next_seq
      << ",\"busy\":" << (active_op != 0 ? "true" : "false")
      << ",\"current_op_us\":" << current_op_us << ",\"error\":";
  AppendQuoted(out, ingest_error.ok() ? "" : ingest_error.ToString());
  out << "}";
  out << ",\"watchdog\":{"
      << "\"budget_us\":" << options_.watchdog_budget_us
      << ",\"enabled\":" << (options_.watchdog_budget_us > 0 ? "true" : "false")
      << ",\"stalls\":" << s.watchdog_stalls << "}";
  out << ",\"frontier\":{"
      << "\"epoch\":" << frontier->epoch
      << ",\"event_count\":" << frontier->event_count
      << ",\"age_us\":" << frontier_age_us << "}";
  out << ",\"sampler\":{"
      << "\"every_n\":" << obs::TraceSampler::Global().every_n()
      << ",\"arm_threshold_us\":" << obs::TraceSampler::Global().arm_threshold_us()
      << ",\"sampled\":" << obs::TraceSampler::Global().sampled()
      << ",\"slow_observed\":" << obs::TraceSampler::Global().slow_observed()
      << ",\"armed_remaining\":" << obs::TraceSampler::Global().armed_remaining()
      << "}";
  out << ",\"flight_recorder\":" << obs::FlightRecorder::Global().ToJSON();
  out << ",\"metrics\":" << obs::MetricsRegistry::Global().ToJSON();
  out << "}";
  return out.str();
}

}  // namespace hgdb

#include "exec/partitioned_session.h"

#include <algorithm>

#include "obs/sampler.h"
#include "obs/stages.h"

namespace hgdb {

PartitionedRetrievalSession::PartitionedRetrievalSession(PartitionedDeltaGraph* pdg,
                                                         TaskPool* pool)
    : pdg_(pdg), pool_(pool != nullptr ? pool : pdg->ResolveTaskPool()), group_(pool_) {
  // Trace when globally enabled, or when this session wins the production
  // sampler's draw (see src/obs/sampler.h).
  if (obs::TraceEnabled() || obs::TraceSampler::Global().Sample()) {
    trace_ = std::make_unique<obs::QueryTrace>();
    trace_->set_query_label("partitioned_session");
  }
  caches_.reserve(pdg_->partition_count());
  for (size_t i = 0; i < pdg_->partition_count(); ++i) {
    caches_.push_back(std::make_unique<ExecFetchCache>());
    if (pool_->parallelism() >= 2) caches_.back()->SetDecodePool(pool_);
    if (trace_ != nullptr) {
      // One session-lifetime span per shard: every fetch through the shard's
      // pin — whichever request triggered it — lands here.
      const obs::SpanId s = trace_->BeginSpan("shard", obs::kNoSpan);
      trace_->SetAttr(s, "shard", static_cast<int64_t>(i));
      shard_spans_.push_back(s);
      caches_.back()->SetTrace(obs::TraceCtx{trace_.get(), s});
    }
  }
}

PartitionedRetrievalSession::~PartitionedRetrievalSession() {
  // Tasks in flight reference this session's plans and fetch caches; they
  // must drain before members go away.
  (void)Wait();
}

PartitionedRetrievalSession::Request* PartitionedRetrievalSession::Submit(
    std::vector<Timestamp> times, unsigned components) {
  requests_.push_back(std::make_unique<Request>());
  Request* req = requests_.back().get();
  req->times = std::move(times);
  req->components = components;

  const size_t n = pdg_->partition_count();
  if (req->times.empty()) {
    req->result = std::vector<Snapshot>();
    return req;
  }
  // Pin one cross-shard frontier; all shard reads resolve against it.
  req->frontiers = pdg_->PinFrontiers();
  req->plans.resize(n);
  req->executors.resize(n);
  req->fallbacks.resize(n);
  if (trace_ != nullptr) {
    req->span = trace_->BeginSpan("request", obs::kNoSpan);
    trace_->SetAttr(req->span, "times", static_cast<int64_t>(req->times.size()));
    trace_->SetAttr(req->span, "shards", static_cast<int64_t>(n));
  }

  for (size_t i = 0; i < n; ++i) {
    DeltaGraph* shard = pdg_->partition(i);
    const FrontierPtr& frontier = req->frontiers[i];
    // An un-finalized (or empty) shard has no skeleton to plan over; replay
    // it synchronously — its whole history is the pinned recent view.
    if (frontier->skeleton->leaves().empty()) {
      req->fallbacks[i] =
          shard->GetSnapshotsAt(frontier, req->times, req->components);
      continue;
    }
    auto plan = [&] {
      obs::StageTimer stage(obs::StagePlanHist());
      return shard->PlanForAt(frontier, req->times, req->components);
    }();
    if (!plan.ok()) {
      req->fallbacks[i] = plan.status();
      continue;
    }
    req->plans[i] = std::move(plan).value();
    // The executor prefetches into the shard's session-wide cache on the
    // shard's own I/O lane; the cache's single-flight slots dedup fetches
    // across requests.
    req->executors[i] = std::make_unique<ParallelPlanExecutor>(
        shard, frontier, req->components, pool_, caches_[i].get(),
        shard->ResolveIoPool());
    req->executors[i]->SetTrace(obs::TraceCtx{trace_.get(), req->span});
    req->executors[i]->Start(req->plans[i], &group_);
  }
  return req;
}

Status PartitionedRetrievalSession::Wait() {
  group_.Wait();
  Status first_error = Status::OK();
  for (auto& req : requests_) {
    if (req->executors.empty() && req->fallbacks.empty()) {
      // Empty-times request (or already collected on a prior Wait).
      continue;
    }
    std::vector<Snapshot> merged(req->times.size());
    Status req_error = Status::OK();
    uint64_t busy_sum_ns = 0, busy_max_ns = 0;
    size_t busy_shards = 0;
    obs::StageTimer merge_stage(obs::StageMergeHist());
    obs::ScopedSpan merge_span(obs::TraceCtx{trace_.get(), req->span}, "merge");
    for (size_t i = 0; i < req->executors.size(); ++i) {
      Result<std::vector<Snapshot>> piece = Status::Internal("shard never ran");
      if (req->executors[i] != nullptr) {
        const Status s = req->executors[i]->TakeStatus();
        piece = s.ok() ? req->executors[i]->TakeResults().TakeInOrder(req->times)
                       : Result<std::vector<Snapshot>>(s);
        const uint64_t busy = req->executors[i]->busy_ns();
        busy_sum_ns += busy;
        busy_max_ns = std::max(busy_max_ns, busy);
        ++busy_shards;
        req->executors[i].reset();  // Collected; Wait stays idempotent.
      } else if (req->fallbacks[i].has_value()) {
        piece = std::move(*req->fallbacks[i]);
        req->fallbacks[i].reset();
      } else {
        continue;  // Already collected on a prior Wait.
      }
      if (!piece.ok()) {
        if (req_error.ok()) req_error = piece.status();
        continue;
      }
      for (size_t t = 0; t < merged.size(); ++t) {
        merged[t].AbsorbDisjoint(std::move(piece.value()[t]));
      }
    }
    req->executors.clear();
    req->fallbacks.clear();
    req->result = req_error.ok() ? Result<std::vector<Snapshot>>(std::move(merged))
                                 : Result<std::vector<Snapshot>>(req_error);
    if (first_error.ok() && !req->result.ok()) first_error = req->result.status();
    if (trace_ != nullptr && req->span != obs::kNoSpan) {
      // Execution skew: the slowest shard's busy time over the per-shard
      // mean; 1.0 = perfectly balanced.
      trace_->SetAttr(req->span, "busy_us_sum",
                      static_cast<int64_t>(busy_sum_ns / 1000));
      trace_->SetAttr(req->span, "busy_us_max",
                      static_cast<int64_t>(busy_max_ns / 1000));
      if (busy_shards > 0 && busy_sum_ns > 0) {
        const double skew = static_cast<double>(busy_max_ns) * busy_shards /
                            static_cast<double>(busy_sum_ns);
        trace_->SetAttr(req->span, "shard_skew", skew);
        if (skew > trace_->shard_skew()) trace_->set_shard_skew(skew);
      }
      trace_->EndSpan(req->span);
      req->span = obs::kNoSpan;
    }
  }
  if (trace_ != nullptr && !trace_dumped_) {
    trace_dumped_ = true;
    for (obs::SpanId s : shard_spans_) trace_->EndSpan(s);
    // Stamp the query's identity for the flight recorder: the newest pinned
    // cross-shard frontier set — max shard epoch, events summed over shards.
    uint64_t epoch = 0;
    size_t event_count = 0;
    for (const auto& req : requests_) {
      if (req->frontiers.empty()) continue;
      uint64_t req_epoch = 0;
      size_t req_events = 0;
      for (const FrontierPtr& f : req->frontiers) {
        if (f == nullptr) continue;
        req_epoch = std::max(req_epoch, f->epoch);
        req_events += f->event_count;
      }
      if (req_epoch >= epoch) {
        epoch = req_epoch;
        event_count = req_events;
      }
    }
    trace_->set_epoch(epoch);
    trace_->set_event_count(event_count);
    obs::FinishAndMaybeDump(trace_.get());
  }
  return first_error;
}

}  // namespace hgdb

#include "exec/retrieval_session.h"

#include <algorithm>

#include "deltagraph/partitioned_delta_graph.h"
#include "exec/prefetcher.h"
#include "obs/sampler.h"
#include "obs/stages.h"

namespace hgdb {

namespace {

std::vector<DeltaGraph*> ShardsOf(PartitionedDeltaGraph* pdg) {
  std::vector<DeltaGraph*> shards;
  shards.reserve(pdg->partition_count());
  for (size_t i = 0; i < pdg->partition_count(); ++i) shards.push_back(pdg->partition(i));
  return shards;
}

}  // namespace

RetrievalSession::RetrievalSession(DeltaGraph* dg, TaskPool* pool)
    : RetrievalSession(std::vector<DeltaGraph*>{dg},
                       pool != nullptr ? pool : dg->ResolveTaskPool()) {}

RetrievalSession::RetrievalSession(PartitionedDeltaGraph* pdg, TaskPool* pool)
    : RetrievalSession(ShardsOf(pdg), pool != nullptr ? pool : pdg->ResolveTaskPool()) {}

RetrievalSession::RetrievalSession(std::vector<DeltaGraph*> shards, TaskPool* pool)
    : shards_(std::move(shards)), pool_(pool), group_(pool_) {
  // Trace when globally enabled, or when this session wins the production
  // sampler's draw (1-in-N / tail-armed; see src/obs/sampler.h) — sampled
  // traces land in the flight recorder when the session finishes.
  if (obs::TraceEnabled() || obs::TraceSampler::Global().Sample()) {
    trace_ = std::make_unique<obs::QueryTrace>();
    trace_->set_query_label(shards_.size() == 1 ? "session" : "partitioned_session");
  }
  caches_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    caches_.push_back(std::make_unique<ExecFetchCache>());
    if (pool_->parallelism() >= 2) caches_.back()->SetDecodePool(pool_);
    if (trace_ != nullptr) {
      // One session-lifetime span per shard: every fetch through the shard's
      // cache — whichever request triggered it — lands here.
      const obs::SpanId s = trace_->BeginSpan("shard", obs::kNoSpan);
      trace_->SetAttr(s, "shard", static_cast<int64_t>(i));
      shard_spans_.push_back(s);
      caches_.back()->SetTrace(obs::TraceCtx{trace_.get(), s});
    }
  }
}

RetrievalSession::~RetrievalSession() {
  // Tasks in flight reference this session's plans and fetch caches; they
  // must drain before members go away.
  (void)Wait();
}

RetrievalSession::Request* RetrievalSession::Submit(std::vector<Timestamp> times,
                                                    unsigned components) {
  requests_.push_back(std::make_unique<Request>());
  Request* req = requests_.back().get();
  req->times = std::move(times);
  req->components = components;
  if (req->times.empty()) {
    req->result = std::vector<Snapshot>();
    return req;
  }
  const size_t n = shards_.size();

  // 1. Pin one frontier per shard; every phase below resolves against it.
  for (DeltaGraph* shard : shards_) req->frontiers.push_back(shard->PinFrontier());

  // 2. Plan every shard. A shard with no leaves (un-finalized or empty) has
  // no skeleton to plan over; it replays its pinned recent view instead.
  req->plans.resize(n);
  req->replayed.assign(n, Status::Internal("shard never ran"));
  for (size_t i = 0; i < n; ++i) {
    if (req->frontiers[i]->skeleton->leaves().empty()) {
      req->replayed[i] =
          shards_[i]->GetSnapshotsAt(req->frontiers[i], req->times, req->components);
      continue;
    }
    auto plan = [&] {
      obs::StageTimer stage(obs::StagePlanHist());
      return shards_[i]->PlanForAt(req->frontiers[i], req->times, req->components);
    }();
    if (!plan.ok()) {
      req->result = plan.status();
      return req;
    }
    req->plans[i] = std::move(plan).value();
  }
  if (trace_ != nullptr) {
    int64_t steps = 0;
    double est_cost = 0;
    for (const Plan& plan : req->plans) {
      if (!plan.root) continue;
      steps += static_cast<int64_t>(plan.StepCount());
      est_cost += plan.estimated_cost;
    }
    req->span = trace_->BeginSpan("request", obs::kNoSpan);
    trace_->SetAttr(req->span, "times", static_cast<int64_t>(req->times.size()));
    trace_->SetAttr(req->span, "shards", static_cast<int64_t>(n));
    trace_->SetAttr(req->span, "steps", steps);
    trace_->SetAttr(req->span, "est_cost_bytes", est_cost);
  }

  // 3. Queue every shard's prefetch before any shard executes, each on the
  // shard's own I/O lane, so the per-shard fetch pipelines are in flight
  // together. The caches' single-flight slots dedup fetches across requests.
  for (size_t i = 0; i < n; ++i) {
    IoPool* io = shards_[i]->ResolveIoPool();
    if (io == nullptr || !req->plans[i].root) continue;
    StartCollectedPrefetch(*shards_[i], *req->frontiers[i]->skeleton,
                           CollectPlanFetches(req->plans[i]), req->components,
                           caches_[i].get(), io);
  }

  // 4. Start the executors: every shard's plan tree goes into the session's
  // one group, so shard subtrees are sibling tasks stolen freely across
  // workers. They get no I/O pool — phase 3 already queued their fetches.
  req->executors.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!req->plans[i].root) continue;
    req->executors[i] = std::make_unique<ParallelPlanExecutor>(
        shards_[i], req->frontiers[i], req->components, pool_, caches_[i].get(),
        /*io_pool=*/nullptr);
    req->executors[i]->SetTrace(obs::TraceCtx{trace_.get(), req->span});
    req->executors[i]->Start(req->plans[i], &group_);
  }
  return req;
}

Status RetrievalSession::Wait() {
  group_.Wait();
  Status first_error = Status::OK();
  for (auto& req : requests_) {
    // Requests resolved at Submit, and those already stitched, hold no
    // executors.
    if (!req->executors.empty()) Stitch(req.get());
    if (first_error.ok() && !req->result.ok()) first_error = req->result.status();
  }
  if (trace_ != nullptr && !trace_dumped_) {
    trace_dumped_ = true;
    for (obs::SpanId s : shard_spans_) trace_->EndSpan(s);
    // Stamp the query's identity for the flight recorder: the newest pinned
    // frontier set — max shard epoch, events summed over shards.
    uint64_t epoch = 0;
    size_t event_count = 0;
    for (const auto& req : requests_) {
      if (req->frontiers.empty()) continue;
      uint64_t req_epoch = 0;
      size_t req_events = 0;
      for (const FrontierPtr& f : req->frontiers) {
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

void RetrievalSession::Stitch(Request* req) {
  std::vector<Snapshot> merged(req->times.size());
  Status error = Status::OK();
  uint64_t busy_sum_ns = 0, busy_max_ns = 0;
  size_t busy_shards = 0;
  {
    obs::StageTimer merge_stage(obs::StageMergeHist());
    obs::ScopedSpan merge_span(obs::TraceCtx{trace_.get(), req->span}, "merge");
    for (size_t i = 0; i < req->executors.size(); ++i) {
      Result<std::vector<Snapshot>> piece = std::move(req->replayed[i]);
      if (ParallelPlanExecutor* exec = req->executors[i].get()) {
        const Status s = exec->TakeStatus();
        piece = s.ok() ? exec->TakeResults().TakeInOrder(req->times)
                       : Result<std::vector<Snapshot>>(s);
        busy_sum_ns += exec->busy_ns();
        busy_max_ns = std::max(busy_max_ns, exec->busy_ns());
        ++busy_shards;
      }
      if (!piece.ok()) {
        if (error.ok()) error = piece.status();
        continue;
      }
      for (size_t t = 0; t < merged.size(); ++t) {
        merged[t].AbsorbDisjoint(std::move(piece.value()[t]));
      }
    }
  }
  req->executors.clear();
  req->replayed.clear();
  req->result = error.ok() ? Result<std::vector<Snapshot>>(std::move(merged))
                           : Result<std::vector<Snapshot>>(error);
  if (trace_ == nullptr || req->span == obs::kNoSpan) return;
  trace_->SetAttr(req->span, "busy_us_sum", static_cast<int64_t>(busy_sum_ns / 1000));
  trace_->SetAttr(req->span, "busy_us_max", static_cast<int64_t>(busy_max_ns / 1000));
  if (shards_.size() > 1 && busy_sum_ns > 0) {
    // Execution skew: the slowest shard's busy time over the per-shard mean;
    // 1.0 = perfectly balanced. A one-shard index has no skew to report.
    const double skew = static_cast<double>(busy_max_ns) * busy_shards /
                        static_cast<double>(busy_sum_ns);
    trace_->SetAttr(req->span, "shard_skew", skew);
    if (skew > trace_->shard_skew()) trace_->set_shard_skew(skew);
  }
  trace_->EndSpan(req->span);
  req->span = obs::kNoSpan;
}

}  // namespace hgdb

// trace_view: renders the per-query trace JSON the retrieval path emits
// (HISTGRAPH_TRACE=1 / HISTGRAPH_TRACE_OUT=<file>, or session->LastTrace())
// as a human-readable span tree with a per-query cost breakdown.
//
// Usage:
//   trace_view <file.json>     render every trace in the file (one JSON
//                              object per line, the HISTGRAPH_TRACE_OUT
//                              format; a single pretty-printed object works
//                              too)
//   trace_view -               same, reading stdin
//   trace_view --demo          build a small in-memory partitioned index,
//                              run two traced multipoint requests through
//                              one RetrievalSession, and render the
//                              resulting trace (the CI smoke for the whole
//                              tracing pipeline)
//
// Example rendering:
//   query partitioned_session     total 12.41 ms
//     fetches 38 (prefetched 36, demand 2, coverage 94.7%) | lru 31/38 hits
//     kv reads 87 keys, 412.3 KB read, 412.3 KB decoded
//     shard (shard=0)                             4.07 ms
//       io.drain (claimed=9, kv_keys=27)          2.93 ms
//     ...

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "deltagraph/partitioned_delta_graph.h"
#include "exec/retrieval_session.h"
#include "kvstore/kv_store.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

std::string FormatDurUs(double us) {
  char buf[32];
  if (us >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f us", us);
  }
  return buf;
}

std::string FormatBytes(double bytes) {
  char buf[32];
  if (bytes >= 10.0 * (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1 << 20));
  } else if (bytes >= 10.0 * (1 << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

/// The span keys ToJSON always writes; everything else on a span object is a
/// recorded attribute worth showing.
bool IsStructuralKey(const std::string& key) {
  return key == "id" || key == "parent" || key == "name" ||
         key == "start_us" || key == "dur_us";
}

void PrintSpan(const std::vector<obs::JsonValue>& spans, size_t index,
               int depth, double total_us) {
  const obs::JsonValue& span = spans[index];
  std::string attrs;
  for (const auto& [key, value] : span.Members()) {
    if (IsStructuralKey(key)) continue;
    if (!attrs.empty()) attrs += ", ";
    attrs += key + "=";
    if (value.kind() == obs::JsonValue::Kind::kString) {
      attrs += value.AsString();
    } else {
      std::ostringstream num;
      num << value.AsDouble();
      attrs += num.str();
    }
  }
  const double dur = span["dur_us"].AsDouble();
  std::string label(static_cast<size_t>(depth) * 2, ' ');
  label += span["name"].AsString();
  if (!attrs.empty()) label += " (" + attrs + ")";
  const double share = total_us > 0 ? dur / total_us * 100.0 : 0.0;
  std::printf("  %-58s %10s %5.1f%%\n", label.c_str(),
              FormatDurUs(dur).c_str(), share);
  const int64_t id = spans[index]["id"].AsInt();
  for (size_t j = 0; j < spans.size(); ++j) {
    if (spans[j]["parent"].AsInt(-1) == id) {
      PrintSpan(spans, j, depth + 1, total_us);
    }
  }
}

void RenderTrace(const obs::JsonValue& trace) {
  const obs::JsonValue& summary = trace["summary"];
  const double total_us = trace["total_us"].AsDouble();
  std::printf("query %-28s total %s\n", trace["query"].AsString().c_str(),
              FormatDurUs(total_us).c_str());

  const double fetches = summary["fetches_total"].AsDouble();
  const double prefetched = summary["fetches_prefetched"].AsDouble();
  const double demand = summary["fetches_demand"].AsDouble();
  const double hits = summary["lru_hits"].AsDouble();
  const double misses = summary["lru_misses"].AsDouble();
  std::printf(
      "  fetches %.0f (prefetched %.0f, demand %.0f, coverage %.1f%%) | "
      "lru %.0f/%.0f hits\n",
      fetches, prefetched, demand,
      summary["prefetch_coverage"].AsDouble() * 100.0, hits, hits + misses);
  std::printf("  kv reads %.0f keys, %s read, %s decoded\n",
              summary["kv_reads"].AsDouble(),
              FormatBytes(summary["bytes_read"].AsDouble()).c_str(),
              FormatBytes(summary["bytes_decoded"].AsDouble()).c_str());

  const auto& spans = trace["spans"].Items();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i]["parent"].AsInt(-1) < 0) PrintSpan(spans, i, 0, total_us);
  }
  std::printf("\n");
}

/// Renders every JSON object in `text`: the HISTGRAPH_TRACE_OUT format is one
/// object per line, but a single multi-line object (a pasted trace) parses
/// whole too.
int RenderText(const std::string& text) {
  std::string err;
  const obs::JsonValue whole = obs::JsonValue::Parse(text, &err);
  if (whole.is_object()) {
    RenderTrace(whole);
    return 0;
  }
  int rendered = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const obs::JsonValue trace = obs::JsonValue::Parse(line, &err);
    if (!trace.is_object()) {
      std::fprintf(stderr, "trace_view: skipping malformed line: %s\n",
                   err.c_str());
      continue;
    }
    RenderTrace(trace);
    ++rendered;
  }
  if (rendered == 0) {
    std::fprintf(stderr, "trace_view: no parsable trace objects in input\n");
    return 1;
  }
  return 0;
}

/// One traced retrieval against a freshly built 3-shard in-memory index —
/// exercises plan/shard/drain/merge spans end to end without needing a saved
/// trace file. CI runs this as the tracing smoke test.
int RunDemo() {
  RandomTraceOptions topts;
  topts.num_events = 6000;
  topts.seed = 20260808;
  GeneratedTrace gen = GenerateRandomTrace(topts);

  auto store = NewMemKVStore();
  DeltaGraphOptions opts;
  opts.leaf_size = 80;
  opts.arity = 3;
  auto pdg = PartitionedDeltaGraph::Create(store.get(), 3, opts);
  if (!pdg.ok()) {
    std::fprintf(stderr, "demo: create failed: %s\n",
                 pdg.status().ToString().c_str());
    return 1;
  }
  auto& index = *pdg.value();
  if (!index.AppendAll(gen.events).ok() || !index.Finalize().ok()) {
    std::fprintf(stderr, "demo: ingest failed\n");
    return 1;
  }

  const bool was_tracing = obs::TraceEnabled();
  obs::SetTraceEnabled(true);
  std::string json;
  {
    const Timestamp lo = gen.events.front().time;
    const Timestamp hi = gen.events.back().time;
    RetrievalSession session(&index);
    session.Submit({lo + (hi - lo) / 4, lo + (hi - lo) / 2, hi});
    session.Submit({hi - (hi - lo) / 3});
    if (!session.Wait().ok()) {
      std::fprintf(stderr, "demo: retrieval failed\n");
      obs::SetTraceEnabled(was_tracing);
      return 1;
    }
    const obs::QueryTrace* trace = session.LastTrace();
    if (trace == nullptr) {
      std::fprintf(stderr, "demo: session produced no trace\n");
      obs::SetTraceEnabled(was_tracing);
      return 1;
    }
    json = trace->ToJSON();
  }
  obs::SetTraceEnabled(was_tracing);
  return RenderText(json);
}

int Run(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: trace_view <trace.json | - | --demo>\n"
                 "  renders HISTGRAPH_TRACE output (one JSON object per "
                 "line) as a span tree\n");
    return argc < 2 ? 1 : 0;
  }
  if (std::strcmp(argv[1], "--demo") == 0) return RunDemo();

  std::string text;
  if (std::strcmp(argv[1], "-") == 0) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "trace_view: cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  return RenderText(text);
}

}  // namespace
}  // namespace hgdb

int main(int argc, char** argv) { return hgdb::Run(argc, argv); }

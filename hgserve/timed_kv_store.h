#ifndef HGSERVE_TIMED_KV_STORE_H_
#define HGSERVE_TIMED_KV_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/kv_store.h"

namespace hgserve {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief A KVStore that forwards every call to `base` and, while recording
/// is on, keeps one span per read or write: op, start, end, keys and bytes.
///
/// Reads also keep a copy of every value returned, so the benchmark can
/// decode exactly the blobs a query fetched after the query is done, off the
/// clock. MultiGet forwards as one MultiGet: letting the base-class loop turn
/// it into per-key Gets would make every key pay its own simulated seek and
/// change the program's I/O. Byte counts are of the values as the caller
/// sees them (after the store's own decompression).
class TimedKVStore final : public hgdb::KVStore {
 public:
  enum class OpKind { kGet, kMultiGet, kPut, kWrite };

  struct Op {
    OpKind kind = OpKind::kGet;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t keys = 0;   ///< Keys found (reads only).
    uint64_t bytes = 0;  ///< Value bytes returned or written.
    /// Reads only: (key, value) of every key found.
    std::vector<std::pair<std::string, std::string>> blobs;

    bool is_read() const { return kind == OpKind::kGet || kind == OpKind::kMultiGet; }
  };

  explicit TimedKVStore(hgdb::KVStore* base) : base_(base) {}

  void SetRecording(bool on) { recording_.store(on, std::memory_order_release); }

  /// Moves out every span recorded so far.
  std::vector<Op> Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Op> out;
    out.swap(ops_);
    return out;
  }

  hgdb::Status Put(const hgdb::Slice& key, const hgdb::Slice& value) override {
    if (!recording()) return base_->Put(key, value);
    Op op = Begin(OpKind::kPut);
    const hgdb::Status s = base_->Put(key, value);
    op.end_ns = NowNs();
    op.bytes = value.size();
    Record(std::move(op));
    return s;
  }

  hgdb::Status Get(const hgdb::Slice& key, std::string* value) const override {
    if (!recording()) return base_->Get(key, value);
    Op op = Begin(OpKind::kGet);
    const hgdb::Status s = base_->Get(key, value);
    op.end_ns = NowNs();
    if (s.ok()) {
      op.keys = 1;
      op.bytes = value->size();
      op.blobs.emplace_back(key.ToString(), *value);
    }
    Record(std::move(op));
    return s;
  }

  void MultiGet(const std::vector<hgdb::Slice>& keys, std::vector<std::string>* values,
                std::vector<hgdb::Status>* statuses) const override {
    if (!recording()) return base_->MultiGet(keys, values, statuses);
    Op op = Begin(OpKind::kMultiGet);
    base_->MultiGet(keys, values, statuses);
    op.end_ns = NowNs();
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!(*statuses)[i].ok()) continue;
      ++op.keys;
      op.bytes += (*values)[i].size();
      op.blobs.emplace_back(keys[i].ToString(), (*values)[i]);
    }
    Record(std::move(op));
  }

  hgdb::Status Delete(const hgdb::Slice& key) override { return base_->Delete(key); }

  hgdb::Status Write(const hgdb::WriteBatch& batch) override {
    if (!recording()) return base_->Write(batch);
    Op op = Begin(OpKind::kWrite);
    const hgdb::Status s = base_->Write(batch);
    op.end_ns = NowNs();
    for (const auto& w : batch.ops()) op.bytes += w.value.size();
    Record(std::move(op));
    return s;
  }

  bool Contains(const hgdb::Slice& key) const override { return base_->Contains(key); }
  void ForEachKey(const hgdb::Slice& prefix,
                  const std::function<void(const hgdb::Slice&)>& fn) const override {
    base_->ForEachKey(prefix, fn);
  }
  size_t KeyCount() const override { return base_->KeyCount(); }
  size_t ValueBytes() const override { return base_->ValueBytes(); }
  hgdb::Status Sync() override { return base_->Sync(); }

 private:
  bool recording() const { return recording_.load(std::memory_order_acquire); }

  static Op Begin(OpKind kind) {
    Op op;
    op.kind = kind;
    op.start_ns = NowNs();
    return op;
  }

  void Record(Op op) const {
    std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back(std::move(op));
  }

  hgdb::KVStore* base_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  mutable std::vector<Op> ops_;  // Guarded by mu_.
};

}  // namespace hgserve

#endif  // HGSERVE_TIMED_KV_STORE_H_

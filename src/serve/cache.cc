#include "serve/cache.h"

#include <utility>

#include "report/json_reader.h"

namespace ocdd::serve {

namespace {
/// Snapshot section holding the serialized entries.
constexpr char kSection[] = "serve_cache";
/// Bumped on any change to the entry encoding.
constexpr std::uint32_t kCacheVersion = 1;
}  // namespace

bool ResultCache::Get(const CacheKey& key, std::string* report_json) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *report_json = it->second->second;
  ++stats_.hits;
  return true;
}

void ResultCache::Put(const CacheKey& key, std::string report_json) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_bytes_ == 0 || report_json.size() > capacity_bytes_) return;
  auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.bytes -= it->second->second.size();
    stats_.bytes += report_json.size();
    it->second->second = std::move(report_json);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    stats_.bytes += report_json.size();
    lru_.emplace_front(key, std::move(report_json));
    index_[key] = lru_.begin();
    ++stats_.insertions;
  }
  stats_.entries = lru_.size();
  EvictToFitLocked();
}

void ResultCache::EvictToFitLocked() {
  while (stats_.bytes > capacity_bytes_ && !lru_.empty()) {
    auto& back = lru_.back();
    stats_.bytes -= back.second.size();
    index_.erase(back.first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

CacheStats ResultCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status ResultCache::Save(SnapshotStore& store) const {
  std::string payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ByteWriter w;
    w.U32(kCacheVersion);
    w.U64(lru_.size());
    for (const auto& [key, report] : lru_) {
      w.U64(key.fingerprint);
      w.U64(key.digest);
      w.Str(report);
    }
    payload = w.Take();
  }
  SnapshotBuilder builder;
  builder.AddSection(kSection, std::move(payload));
  OCDD_ASSIGN_OR_RETURN(std::uint64_t gen, store.Write(builder.Encode()));
  (void)gen;
  return Status::OK();
}

void ResultCache::Load(const SnapshotStore& store) {
  Result<LoadedSnapshot> loaded = store.Load();
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
  stats_.load_failed = false;
  stats_.load_corrupt_skipped = 0;
  stats_.load_invalid_dropped = 0;
  if (!loaded.ok()) {
    // Missing or wholly corrupt cache file: start cold, never fail.
    stats_.load_failed = true;
    return;
  }
  stats_.load_corrupt_skipped = loaded->corrupt_skipped;
  const std::string* section = loaded->view.Find(kSection);
  if (section == nullptr) {
    stats_.load_failed = true;
    return;
  }
  ByteReader r(*section);
  if (r.U32() != kCacheVersion) {
    stats_.load_failed = true;
    return;
  }
  const std::uint64_t count = r.U64();
  // Entries were saved MRU-first; appending preserves recency order.
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    CacheKey key;
    key.fingerprint = r.U64();
    key.digest = r.U64();
    const std::string raw = r.Str();
    if (!r.ok()) break;
    if (index_.count(key) != 0) continue;
    // Daemons that cached the worker's raw stdout persisted entries that
    // are not canonical yet, so every entry is re-serialized.
    Result<report::JsonValue> doc = report::ParseJson(raw);
    if (!doc.ok() || doc->kind() != report::JsonValue::Kind::kObject) {
      ++stats_.load_invalid_dropped;
      continue;
    }
    std::string report = report::SerializeJson(*doc);
    stats_.bytes += report.size();
    lru_.emplace_back(key, std::move(report));
    index_[key] = std::prev(lru_.end());
  }
  if (!r.ok()) stats_.load_failed = true;
  EvictToFitLocked();
}

}  // namespace ocdd::serve

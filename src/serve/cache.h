#ifndef OCDD_SERVE_CACHE_H_
#define OCDD_SERVE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/snapshot.h"

namespace ocdd::serve {

/// Key of one cached discovery result: the relation content fingerprint (the
/// same 64-bit fingerprint checkpoint snapshots are bound to,
/// rel::CodedRelation::Fingerprint) plus the request digest (algorithm and
/// result-shaping options, protocol.h RequestDigest). Two tenants asking the
/// same question about the same bytes share one entry.
struct CacheKey {
  std::uint64_t fingerprint = 0;
  std::uint64_t digest = 0;

  friend bool operator<(const CacheKey& a, const CacheKey& b) {
    return a.fingerprint != b.fingerprint ? a.fingerprint < b.fingerprint
                                          : a.digest < b.digest;
  }
  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.fingerprint == b.fingerprint && a.digest == b.digest;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t bytes = 0;
  std::size_t entries = 0;
  /// Persistence accounting: snapshot generations skipped as corrupt during
  /// load, and whether the last load found nothing valid at all.
  std::uint64_t load_corrupt_skipped = 0;
  /// Entries of the last load dropped because they are not a JSON object.
  std::uint64_t load_invalid_dropped = 0;
  bool load_failed = false;
};

/// An LRU map from CacheKey to a canonical report-JSON string (the
/// report::SerializeJson form), bounded by a byte budget over the stored
/// payloads. Thread-safe. The daemon answers a hit with the stored bytes
/// as they are, so only canonical reports may enter: `Put` takes them from
/// the caller, and `Load` checks and canonicalizes every entry it restores.
///
/// Persistence rides the PR 3 snapshot machinery: `Save` encodes every entry
/// into one CRC-guarded snapshot image written through a SnapshotStore
/// (atomic temp-fsync-rename with generation fallback), and `Load` restores
/// from the newest generation that validates. A corrupt or missing cache
/// file is *never* an error — the daemon starts cold and rebuilds
/// (docs/serving.md; the fault matrix in tests/serve_test.cc corrupts the
/// file on purpose).
class ResultCache {
 public:
  /// `capacity_bytes` bounds the sum of stored payload sizes; 0 disables
  /// the cache entirely (Get always misses, Put is a no-op).
  explicit ResultCache(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  bool enabled() const { return capacity_bytes_ != 0; }

  /// Copies the payload into `*report_json` and marks the entry
  /// most-recently-used. False on miss.
  bool Get(const CacheKey& key, std::string* report_json);

  /// Inserts or refreshes `key`, evicting least-recently-used entries until
  /// the budget holds. A payload larger than the whole budget is dropped.
  /// `report_json` must be canonical report text.
  void Put(const CacheKey& key, std::string report_json);

  CacheStats Stats() const;

  /// Serializes every entry (MRU first) into `store` as the next snapshot
  /// generation.
  Status Save(SnapshotStore& store) const;

  /// Replaces the contents from the newest valid generation in `store`,
  /// re-applying the byte budget. Each entry is parsed once and stored in
  /// canonical form; one that is not a JSON object (a CRC-valid but damaged
  /// entry) is dropped and counted. Corruption and absence degrade to an
  /// empty cache; the stats record what happened.
  void Load(const SnapshotStore& store);

 private:
  void EvictToFitLocked();

  mutable std::mutex mu_;
  std::size_t capacity_bytes_;
  /// LRU order, most recent first; the map holds iterators into it.
  std::list<std::pair<CacheKey, std::string>> lru_;
  std::map<CacheKey, std::list<std::pair<CacheKey, std::string>>::iterator>
      index_;
  CacheStats stats_;
};

}  // namespace ocdd::serve

#endif  // OCDD_SERVE_CACHE_H_

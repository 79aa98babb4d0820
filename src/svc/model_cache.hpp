// The server-side compiled-model cache: compile once per *model*, not per
// run. Tenants submitting the same model description (byte-identical
// dist/model_codec frame) share one immutable
// shared_ptr<const cwc::compiled_model> — exactly the sharing contract
// PR 4 established inside one run, extended across tenants and across
// time. Keyed by dist::model_fingerprint() with a byte-for-byte frame
// comparison on every hash hit, so a fingerprint collision can never
// hand a tenant someone else's model.
//
// Bounded: at most `max_entries` artifacts are retained, evicted in LRU
// order — but ONLY entries nobody else references. A live session pins
// its model through the shared_ptr it holds (use_count > 1 from the
// cache's view) until it retires, so eviction can drop a hot server's
// cold models without ever pulling a model out from under a running
// tenant, while a finished session's retained record pins nothing. When
// every entry is pinned the cache temporarily exceeds its bound rather
// than refuse an open.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cwc/compiled_model.hpp"
#include "dist/archive.hpp"

namespace svc {

struct cache_stats {
  std::uint64_t compiles = 0;   ///< distinct models compiled
  std::uint64_t hits = 0;       ///< requests served from the cache
  std::uint64_t evictions = 0;  ///< unpinned entries dropped by the LRU bound
};

class model_cache {
 public:
  /// `max_entries` bounds retained artifacts (0 = unbounded).
  explicit model_cache(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// Decode-and-compile `frame`, or return the artifact a previous
  /// identical frame produced. Thread-safe. Throws what decode_model
  /// throws on a malformed/foreign frame (nothing is cached then).
  /// `cache_hit`, when non-null, reports whether the artifact was shared.
  std::shared_ptr<const cwc::compiled_model> get_or_compile(
      const dist::byte_buffer& frame, bool* cache_hit = nullptr);

  cache_stats stats() const;

  /// Entries currently retained (for tests / introspection).
  std::size_t size() const;

 private:
  struct entry {
    std::uint64_t key = 0;    ///< fingerprint (map_ key, for erase)
    dist::byte_buffer frame;  ///< collision guard: full key bytes
    std::shared_ptr<const cwc::compiled_model> artifact;
  };
  /// LRU order: front = most recent. The map indexes list iterators;
  /// fingerprint collisions chain in the same bucket vector.
  using lru_list = std::list<entry>;

  void evict_locked();

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  lru_list lru_;
  std::unordered_map<std::uint64_t, std::vector<lru_list::iterator>> map_;
  cache_stats stats_{};
};

}  // namespace svc

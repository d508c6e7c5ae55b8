// Persistent estimate store (top layer): the object an engine serves from.
//
// EstimateStore owns the live record set behind one on-disk store file
// (`<dir>/estimates.qrestore`) and implements service::StoreBacking, so a
// service::Engine wired to it answers previously seen jobs from disk after
// a process restart — byte-identically, because values are the canonical
// compact dumps of the exact result documents and the JSON writer is a
// pure function of the parsed value.
//
// Values do not live on the heap. Each store appends them to a private
// spill file in the cache directory: an unnamed O_TMPFILE (or a uniquely
// named file unlinked at once), so no two stores share one and nothing is
// left behind when the process ends. The heap holds each key once plus its
// value's offset and size; fetch() reads the value back with pread,
// validates it by parsing and returns it frozen over those bytes
// (json::Value::frozen), and record() writes a frozen result's bytes as
// they are.
//
// Lifecycle:
//   EstimateStore store(dir);
//   store.load();          // prewarm: merge the existing file, if usable
//   engine.set_store(&store);
//   ... serve ...
//   store.persist();       // atomic snapshot (periodic and/or on drain)
//
// load() never fails the process: a missing file is a cold start, a file
// with an unusable header (bad magic, wrong version, truncation) is a
// logged cold start, and individually corrupt records are skipped and
// counted. persist() writes the complete current map through the atomic
// temp-and-rename path, so two processes persisting into one directory
// race only on whole-file snapshots. Spill I/O never throws either: a
// value that cannot be written is not stored, one that cannot be read
// back is a miss.
//
// Stores are registry-dependent the same way the in-memory cache is: keys
// cover job documents only, so reuse a --cache-dir only with the same
// profile packs the store was written under (docs/store.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "json/json.hpp"
#include "service/cache.hpp"
#include "store/store.hpp"

namespace qre::store {

/// Outcome of a load() prewarm, for logging and /metrics.
struct LoadResult {
  bool file_found = false;     // a store file existed at the path
  bool usable = false;         // ... and had a valid header
  std::size_t records_loaded = 0;
  std::size_t records_skipped = 0;  // per-record corruption
  std::string message;         // human-readable reason when !usable
};

class EstimateStore : public service::StoreBacking {
 public:
  /// `dir` must already exist; the store file lives at dir/estimates.qrestore
  /// and the spill file is created in it here. When no spill file can be
  /// created the store is inert (it records nothing) and says so on stderr.
  explicit EstimateStore(const std::string& dir);
  ~EstimateStore() override;

  EstimateStore(const EstimateStore&) = delete;
  EstimateStore& operator=(const EstimateStore&) = delete;

  const std::string& path() const { return path_; }

  /// Prewarms the record set from the store file (values are copied into
  /// the spill file). Safe to call on a
  /// missing or damaged file — both degrade to a cold start described by
  /// the returned LoadResult. Existing in-memory entries win over loaded
  /// ones (load after construction is the expected order).
  LoadResult load();

  // service::StoreBacking — read-through / write-through (never throws).
  std::optional<json::Value> fetch(const std::string& key) override;
  void record(const std::string& key, const json::Value& result) override;

  /// Atomically writes the current map when it changed since the last
  /// persist (or `force`). Returns whether a file was written. I/O
  /// failures are reported by returning false, never by throwing: a
  /// persistence problem must not take down serving.
  bool persist(bool force = false);

  /// Store counters for /metrics and --cache-stats:
  /// {"enabled": true, "hits", "misses", "records", "payloadBytes",
  ///  "loaded", "loadSkipped", "persists", "path"}.
  json::Value stats_to_json() const;

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t records() const;

 private:
  /// One stored record: its key and where its value sits in the spill file.
  struct Entry {
    std::string key;
    std::uint64_t offset = 0;
    std::size_t size = 0;
  };

  /// Writes `value` at the end of the spill file and indexes it under
  /// `key`. False (and nothing stored) when the write fails.
  bool append(std::string_view key, std::string_view value) QRE_REQUIRES(mutex_);
  /// Reads `entry`'s value from the spill file; false on an I/O failure.
  bool read_value(const Entry& entry, std::string& out) const;

  const std::string path_;
  const int spill_fd_;  // -1 when no spill file could be created

  mutable Mutex mutex_;
  // insertion order (oldest first); a deque, so index_'s views of the keys
  // stay valid as it grows
  std::deque<Entry> records_ QRE_GUARDED_BY(mutex_);
  // key -> records_ position
  std::unordered_map<std::string_view, std::size_t> index_ QRE_GUARDED_BY(mutex_);
  // bytes written to the spill file so far: where the next value goes
  std::uint64_t spill_end_ QRE_GUARDED_BY(mutex_) = 0;
  // adds since the last successful persist
  std::size_t dirty_adds_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t payload_bytes_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t persists_ QRE_GUARDED_BY(mutex_) = 0;
  LoadResult last_load_ QRE_GUARDED_BY(mutex_);

  // Serializes in-process persist() calls; always acquired before mutex_.
  Mutex persist_mutex_ QRE_ACQUIRED_BEFORE(mutex_);
};

}  // namespace qre::store

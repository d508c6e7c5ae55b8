#include "store/estimate_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace qre::store {

namespace {

/// Opens a file in `dir` that has no name: O_TMPFILE where the filesystem
/// supports it, else a uniquely named file unlinked at once. Each store
/// gets its own, and the kernel frees it when the descriptor closes, even
/// after a crash. Returns -1 when neither works.
int open_spill_file(const std::string& dir) {
#ifdef O_TMPFILE
  const int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (fd >= 0) return fd;
#endif
  std::string name = dir + "/.estimates.spill.XXXXXX";
  const int named = ::mkostemp(name.data(), O_CLOEXEC);
  if (named >= 0) {
    ::unlink(name.c_str());
  } else {
    std::fprintf(stderr, "store: cannot create a spill file in '%s': %s; nothing will be stored\n",
                 dir.c_str(), std::strerror(errno));
  }
  return named;
}

bool pwrite_all(int fd, std::string_view bytes, std::uint64_t offset) {
  while (!bytes.empty()) {
    const ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

}  // namespace

EstimateStore::EstimateStore(const std::string& dir)
    : path_(dir + "/" + kStoreFileName), spill_fd_(open_spill_file(dir)) {}

EstimateStore::~EstimateStore() {
  if (spill_fd_ >= 0) ::close(spill_fd_);
}

bool EstimateStore::append(std::string_view key, std::string_view value) {
  if (spill_fd_ < 0) return false;
  try {
    QRE_FAILPOINT("store.spill.write");
  } catch (const std::exception&) {
    return false;
  }
  // A failed or short write leaves bytes past spill_end_ that the next
  // append overwrites; nothing points at them.
  if (!pwrite_all(spill_fd_, value, spill_end_)) return false;
  records_.push_back({std::string(key), spill_end_, value.size()});
  index_.emplace(records_.back().key, records_.size() - 1);
  spill_end_ += value.size();
  payload_bytes_ += kRecordHeaderSize + key.size() + value.size();
  return true;
}

bool EstimateStore::read_value(const Entry& entry, std::string& out) const {
  // Spilled bytes never change once indexed, so no lock is needed here.
  out.resize(entry.size);
  std::size_t got = 0;
  while (got < entry.size) {
    const ssize_t n = ::pread(spill_fd_, out.data() + got, entry.size - got,
                              static_cast<off_t>(entry.offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

LoadResult EstimateStore::load() {
  LoadResult result;
  try {
    // Injected open/read faults degrade to the cold-start path below, the
    // same way a rejected or unreadable file does.
    QRE_FAILPOINT("store.open.before_read");
    const StoreReader reader(path_);
    // Views into the reader's mapping: each value is copied once, straight
    // into the spill file.
    std::vector<std::pair<std::string_view, std::string_view>> from_disk;
    result.records_skipped = reader.for_each(
        [&from_disk](std::string_view key, std::string_view value) {
          from_disk.emplace_back(key, value);
        });
    result.file_found = true;
    result.usable = true;
    MutexLock lock(mutex_);
    for (const auto& [key, value] : from_disk) {
      if (index_.count(key) != 0) continue;  // in-memory entries win
      if (append(key, value)) ++result.records_loaded;
    }
    last_load_ = result;
    return result;
  } catch (const Error& e) {
    // Missing file or unusable header: either way, a cold start. errno-
    // style "cannot open" is the missing-file case; everything else means
    // the file existed but was rejected (bad magic / version / truncation).
    result.message = e.what();
    result.file_found = result.message.find("cannot open") == std::string::npos;
    MutexLock lock(mutex_);
    last_load_ = result;
    return result;
  }
}

std::optional<json::Value> EstimateStore::fetch(const std::string& key) {
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  std::string value;
  if (it == index_.end() || !read_value(records_[it->second], value)) {
    ++misses_;
    return std::nullopt;
  }
  try {
    // Parsed only to validate: the value handed out is frozen over the
    // record's own bytes, so a hit is spliced into responses as stored.
    (void)json::parse(value);
  } catch (const std::exception&) {
    // A record that fails to parse (should be impossible past the CRC
    // check) degrades to a miss: the result is recomputed and rewritten.
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return json::Value::frozen(std::move(value));
}

void EstimateStore::record(const std::string& key, const json::Value& result) {
  // Error documents ({"error": {...}} results of failed batch items) are
  // deterministic but registry-shaped and cheap to recompute; keeping them
  // out of the store means a persisted corpus only ever contains real
  // estimates.
  if (service::is_error_result(result)) return;
  std::string value;
  try {
    value = result.dump();  // a frozen result's bytes, as they are
  } catch (const std::exception&) {
    return;  // un-serializable results are simply not persisted
  }
  MutexLock lock(mutex_);
  if (index_.count(key) != 0) return;  // deterministic: first write is final
  if (append(key, value)) ++dirty_adds_;
}

bool EstimateStore::persist(bool force) {
  // One persist at a time per process; snapshot the entries under the data
  // lock, then read the values back and write outside it so serving
  // threads never wait on disk I/O.
  MutexLock persist_lock(persist_mutex_);
  std::vector<Entry> entries;
  std::size_t adds_at_snapshot;
  {
    MutexLock lock(mutex_);
    if (dirty_adds_ == 0 && !force) return false;
    entries.assign(records_.begin(), records_.end());
    adds_at_snapshot = dirty_adds_;
  }
  std::vector<Record> snapshot;
  snapshot.reserve(entries.size());
  for (Entry& entry : entries) {
    Record r{std::move(entry.key), {}};
    if (!read_value(entry, r.value)) {
      std::fprintf(stderr, "store: persist to '%s' failed: cannot read a spilled value\n",
                   path_.c_str());
      return false;
    }
    snapshot.push_back(std::move(r));
  }
  try {
    write_store_file(path_, snapshot);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store: persist to '%s' failed: %s\n", path_.c_str(), e.what());
    return false;
  }
  MutexLock lock(mutex_);
  dirty_adds_ -= adds_at_snapshot;
  ++persists_;
  return true;
}

json::Value EstimateStore::stats_to_json() const {
  MutexLock lock(mutex_);
  json::Object out;
  out.emplace_back("enabled", json::Value(true));
  out.emplace_back("hits", json::Value(hits_));
  out.emplace_back("misses", json::Value(misses_));
  out.emplace_back("records", json::Value(static_cast<std::uint64_t>(records_.size())));
  out.emplace_back("payloadBytes", json::Value(payload_bytes_));
  out.emplace_back("loaded", json::Value(static_cast<std::uint64_t>(last_load_.records_loaded)));
  out.emplace_back("loadSkipped",
                   json::Value(static_cast<std::uint64_t>(last_load_.records_skipped)));
  out.emplace_back("persists", json::Value(persists_));
  out.emplace_back("path", json::Value(path_));
  return json::Value(std::move(out));
}

std::uint64_t EstimateStore::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t EstimateStore::misses() const {
  MutexLock lock(mutex_);
  return misses_;
}

std::size_t EstimateStore::records() const {
  MutexLock lock(mutex_);
  return records_.size();
}

}  // namespace qre::store

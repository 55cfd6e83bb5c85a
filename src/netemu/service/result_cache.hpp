#pragma once
// Content-addressed result cache: an in-memory LRU layer over an optional
// on-disk file, keyed by Query::cache_key().
//
// Values are the serialized result documents (JSON text), so a cache hit is
// a string copy — no recomputation, no re-serialization.  The disk file
// holds every entry present in memory at save() time; load() merges the
// file's entries as the cold end of the LRU, so a restarted daemon keeps its
// expensive beta-hat estimates but evicts them first if the working set has
// moved on.
//
// Crash safety: the v2 disk format is line-delimited — a header line, then
// one checksummed JSON object per entry, hot to cold.  Writes go to a temp
// file renamed into place, so an interrupted save normally leaves the old
// file untouched; if a torn file does reach disk (power loss between the
// data write and the rename barrier, fs corruption, an injected fault), the
// loader verifies each line's checksum independently, quarantines bad
// entries (counted, skipped) and keeps every intact one — it never aborts
// and never crashes.  The v1 whole-document format is still read.
//
// Write-ahead journal (opt-in): with journaling on, every live put() also
// appends a checksummed entry line to `<path>.wal` and fsyncs it, so a
// process killed between snapshots (SIGKILL, power loss) rejoins warm:
// load() reads the snapshot, then replays the journal on top of it (newer
// entries win).  A successful save() resets the journal — it only ever
// holds the entries written since the last complete snapshot.  Journal
// lines use the same per-entry checksum as the snapshot, so a tear at any
// byte offset costs at most the entries past the tear (see docs/SERVICE.md).
//
// Thread-safe; every public method takes the internal mutex.

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace netemu {

class FaultInjector;

class ResultCache {
 public:
  /// capacity = max resident entries (>= 1); path empty = memory-only.
  /// journal = append live puts to `<path>.wal` (ignored without a path).
  explicit ResultCache(std::size_t capacity, std::string path = "",
                       bool journal = false);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Lookup; refreshes LRU recency on hit.  The cache counts nothing: its
  /// owner counts hits and misses where a request probes it
  /// (netemu_cache_{hits,misses}_total in the executor's registry).
  std::optional<std::string> get(std::uint64_t key);

  /// The same lookup under the name of the fast path's probe.
  std::optional<std::string> get_if_hit(std::uint64_t key) { return get(key); }

  /// Insert or overwrite; evicts the least-recently-used entry when full.
  /// With journaling on, also appends the entry to the WAL (fsync'd).
  void put(std::uint64_t key, std::string value);

  /// Merge entries from the disk file (oldest recency; existing in-memory
  /// entries win), then — with journaling on — replay the WAL on top (WAL
  /// entries are newer than the snapshot, so they win and land hot).
  /// Corrupt entries are quarantined (see corrupt_entries()) and loading
  /// continues.  False when neither a snapshot nor any journal entry
  /// survives.
  bool load();

  /// Write every resident entry to the disk file (atomic temp-file+rename,
  /// per-entry checksums), then reset the WAL — its entries are now in the
  /// snapshot.  False when the cache has no path or the write fails (see
  /// save_failures()); a failed save leaves the WAL untouched.
  bool save();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  const std::string& path() const { return path_; }
  bool journal_enabled() const { return journal_; }
  /// The journal sits beside the snapshot: `<path>.wal`.
  std::string wal_path() const { return path_.empty() ? "" : path_ + ".wal"; }

  /// Disk entries dropped by load() for checksum/parse failures.
  std::uint64_t corrupt_entries() const;
  /// save() calls that did not produce a complete file.
  std::uint64_t save_failures() const;
  /// Journal entry lines appended (fsync'd) so far.
  std::uint64_t wal_appends() const;
  /// Journal entries recovered by the last load().
  std::uint64_t wal_replayed() const;
  /// Journal appends that failed (write error or injected disk fault).
  std::uint64_t wal_append_failures() const;

  /// Check that `path` (and, by extension, the WAL beside it) is writable
  /// by creating and removing a probe file.  Sets *error to an actionable
  /// message on failure.  Static so callers can check before constructing.
  static bool probe_path(const std::string& path, std::string* error);

  /// Route persistence through a fault injector (chaos testing): saves may
  /// fail cleanly or leave a torn (truncated) file behind; journal appends
  /// share the same fault stream.  Not owned; must outlive the cache.
  /// nullptr disables.
  void set_fault_injector(FaultInjector* injector);

 private:
  struct Entry {
    std::uint64_t key;
    std::string value;
  };

  void put_locked(std::uint64_t key, std::string value, bool front);
  bool load_v1(const std::string& text);
  bool load_snapshot();
  bool replay_wal_locked();
  void wal_append_locked(std::uint64_t key, const std::string& value);
  bool wal_open_locked(bool truncate);
  void wal_reset_locked();

  const std::size_t capacity_;
  const std::string path_;
  const bool journal_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t corrupt_entries_ = 0;
  std::uint64_t save_failures_ = 0;
  std::uint64_t wal_appends_ = 0;
  std::uint64_t wal_replayed_ = 0;
  std::uint64_t wal_append_failures_ = 0;
  int wal_fd_ = -1;
  FaultInjector* faults_ = nullptr;
};

}  // namespace netemu

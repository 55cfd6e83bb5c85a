#include "netemu/service/result_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "netemu/faultline/injector.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/json.hpp"

namespace netemu {

namespace {

constexpr const char* kHeaderV2 = R"({"format":"netemu-result-cache-v2"})";
constexpr const char* kWalHeader = R"({"format":"netemu-result-wal-v1"})";

/// Per-entry checksum: covers both the key and the value so a line whose
/// bytes were spliced from two entries cannot verify.
std::string entry_sum(const std::string& key_hex, const std::string& value) {
  return hex64(fnv1a64(value, fnv1a64(key_hex)));
}

/// One snapshot/journal entry line (without trailing newline): the formats
/// share it so the loader and the replayer share the validation path.
void append_entry_line(std::string& out, std::uint64_t key,
                       const std::string& value) {
  const std::string key_hex = hex64(key);
  out += R"({"key":")";
  out += key_hex;
  out += R"(","sum":")";
  out += entry_sum(key_hex, value);
  out += R"(","value":")";
  json_escape(value, out);
  out += "\"}";
}

/// Validate one checksummed entry line; true and fills key/value when the
/// line is intact.
bool parse_entry_line(const std::string& line, std::uint64_t& key,
                      std::string& value) {
  std::string error;
  const Json entry = Json::parse(line, &error);
  if (!error.empty() || !entry.is_object() ||
      !parse_hex64(entry["key"].as_string(), key) ||
      !entry["value"].is_string() ||
      entry["sum"].as_string() !=
          entry_sum(entry["key"].as_string(), entry["value"].as_string())) {
    return false;
  }
  value = entry["value"].as_string();
  return true;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, std::string path, bool journal)
    : capacity_(capacity == 0 ? 1 : capacity),
      path_(std::move(path)),
      journal_(journal && !path_.empty()) {}

ResultCache::~ResultCache() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

void ResultCache::set_fault_injector(FaultInjector* injector) {
  std::lock_guard lock(mutex_);
  faults_ = injector;
}

std::optional<std::string> ResultCache::get(std::uint64_t key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void ResultCache::put(std::uint64_t key, std::string value) {
  std::lock_guard lock(mutex_);
  if (journal_) wal_append_locked(key, value);
  put_locked(key, std::move(value), /*front=*/true);
}

void ResultCache::put_locked(std::uint64_t key, std::string value,
                             bool front) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    if (front) lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    // A cold (load-time) insert never displaces a live entry.
    if (!front) return;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  if (front) {
    lru_.push_front(Entry{key, std::move(value)});
    index_[key] = lru_.begin();
  } else {
    lru_.push_back(Entry{key, std::move(value)});
    index_[key] = std::prev(lru_.end());
  }
}

bool ResultCache::wal_open_locked(bool truncate) {
  if (wal_fd_ >= 0 && !truncate) return true;
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  wal_fd_ = ::open(wal_path().c_str(), flags, 0644);
  if (wal_fd_ < 0) return false;
  // A fresh (empty) journal starts with its header line so a reader can
  // tell an intact empty journal from a torn one.
  const off_t end = ::lseek(wal_fd_, 0, SEEK_END);
  if (end == 0) {
    std::string header = kWalHeader;
    header += '\n';
    if (::write(wal_fd_, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size())) {
      ::close(wal_fd_);
      wal_fd_ = -1;
      return false;
    }
  }
  return true;
}

void ResultCache::wal_append_locked(std::uint64_t key,
                                    const std::string& value) {
  if (!wal_open_locked(/*truncate=*/false)) {
    ++wal_append_failures_;
    return;
  }
  std::string line;
  append_entry_line(line, key, value);
  line += '\n';

  // Journal appends share the save() fault stream: a clean failure skips
  // the write, a torn one persists only a prefix — both are what a crash
  // mid-append leaves behind, and both must be absorbed by replay.
  std::size_t write_bytes = line.size();
  bool torn = false;
  if (faults_) {
    double fraction = 1.0;
    switch (faults_->on_disk_write(fraction)) {
      case FaultInjector::DiskFault::kFail:
        ++wal_append_failures_;
        return;
      case FaultInjector::DiskFault::kTorn:
        torn = true;
        write_bytes = static_cast<std::size_t>(
            static_cast<double>(line.size()) * fraction);
        break;
      case FaultInjector::DiskFault::kNone:
        break;
    }
  }
  ssize_t wrote;
  do {
    wrote = ::write(wal_fd_, line.data(), write_bytes);
  } while (wrote < 0 && errno == EINTR);
  if (wrote != static_cast<ssize_t>(write_bytes) || torn) {
    ++wal_append_failures_;
    return;
  }
  // The fsync is the durability point: once it returns, a SIGKILL'd
  // process recovers this entry on restart.
  if (::fsync(wal_fd_) != 0) {
    ++wal_append_failures_;
    return;
  }
  ++wal_appends_;
}

void ResultCache::wal_reset_locked() {
  // The snapshot now holds everything the journal did; start it over.
  if (!wal_open_locked(/*truncate=*/true)) ++wal_append_failures_;
}

bool ResultCache::replay_wal_locked() {
  std::ifstream in(wal_path());
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header)) return false;
  bool header_ok = header == kWalHeader;
  std::string line = header_ok ? "" : header;
  wal_replayed_ = 0;
  // Journal entries are strictly newer than the snapshot: replay them hot,
  // overwriting snapshot values.  Each line stands alone; a torn or merged
  // line is quarantined and replay continues.
  const auto replay_line = [this](const std::string& l) {
    if (l.empty()) return;
    std::uint64_t key = 0;
    std::string value;
    if (!parse_entry_line(l, key, value)) {
      ++corrupt_entries_;
      return;
    }
    put_locked(key, std::move(value), /*front=*/true);
    ++wal_replayed_;
  };
  replay_line(line);
  while (std::getline(in, line)) replay_line(line);
  return header_ok || wal_replayed_ > 0;
}

bool ResultCache::load_v1(const std::string& text) {
  std::string error;
  const Json doc = Json::parse(text, &error);
  if (!error.empty() || !doc.is_object()) return false;
  const Json& entries = doc["entries"];
  if (!entries.is_array()) return false;

  std::lock_guard lock(mutex_);
  for (const Json& entry : entries.items()) {
    std::uint64_t key = 0;
    if (!parse_hex64(entry["key"].as_string(), key)) {
      ++corrupt_entries_;
      continue;
    }
    const Json& value = entry["value"];
    if (!value.is_string()) {
      ++corrupt_entries_;
      continue;
    }
    if (index_.count(key)) continue;
    put_locked(key, value.as_string(), /*front=*/false);
  }
  return true;
}

bool ResultCache::load_snapshot() {
  std::ifstream in(path_);
  if (!in) return false;

  std::string header;
  if (!std::getline(in, header)) return false;
  if (header != kHeaderV2) {
    // Not the line format: fall back to the v1 whole-document layout.
    std::stringstream buffer;
    buffer << header << "\n" << in.rdbuf();
    return load_v1(buffer.str());
  }

  // v2: one checksummed entry per line, hot to cold.  Every line stands
  // alone — a torn or corrupted line is quarantined and loading continues,
  // so a crash mid-write costs at most the entries past the tear.
  std::lock_guard lock(mutex_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // A final line without its '\n' is a torn tail: its checksum decides.
    std::uint64_t key = 0;
    std::string value;
    if (!parse_entry_line(line, key, value)) {
      ++corrupt_entries_;
      continue;
    }
    // File entries enter at the cold end and never displace what the live
    // process already cached.
    if (index_.count(key)) continue;
    put_locked(key, std::move(value), /*front=*/false);
  }
  return true;
}

bool ResultCache::load() {
  if (path_.empty()) return false;
  const bool snapshot = load_snapshot();
  if (!journal_) return snapshot;
  std::lock_guard lock(mutex_);
  const bool replayed = replay_wal_locked();
  return snapshot || replayed;
}

bool ResultCache::save() {
  if (path_.empty()) return false;

  std::string payload = kHeaderV2;
  payload += '\n';
  FaultInjector* faults = nullptr;
  std::uint64_t appends_at_snapshot = 0;
  {
    std::lock_guard lock(mutex_);
    faults = faults_;
    appends_at_snapshot = wal_appends_;
    // Dump hot-to-cold: load() appends file entries in order at the cold
    // end of an empty list, which reconstructs exactly this recency order.
    for (const Entry& e : lru_) {
      append_entry_line(payload, e.key, e.value);
      payload += '\n';
    }
  }

  // Fault hooks: a clean failure writes nothing; a torn write truncates the
  // payload and still renames it into place, simulating a crash that beat
  // the rename barrier — exactly what the checksummed loader must survive.
  std::size_t write_bytes = payload.size();
  bool torn = false;
  if (faults) {
    double fraction = 1.0;
    switch (faults->on_disk_write(fraction)) {
      case FaultInjector::DiskFault::kFail: {
        std::lock_guard lock(mutex_);
        ++save_failures_;
        return false;
      }
      case FaultInjector::DiskFault::kTorn:
        torn = true;
        write_bytes = static_cast<std::size_t>(
            static_cast<double>(payload.size()) * fraction);
        break;
      case FaultInjector::DiskFault::kNone:
        break;
    }
  }

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      std::lock_guard lock(mutex_);
      ++save_failures_;
      return false;
    }
    out.write(payload.data(), static_cast<std::streamsize>(write_bytes));
    if (!out.good()) {
      std::lock_guard lock(mutex_);
      ++save_failures_;
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::lock_guard lock(mutex_);
    ++save_failures_;
    return false;
  }
  if (torn) {
    std::lock_guard lock(mutex_);
    ++save_failures_;
    return false;
  }
  if (journal_) {
    std::lock_guard lock(mutex_);
    // Reset only if no put() journaled a new entry while the snapshot was
    // being written — those entries are NOT in the file just renamed, and
    // truncating them away would lose them to the next crash.
    if (wal_appends_ == appends_at_snapshot) wal_reset_locked();
  }
  return true;
}

bool ResultCache::probe_path(const std::string& path, std::string* error) {
  if (path.empty()) {
    if (error) *error = "cache path is empty";
    return false;
  }
  const std::string probe = path + ".probe";
  const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error) {
      *error = "cache path '" + path + "' is not writable: " +
               std::strerror(errno);
    }
    return false;
  }
  ::close(fd);
  ::unlink(probe.c_str());
  if (error) error->clear();
  return true;
}

std::size_t ResultCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

std::uint64_t ResultCache::corrupt_entries() const {
  std::lock_guard lock(mutex_);
  return corrupt_entries_;
}

std::uint64_t ResultCache::save_failures() const {
  std::lock_guard lock(mutex_);
  return save_failures_;
}

std::uint64_t ResultCache::wal_appends() const {
  std::lock_guard lock(mutex_);
  return wal_appends_;
}

std::uint64_t ResultCache::wal_replayed() const {
  std::lock_guard lock(mutex_);
  return wal_replayed_;
}

std::uint64_t ResultCache::wal_append_failures() const {
  std::lock_guard lock(mutex_);
  return wal_append_failures_;
}

}  // namespace netemu

#include "store/result_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "store/segment.h"
#include "support/check.h"
#include "support/strings.h"

namespace bfdn {
namespace {

namespace fs = std::filesystem;

[[noreturn]] void fail_errno(const std::string& what,
                             const std::string& path) {
  const int err = errno;
  throw CheckError(str_format("%s %s: %s", what.c_str(), path.c_str(),
                              std::strerror(err)));
}

void pwrite_all(int fd, const char* data, std::size_t size,
                std::uint64_t offset, const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::pwrite(fd, data + written, size - written,
                               static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("pwrite", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

bool pread_all(int fd, char* data, std::size_t size, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, data + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // short file: treat as missing
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ResultStore::ResultStore(StoreOptions options)
    : options_(std::move(options)) {
  BFDN_REQUIRE(!options_.dir.empty(), "store: dir must not be empty");
  BFDN_REQUIRE(options_.segment_bytes >= 4096,
               "store: segment_bytes must be >= 4096");
  BFDN_REQUIRE(options_.flush_interval_ms >= 1,
               "store: flush_interval_ms must be >= 1");
  {
    MutexLock lock(mutex_);
    recover_locked();
  }
  flusher_ = std::thread([this] { flusher_loop(); });
}

ResultStore::~ResultStore() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    flush_requested_ = true;
    // Notify under the lock (same convention as the scheduler/pool
    // teardowns): an unlocked notify races the flusher's final
    // predicate check and exit.
    flusher_cv_.notify_all();
  }
  flusher_.join();
  // The flusher is gone and no API call can be live during destruction,
  // but the close loop still takes the lock: segments_ is guarded, and
  // the analysis does not exempt destructors.
  MutexLock lock(mutex_);
  for (Segment& segment : segments_) close_segment(&segment);
}

ResultStore::Segment ResultStore::open_segment(const std::string& path,
                                               bool create) {
  Segment segment;
  segment.path = path;
  const int flags = O_RDWR | O_CLOEXEC | (create ? O_CREAT : 0);
  segment.fd = ::open(path.c_str(), flags, 0644);
  if (segment.fd < 0) fail_errno("open", path);
  if (create) {
    pwrite_all(segment.fd, store::kSegmentMagic,
               store::kSegmentHeaderBytes, 0, path);
    segment.size = store::kSegmentHeaderBytes;
  } else {
    struct stat st {};
    if (::fstat(segment.fd, &st) != 0) fail_errno("fstat", path);
    segment.size = static_cast<std::size_t>(st.st_size);
  }
  return segment;
}

void ResultStore::close_segment(Segment* segment) {
  if (segment->map != nullptr) {
    ::munmap(const_cast<char*>(segment->map), segment->map_bytes);
    segment->map = nullptr;
    segment->map_bytes = 0;
  }
  if (segment->fd >= 0) {
    ::close(segment->fd);
    segment->fd = -1;
  }
}

void ResultStore::recover_locked() {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  BFDN_REQUIRE(!ec, "store: cannot create directory " + options_.dir +
                        ": " + ec.message());

  std::vector<std::pair<std::uint64_t, std::string>> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    const std::uint64_t sequence = store::parse_segment_file_name(name);
    if (sequence > 0) files.emplace_back(sequence, entry.path().string());
  }
  std::sort(files.begin(), files.end());

  for (const auto& [sequence, path] : files) {
    Segment segment = open_segment(path, /*create=*/false);
    next_sequence_ = std::max(next_sequence_, sequence + 1);

    // A file too short for its magic (or with the wrong magic) is a
    // crash during creation or foreign data: reset it to an empty
    // segment rather than guessing at its framing.
    bool reset = segment.size < store::kSegmentHeaderBytes;
    if (!reset) {
      char magic[store::kSegmentHeaderBytes];
      if (!pread_all(segment.fd, magic, sizeof(magic), 0) ||
          std::memcmp(magic, store::kSegmentMagic, sizeof(magic)) != 0) {
        reset = true;
      }
    }
    if (reset) {
      if (segment.size > 0) ++stats_.torn_tail_truncations;
      if (::ftruncate(segment.fd, 0) != 0) fail_errno("ftruncate", path);
      pwrite_all(segment.fd, store::kSegmentMagic,
                 store::kSegmentHeaderBytes, 0, path);
      segment.size = store::kSegmentHeaderBytes;
      segments_.push_back(segment);
      continue;
    }

    // Map the file and walk its records. The mapping outlives recovery:
    // it is the zero-copy read path for everything this boot inherited.
    void* map = ::mmap(nullptr, segment.size, PROT_READ, MAP_SHARED,
                       segment.fd, 0);
    if (map == MAP_FAILED) fail_errno("mmap", path);
    segment.map = static_cast<const char*>(map);
    segment.map_bytes = segment.size;

    const auto segment_index =
        static_cast<std::uint32_t>(segments_.size());
    std::size_t offset = store::kSegmentHeaderBytes;
    while (offset < segment.size) {
      store::DecodedRecord record;
      const store::RecordStatus status =
          store::decode_record(segment.map, segment.size, offset, &record);
      if (status == store::RecordStatus::kTorn) {
        // The half-appended bytes of an interrupted group commit:
        // truncate them away so the next append starts on a clean tail.
        ++stats_.torn_tail_truncations;
        ::munmap(const_cast<char*>(segment.map), segment.map_bytes);
        if (::ftruncate(segment.fd, static_cast<off_t>(offset)) != 0) {
          fail_errno("ftruncate", path);
        }
        segment.size = offset;
        segment.map_bytes = offset;
        void* remap = ::mmap(nullptr, segment.size, PROT_READ, MAP_SHARED,
                             segment.fd, 0);
        if (remap == MAP_FAILED) fail_errno("mmap", path);
        segment.map = static_cast<const char*>(remap);
        break;
      }
      if (status == store::RecordStatus::kOk) {
        Location location;
        location.segment = segment_index;
        location.payload_len = record.payload_len;
        location.offset = offset;
        index_[record.fingerprint] = location;  // last write wins
        ++stats_.recovered_records;
      } else {
        ++stats_.corrupted_skipped;
      }
      offset += record.frame_bytes;
    }
    segments_.push_back(segment);
  }

  stats_.segments = static_cast<std::int64_t>(segments_.size());
  stats_.records = static_cast<std::int64_t>(index_.size());
  stats_.file_bytes = 0;
  for (const Segment& segment : segments_) {
    stats_.file_bytes += static_cast<std::int64_t>(segment.size);
  }
}

std::size_t ResultStore::active_segment_locked() {
  if (segments_.empty() ||
      segments_.back().size >= options_.segment_bytes) {
    const std::string path =
        (fs::path(options_.dir) /
         store::segment_file_name(next_sequence_++))
            .string();
    segments_.push_back(open_segment(path, /*create=*/true));
    stats_.segments = static_cast<std::int64_t>(segments_.size());
  }
  return segments_.size() - 1;
}

std::optional<std::string> ResultStore::read_record(
    const Location& location) {
  const Segment& segment = segments_[location.segment];
  const std::size_t frame = store::record_frame_bytes(location.payload_len);
  if (location.offset + frame <= segment.map_bytes) {
    // Boot-inherited record: serve straight from the mapping.
    store::DecodedRecord record;
    if (store::decode_record(segment.map, segment.map_bytes,
                             location.offset,
                             &record) != store::RecordStatus::kOk) {
      return std::nullopt;
    }
    return std::string(record.payload, record.payload_len);
  }
  // Appended this process: pread past the mapped prefix.
  std::string frame_bytes(frame, '\0');
  if (!pread_all(segment.fd, frame_bytes.data(), frame,
                 location.offset)) {
    return std::nullopt;
  }
  store::DecodedRecord record;
  if (store::decode_record(frame_bytes.data(), frame, 0, &record) !=
      store::RecordStatus::kOk) {
    return std::nullopt;
  }
  return std::string(record.payload, record.payload_len);
}

std::optional<std::string> ResultStore::lookup_locked(std::uint64_t key) {
  const auto pending_it = pending_.find(key);
  if (pending_it != pending_.end()) return pending_it->second;
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  auto payload = read_record(it->second);
  if (!payload.has_value()) {
    // Checksum failed at read time: never serve the bytes. Dropping the
    // index entry lets the caller's recompute overwrite the record.
    ++stats_.corrupted_skipped;
    index_.erase(it);
    stats_.records = static_cast<std::int64_t>(index_.size());
  }
  return payload;
}

std::optional<std::string> ResultStore::get(std::uint64_t key) {
  MutexLock lock(mutex_);
  ++stats_.lookups;
  auto payload = lookup_locked(key);
  if (payload.has_value()) ++stats_.hits;
  return payload;
}

void ResultStore::get_many(const std::vector<std::uint64_t>& keys,
                           std::vector<std::optional<std::string>>* out) {
  out->assign(keys.size(), std::nullopt);
  MutexLock lock(mutex_);
  ++stats_.bulk_lookups;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    (*out)[i] = lookup_locked(keys[i]);
    if ((*out)[i].has_value()) ++stats_.bulk_key_hits;
  }
}

void ResultStore::put(std::uint64_t key, std::string_view payload) {
  BFDN_REQUIRE(payload.size() <= store::kMaxPayloadBytes,
               "store: payload too large");
  MutexLock lock(mutex_);
  if (stopping_) return;
  if (index_.count(key) != 0 || pending_.count(key) != 0) return;
  pending_.emplace(key, std::string(payload));
  pending_order_.push_back(key);
  pending_bytes_ += store::record_frame_bytes(payload.size());
  stats_.pending_records =
      static_cast<std::int64_t>(pending_order_.size());
  if (pending_bytes_ >= options_.flush_bytes) flusher_cv_.notify_all();
}

void ResultStore::flush() {
  MutexLock lock(mutex_);
  flush_requested_ = true;
  flusher_cv_.notify_all();
  flushed_cv_.wait(lock.native(), [this] {
    mutex_.assert_held();
    return pending_order_.empty() && !flush_in_flight_;
  });
}

void ResultStore::flusher_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    flusher_cv_.wait_for(
        lock.native(), std::chrono::milliseconds(options_.flush_interval_ms),
        [this] {
          mutex_.assert_held();
          return stopping_ || flush_requested_ ||
                 pending_bytes_ >= options_.flush_bytes;
        });
    if (pending_order_.empty()) {
      // Nothing buffered: acknowledge any flush() waiter and idle on.
      flush_requested_ = false;
      flushed_cv_.notify_all();
      if (stopping_) return;
      continue;
    }
    // Reaching here with a non-empty buffer means either a trigger
    // fired or the age deadline passed — both flush the whole batch.
    flush_batch(lock);
    flushed_cv_.notify_all();
  }
}

void ResultStore::flush_batch(MutexLock& lock) {
  // Snapshot the batch (keys stay visible in pending_ for readers) and
  // plan every record's final location, creating/rotating segments as
  // needed — those are rare, cheap operations; the bulk IO below runs
  // with the lock released so gets and puts never wait on fdatasync.
  const std::size_t batch_size = pending_order_.size();
  struct WriteOp {
    std::size_t segment;
    std::uint64_t offset;
    std::string buffer;
  };
  std::vector<WriteOp> ops;
  std::vector<std::pair<std::uint64_t, Location>> placements;
  placements.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    const std::uint64_t key = pending_order_[i];
    const std::string& payload = pending_.at(key);
    const std::size_t frame = store::record_frame_bytes(payload.size());
    std::size_t seg = active_segment_locked();
    if (segments_[seg].size + frame > options_.segment_bytes &&
        segments_[seg].size > store::kSegmentHeaderBytes) {
      // This frame would overflow the active segment: rotate now so a
      // record never straddles a file boundary.
      const std::string path =
          (fs::path(options_.dir) /
           store::segment_file_name(next_sequence_++))
              .string();
      segments_.push_back(open_segment(path, /*create=*/true));
      stats_.segments = static_cast<std::int64_t>(segments_.size());
      seg = segments_.size() - 1;
    }
    if (ops.empty() || ops.back().segment != seg) {
      ops.push_back({seg, segments_[seg].size, std::string()});
    }
    Location location;
    location.segment = static_cast<std::uint32_t>(seg);
    location.payload_len = static_cast<std::uint32_t>(payload.size());
    location.offset = segments_[seg].size;
    placements.emplace_back(key, location);
    store::encode_record(key, payload, &ops.back().buffer);
    segments_[seg].size += frame;
  }

  flush_in_flight_ = true;
  const bool sync = options_.sync_on_flush;
  // Release the native handle around the bulk IO. The static analysis
  // cannot see through native(), so it still treats mutex_ as held —
  // which is fine: flush_in_flight_ fences the planned segments, and
  // every mutation below the re-lock really is under the mutex.
  lock.native().unlock();

  std::int64_t bytes = 0;
  std::int64_t syncs = 0;
  std::int64_t locked_io = 0;  // IO calls below made holding the mutex
  for (const WriteOp& op : ops) {
    const Segment& segment = segments_[op.segment];
    locked_io += lock.native().owns_lock() ? 1 : 0;
    pwrite_all(segment.fd, op.buffer.data(), op.buffer.size(), op.offset,
               segment.path);
    bytes += static_cast<std::int64_t>(op.buffer.size());
  }
  if (sync) {
    // One fdatasync per touched segment, not per record: the group
    // commit amortizes durability over the whole batch.
    std::size_t last_synced = static_cast<std::size_t>(-1);
    for (const WriteOp& op : ops) {
      if (op.segment == last_synced) continue;
      locked_io += lock.native().owns_lock() ? 1 : 0;
      ::fdatasync(segments_[op.segment].fd);
      last_synced = op.segment;
      ++syncs;
    }
  }

  lock.native().lock();
  for (const auto& [key, location] : placements) {
    index_[key] = location;
    pending_.erase(key);
  }
  pending_order_.erase(pending_order_.begin(),
                       pending_order_.begin() +
                           static_cast<std::ptrdiff_t>(batch_size));
  pending_bytes_ = 0;
  for (const std::uint64_t key : pending_order_) {
    pending_bytes_ += store::record_frame_bytes(pending_.at(key).size());
  }
  stats_.pending_records =
      static_cast<std::int64_t>(pending_order_.size());
  stats_.appended_records += static_cast<std::int64_t>(batch_size);
  stats_.appended_bytes += bytes;
  ++stats_.flushes;
  stats_.syncs += syncs;
  stats_.locked_io += locked_io;
  stats_.records = static_cast<std::int64_t>(index_.size());
  stats_.file_bytes = 0;
  for (const Segment& segment : segments_) {
    stats_.file_bytes += static_cast<std::int64_t>(segment.size);
  }
  flush_in_flight_ = false;
  flush_requested_ = false;
}

void ResultStore::sync_directory() {
  const int fd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

ResultStore::CompactResult ResultStore::compact(
    const std::vector<std::uint64_t>& live_keys) {
  flush();
  MutexLock lock(mutex_);
  // flush() drained the buffer and nothing can start a new group commit
  // while we hold the mutex, so the index and the files agree.
  BFDN_CHECK(pending_order_.empty() && !flush_in_flight_,
             "compact: flush left pending records");

  CompactResult result;
  result.segments_before = static_cast<std::int64_t>(segments_.size());
  for (const Segment& segment : segments_) {
    result.bytes_before += static_cast<std::int64_t>(segment.size);
  }

  const std::unordered_set<std::uint64_t> live(live_keys.begin(),
                                               live_keys.end());

  // Walk the old segments in file order (deterministic output) and
  // collect the latest copy of every live record into new segment
  // buffers.
  std::vector<std::string> new_buffers;
  std::int64_t kept = 0;
  std::int64_t dropped = 0;
  for (std::size_t seg = 0; seg < segments_.size(); ++seg) {
    const Segment& segment = segments_[seg];
    std::string file_bytes(segment.size, '\0');
    if (segment.size > 0 &&
        !pread_all(segment.fd, file_bytes.data(), segment.size, 0)) {
      fail_errno("pread", segment.path);
    }
    std::size_t offset = store::kSegmentHeaderBytes;
    while (offset < file_bytes.size()) {
      store::DecodedRecord record;
      const store::RecordStatus status = store::decode_record(
          file_bytes.data(), file_bytes.size(), offset, &record);
      if (status == store::RecordStatus::kTorn) break;
      if (status == store::RecordStatus::kOk) {
        const auto it = index_.find(record.fingerprint);
        const bool latest = it != index_.end() &&
                            it->second.segment == seg &&
                            it->second.offset == offset;
        if (latest && live.count(record.fingerprint) != 0) {
          if (new_buffers.empty() ||
              store::kSegmentHeaderBytes + new_buffers.back().size() +
                      record.frame_bytes >
                  options_.segment_bytes) {
            new_buffers.emplace_back();
          }
          store::encode_record(
              record.fingerprint,
              std::string_view(record.payload, record.payload_len),
              &new_buffers.back());
          ++kept;
        } else if (latest) {
          ++dropped;
        }
      }
      offset += record.frame_bytes;
    }
  }

  // Write the new generation under higher sequence numbers, then delete
  // the old one. A crash in between leaves both generations on disk;
  // last-wins recovery reads the new records and the next compaction
  // reclaims the space — never a lost live record.
  std::vector<Segment> new_segments;
  std::unordered_map<std::uint64_t, Location> new_index;
  for (std::string& buffer : new_buffers) {
    const std::string path =
        (fs::path(options_.dir) /
         store::segment_file_name(next_sequence_++))
            .string();
    Segment segment = open_segment(path, /*create=*/true);
    pwrite_all(segment.fd, buffer.data(), buffer.size(),
               store::kSegmentHeaderBytes, path);
    segment.size = store::kSegmentHeaderBytes + buffer.size();
    if (options_.sync_on_flush) ::fdatasync(segment.fd);
    void* map = ::mmap(nullptr, segment.size, PROT_READ, MAP_SHARED,
                       segment.fd, 0);
    if (map == MAP_FAILED) fail_errno("mmap", path);
    segment.map = static_cast<const char*>(map);
    segment.map_bytes = segment.size;

    // Re-scan the freshly written buffer to rebuild index locations.
    const auto segment_index =
        static_cast<std::uint32_t>(new_segments.size());
    std::size_t offset = store::kSegmentHeaderBytes;
    while (offset < segment.size) {
      store::DecodedRecord record;
      BFDN_CHECK(store::decode_record(segment.map, segment.size, offset,
                                      &record) == store::RecordStatus::kOk,
                 "compact: rewritten record failed validation");
      Location location;
      location.segment = segment_index;
      location.payload_len = record.payload_len;
      location.offset = offset;
      new_index[record.fingerprint] = location;
      offset += record.frame_bytes;
    }
    new_segments.push_back(segment);
  }

  for (Segment& segment : segments_) {
    const std::string path = segment.path;
    close_segment(&segment);
    ::unlink(path.c_str());
  }
  segments_ = std::move(new_segments);
  index_ = std::move(new_index);
  if (options_.sync_on_flush) sync_directory();

  ++stats_.compactions;
  stats_.compaction_dropped += dropped;
  stats_.segments = static_cast<std::int64_t>(segments_.size());
  stats_.records = static_cast<std::int64_t>(index_.size());
  stats_.file_bytes = 0;
  for (const Segment& segment : segments_) {
    stats_.file_bytes += static_cast<std::int64_t>(segment.size);
  }

  result.segments_after = stats_.segments;
  result.bytes_after = stats_.file_bytes;
  result.kept = kept;
  result.dropped = dropped;
  return result;
}

std::string ResultStore::export_live(std::int64_t* records) {
  flush();
  MutexLock lock(mutex_);
  // Fingerprint order: the exported image is deterministic for a given
  // live set regardless of arrival order, so tests can pin its bytes.
  std::vector<std::uint64_t> keys;
  keys.reserve(index_.size());
  for (const auto& [key, location] : index_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  std::string image(store::kSegmentMagic, store::kSegmentHeaderBytes);
  std::int64_t exported = 0;
  for (const std::uint64_t key : keys) {
    const auto it = index_.find(key);
    const auto payload = read_record(it->second);
    if (!payload.has_value()) {
      // Checksum failed at read time — never ship bytes we would not
      // serve ourselves.
      ++stats_.corrupted_skipped;
      continue;
    }
    store::encode_record(key, *payload, &image);
    ++exported;
  }
  ++stats_.exports;
  stats_.exported_records += exported;
  if (records != nullptr) *records = exported;
  return image;
}

ResultStore::ImportResult ResultStore::install_segment(
    std::string_view image) {
  BFDN_REQUIRE(image.size() >= store::kSegmentHeaderBytes &&
                   std::memcmp(image.data(), store::kSegmentMagic,
                               store::kSegmentHeaderBytes) == 0,
               "store: shipped segment has wrong magic");

  MutexLock lock(mutex_);
  ImportResult result;

  // Write the image verbatim as the next segment file before indexing
  // anything, so every record we admit is already durable and the file
  // replays identically on the next boot's recovery scan.
  const std::string path =
      (fs::path(options_.dir) / store::segment_file_name(next_sequence_++))
          .string();
  Segment segment = open_segment(path, /*create=*/true);
  pwrite_all(segment.fd, image.data() + store::kSegmentHeaderBytes,
             image.size() - store::kSegmentHeaderBytes,
             store::kSegmentHeaderBytes, path);
  segment.size = image.size();
  if (options_.sync_on_flush) {
    ::fdatasync(segment.fd);
  }

  void* map = ::mmap(nullptr, segment.size, PROT_READ, MAP_SHARED,
                     segment.fd, 0);
  if (map == MAP_FAILED) fail_errno("mmap", path);
  segment.map = static_cast<const char*>(map);
  segment.map_bytes = segment.size;

  // The same scan recovery runs at boot: checksums re-verified from the
  // mapped file, corrupt frames skipped and counted, a torn tail
  // truncated away.
  const auto segment_index = static_cast<std::uint32_t>(segments_.size());
  std::size_t offset = store::kSegmentHeaderBytes;
  while (offset < segment.size) {
    store::DecodedRecord record;
    const store::RecordStatus status =
        store::decode_record(segment.map, segment.size, offset, &record);
    if (status == store::RecordStatus::kTorn) {
      result.torn_truncated = 1;
      ++stats_.import_torn;
      ::munmap(const_cast<char*>(segment.map), segment.map_bytes);
      if (::ftruncate(segment.fd, static_cast<off_t>(offset)) != 0) {
        fail_errno("ftruncate", path);
      }
      segment.size = offset;
      segment.map_bytes = offset;
      void* remap = ::mmap(nullptr, segment.size, PROT_READ, MAP_SHARED,
                           segment.fd, 0);
      if (remap == MAP_FAILED) fail_errno("mmap", path);
      segment.map = static_cast<const char*>(remap);
      break;
    }
    if (status == store::RecordStatus::kOk) {
      ++result.records;
      if (index_.count(record.fingerprint) != 0 ||
          pending_.count(record.fingerprint) != 0) {
        // Deterministic results: the resident copy is byte-identical,
        // keep it and leave this frame as dead weight for compaction.
        ++result.duplicates;
        ++stats_.import_duplicates;
      } else {
        Location location;
        location.segment = segment_index;
        location.payload_len = record.payload_len;
        location.offset = offset;
        index_[record.fingerprint] = location;
        ++result.imported;
        ++stats_.imported_records;
      }
    } else {
      ++result.corrupted_skipped;
      ++stats_.import_corrupted;
      ++stats_.corrupted_skipped;
    }
    offset += record.frame_bytes;
  }
  segments_.push_back(segment);
  if (options_.sync_on_flush) sync_directory();

  ++stats_.imports;
  stats_.segments = static_cast<std::int64_t>(segments_.size());
  stats_.records = static_cast<std::int64_t>(index_.size());
  stats_.file_bytes = 0;
  for (const Segment& s : segments_) {
    stats_.file_bytes += static_cast<std::int64_t>(s.size);
  }
  result.bytes = static_cast<std::int64_t>(segment.size);
  return result;
}

StoreStats ResultStore::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace bfdn

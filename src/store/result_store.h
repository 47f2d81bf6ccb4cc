// Durable, content-addressed result store: the persistence tier under
// the service's in-memory ResultCache (src/service/cache.h).
//
// The store is a directory of append-only segment files (framing in
// store/segment.h) plus an in-memory fingerprint → file-offset index.
// Writes are write-behind: put() enqueues into a group-commit buffer
// and returns immediately; a flusher thread appends the batch with one
// write() + one fdatasync() when the buffer crosses a size threshold
// or an age deadline — persistence never blocks the request path.
// Unflushed entries are still readable (get() consults the pending
// buffer first), so the store's visible contents never lag its API.
//
// On boot the store mmaps every segment, validates each record's
// checksum, truncates a torn tail (the half-appended bytes a kill -9
// leaves behind), skips checksum-corrupted records with a counted
// stat, and rebuilds the index — the first post-restart request for a
// previously served fingerprint returns the byte-identical payload the
// original miss produced. A record that fails validation is never
// served: the caller misses, recomputes, and put() overwrites it.
//
// compact() rewrites the caller's live fingerprints into fresh
// segments and deletes the old files, dropping cold records (the
// service passes its LRU residents). New segments take higher sequence
// numbers, so a crash mid-compaction at worst leaves duplicates that
// last-wins recovery resolves — never data loss beyond the dropped
// cold set.
//
// Segment files are position-independent and self-checking, which
// makes them the planned cross-node cache-fill format for the sharded
// fleet (ROADMAP): shipping a segment and replaying it through
// recovery is a bulk warm-start.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/thread_annotations.h"

namespace bfdn {

struct StoreOptions {
  /// Directory of segment files; created (one level) if absent.
  std::string dir;
  /// Rotate to a new segment once the active file reaches this size.
  std::size_t segment_bytes = 64ull << 20;
  /// Group-commit size trigger: flush once this many buffered bytes.
  std::size_t flush_bytes = 256u << 10;
  /// Group-commit age trigger, milliseconds.
  std::int32_t flush_interval_ms = 25;
  /// fdatasync() each flushed batch (off only in throwaway benches).
  bool sync_on_flush = true;
};

struct StoreStats {
  // Current contents.
  std::int64_t segments = 0;
  std::int64_t file_bytes = 0;
  std::int64_t records = 0;          // indexed (servable) records
  std::int64_t pending_records = 0;  // buffered, not yet flushed
  // Boot recovery.
  std::int64_t recovered_records = 0;
  std::int64_t torn_tail_truncations = 0;
  std::int64_t corrupted_skipped = 0;
  // Write-behind.
  std::int64_t appended_records = 0;
  std::int64_t appended_bytes = 0;
  std::int64_t flushes = 0;
  std::int64_t syncs = 0;
  // Writes and fdatasyncs made holding the store mutex; each blocks
  // every get and put for its duration (0 by design: flush_batch drops
  // the mutex around its IO).
  std::int64_t locked_io = 0;
  // Reads.
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  std::int64_t bulk_lookups = 0;     // get_many() calls (one index pass)
  std::int64_t bulk_key_hits = 0;    // keys they filled
  // Compaction.
  std::int64_t compactions = 0;
  std::int64_t compaction_dropped = 0;
  // Cross-node segment shipping (export_live / install_segment).
  std::int64_t exports = 0;
  std::int64_t exported_records = 0;
  std::int64_t imports = 0;
  std::int64_t imported_records = 0;
  std::int64_t import_duplicates = 0;
  std::int64_t import_corrupted = 0;
  std::int64_t import_torn = 0;
};

class ResultStore {
 public:
  /// Opens (or creates) the store and runs recovery. Throws CheckError
  /// when the directory cannot be created or a segment cannot be read.
  explicit ResultStore(StoreOptions options);
  /// Flushes the pending buffer and stops the flusher thread.
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Returns the stored payload, or std::nullopt. Every byte served
  /// from disk is checksum-verified again at read time.
  std::optional<std::string> get(std::uint64_t key) BFDN_EXCLUDES(mutex_);

  /// Batch lookup in one index pass: out[i] is filled for every key
  /// found. The campaign cache-fill path — a cold campaign loads all
  /// member fingerprints here instead of N single gets.
  void get_many(const std::vector<std::uint64_t>& keys,
                std::vector<std::optional<std::string>>* out)
      BFDN_EXCLUDES(mutex_);

  /// Write-behind append: enqueues and returns. A key already stored
  /// or already pending is dropped (results are deterministic, the
  /// bytes would be identical).
  void put(std::uint64_t key, std::string_view payload)
      BFDN_EXCLUDES(mutex_);

  /// Blocks until everything enqueued before the call is durable.
  void flush() BFDN_EXCLUDES(mutex_);

  struct CompactResult {
    std::int64_t segments_before = 0;
    std::int64_t segments_after = 0;
    std::int64_t bytes_before = 0;
    std::int64_t bytes_after = 0;
    std::int64_t kept = 0;
    std::int64_t dropped = 0;
  };
  /// Rewrites the records whose fingerprint is in `live_keys` into
  /// fresh segments and deletes the old files. Blocks reads and writes
  /// for the duration (admin operation).
  CompactResult compact(const std::vector<std::uint64_t>& live_keys)
      BFDN_EXCLUDES(mutex_);

  /// Serializes every indexed record into one self-contained segment
  /// image (magic header + checksummed frames, fingerprint order — the
  /// same framing a segment file carries on disk), flushing the pending
  /// buffer first. The cross-node bulk cache-fill payload: the receiver
  /// replays it through install_segment's recovery scan. `records`
  /// (optional) receives the number of frames in the image.
  std::string export_live(std::int64_t* records = nullptr)
      BFDN_EXCLUDES(mutex_);

  struct ImportResult {
    std::int64_t records = 0;    // valid frames scanned
    std::int64_t imported = 0;   // new fingerprints added to the index
    std::int64_t duplicates = 0; // fingerprints already present (kept)
    std::int64_t corrupted_skipped = 0;
    std::int64_t torn_truncated = 0;  // 1 when a torn tail was cut
    std::int64_t bytes = 0;      // installed file size
  };
  /// Installs a shipped segment image as a real segment file (next
  /// sequence number) and replays it through the same mmap scan boot
  /// recovery uses: every checksum re-verified, corrupt records skipped
  /// and counted, a torn tail truncated. Existing fingerprints keep
  /// their current record (results are deterministic — the bytes would
  /// be identical). Throws CheckError when the image's magic is wrong.
  ImportResult install_segment(std::string_view image)
      BFDN_EXCLUDES(mutex_);

  StoreStats stats() const BFDN_EXCLUDES(mutex_);
  const std::string& dir() const { return options_.dir; }

 private:
  struct Segment {
    std::string path;
    int fd = -1;
    /// Read-only mapping of the recovered (boot-time) prefix; bytes
    /// appended this process are read with pread instead.
    const char* map = nullptr;
    std::size_t map_bytes = 0;
    std::size_t size = 0;  // current file length
  };
  struct Location {
    std::uint32_t segment = 0;
    std::uint32_t payload_len = 0;
    std::uint64_t offset = 0;
  };

  void recover_locked() BFDN_REQUIRES(mutex_);
  Segment open_segment(const std::string& path, bool create);
  void close_segment(Segment* segment);
  std::size_t active_segment_locked() BFDN_REQUIRES(mutex_);
  std::optional<std::string> read_record(const Location& location)
      BFDN_REQUIRES(mutex_);
  std::optional<std::string> lookup_locked(std::uint64_t key)
      BFDN_REQUIRES(mutex_);
  void flusher_loop() BFDN_EXCLUDES(mutex_);
  /// One group-commit cycle; called with `lock` held, releases the
  /// native handle around the file IO (invisible to the static
  /// analysis, which is why the in-flight segments are fenced by
  /// flush_in_flight_ rather than the annotation). Returns re-held.
  void flush_batch(MutexLock& lock) BFDN_REQUIRES(mutex_);
  void sync_directory();

  StoreOptions options_;

  mutable Mutex mutex_;
  std::vector<Segment> segments_ BFDN_GUARDED_BY(mutex_);
  std::uint64_t next_sequence_ BFDN_GUARDED_BY(mutex_) = 1;
  std::unordered_map<std::uint64_t, Location> index_
      BFDN_GUARDED_BY(mutex_);
  std::deque<std::uint64_t> pending_order_ BFDN_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::string> pending_
      BFDN_GUARDED_BY(mutex_);
  std::size_t pending_bytes_ BFDN_GUARDED_BY(mutex_) = 0;
  bool flush_requested_ BFDN_GUARDED_BY(mutex_) = false;
  bool flush_in_flight_ BFDN_GUARDED_BY(mutex_) = false;
  bool stopping_ BFDN_GUARDED_BY(mutex_) = false;
  StoreStats stats_ BFDN_GUARDED_BY(mutex_);

  std::condition_variable flusher_cv_;  // wakes the flusher thread
  std::condition_variable flushed_cv_;  // wakes flush() waiters
  std::thread flusher_;
};

}  // namespace bfdn

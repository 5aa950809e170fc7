#ifndef S2_LOG_PARTITION_LOG_H_
#define S2_LOG_PARTITION_LOG_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "log/log_record.h"

namespace s2 {

class Env;

/// Receives sealed log pages for replication. Implementations are HA
/// replicas (cluster module) or read-only workspace streams. Pages may be
/// delivered out of order relative to other pages ("log pages can be
/// replicated out-of-order and replicated early without waiting for
/// transaction commit", paper Section 3).
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;

  /// Delivers one sealed page located at byte offset `page_lsn` in the log
  /// stream. Returns true once the sink holds the page in memory (the ack
  /// that makes the page count toward durability).
  virtual bool OnPage(Lsn page_lsn, Slice page_bytes) = 0;

  /// Whether OnPage's answer counts toward durability. True for HA
  /// replicas; a read-only workspace holds pages without acking them.
  virtual bool acks() const { return true; }
};

struct LogOptions {
  /// Directory holding this partition's log file.
  std::string dir;
  /// Target payload size before a page is sealed automatically.
  size_t page_size = 64 * 1024;
  /// fsync local disk on every commit. Off by default, matching the paper:
  /// cloud hosts lose local disks with the host, so S2DB relies on
  /// replication (not local fsync) for commit durability.
  bool sync_to_disk = false;
  /// Filesystem the log lives on. Not owned; null = Env::Default(). Tests
  /// inject a FaultInjectionEnv to fail/tear the append or drop the sync.
  Env* env = nullptr;
};

/// The per-partition write-ahead log. The log is the only file ever
/// updated (append-only); columnstore data files referenced from it are
/// immutable. Commit protocol: seal the current page, write it to local
/// disk, deliver it to every replication sink; the commit is durable once
/// at least one sink acked every page at or below it.
///
/// Thread-safe; appends serialize on an internal mutex.
class PartitionLog {
 public:
  /// Opens (or creates) the log in options.dir. Existing pages are scanned
  /// to recover next_lsn; a torn final page is truncated away.
  static Result<std::unique_ptr<PartitionLog>> Open(const LogOptions& options);

  ~PartitionLog();

  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  /// Appends a record to the open page and returns its LSN. Does not make
  /// the record durable; call Commit (or SealPage for mid-transaction bulk
  /// data, which replicates early).
  Lsn Append(const LogRecord& record);

  /// Appends a commit marker for `txn` and makes everything up to and
  /// including it durable per the commit protocol above.
  Status Commit(TxnId txn);

  /// Appends an abort marker (durability not required for aborts).
  void Abort(TxnId txn);

  /// Seals and replicates the current page without a commit. Used while
  /// streaming large transactions so replicas receive data early.
  Status SealPage();

  /// Registers a replication sink. Newly added sinks receive already-sealed
  /// pages so they can catch up, then stream new pages. Not owned. Only a
  /// sink whose acks() is true counts toward durability; a log with no
  /// acking sink is durable once a page is written locally.
  Status AddSink(ReplicationSink* sink);
  void RemoveSink(ReplicationSink* sink);

  /// All records strictly below this LSN are durable (locally written and
  /// acked by >=1 acking sink when such sinks exist). This is the position
  /// below which log chunks may be uploaded to blob storage.
  Lsn durable_lsn() const;

  /// LSN the next appended record will receive.
  Lsn next_lsn() const;

  /// Replays records from the on-disk log in [from, to), in order, invoking
  /// `cb(lsn, record)`. `to` == 0 means "to the end".
  Status Replay(Lsn from, Lsn to,
                const std::function<Status(Lsn, const LogRecord&)>& cb) const;

  /// Reads raw sealed log bytes [from, to) for blob-chunk upload. `to` must
  /// be <= durable_lsn().
  Result<std::string> ReadRange(Lsn from, Lsn to) const;

  const std::string& path() const { return path_; }

  /// Parses the whole pages at the front of a raw log byte range (as
  /// produced by ReadRange or page delivery), invoking cb per record, and
  /// returns the bytes those pages take. Stops before an incomplete
  /// trailing page, so a replica finds and parses its whole pages in one
  /// pass that checks each page's CRC once. A complete page with a bad
  /// magic or CRC is Corruption.
  static Result<size_t> ParseStream(
      Slice bytes, Lsn base_lsn,
      const std::function<Status(Lsn, const LogRecord&)>& cb);

 private:
  explicit PartitionLog(const LogOptions& options);

  // Seals current page under mu_ held.
  Status SealPageLocked();
  /// Delivers one sealed page to every sink; returns whether it is durable
  /// (an acking sink holds it, or no sink acks).
  bool DeliverLocked(Lsn page_lsn, Slice page);
  void RecomputeDurableLocked();

  LogOptions options_;
  std::string path_;
  Env* env_;  // resolved from options_.env at construction

  mutable std::mutex mu_;
  std::string page_buf_;     // open page payload
  Lsn page_start_ = 0;       // file offset where the open page will begin
  Lsn sealed_end_ = 0;       // file offset past the last sealed page
  Lsn durable_ = 0;
  std::vector<std::pair<Lsn, std::string>> pending_pages_;  // unacked pages
  std::vector<ReplicationSink*> sinks_;
};

}  // namespace s2

#endif  // S2_LOG_PARTITION_LOG_H_

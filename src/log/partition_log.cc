#include "log/partition_log.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/profile.h"

namespace s2 {

namespace {

constexpr uint32_t kPageMagic = 0x53326c67;  // "S2lg"
constexpr size_t kPageHeaderSize = 12;       // magic + size + crc

// Scans `bytes` and returns the length of the valid page prefix.
size_t ValidPrefix(Slice bytes) {
  size_t pos = 0;
  while (bytes.size() - pos >= kPageHeaderSize) {
    const char* p = bytes.data() + pos;
    if (DecodeFixed32(p) != kPageMagic) break;
    uint32_t payload_size = DecodeFixed32(p + 4);
    uint32_t crc = DecodeFixed32(p + 8);
    if (bytes.size() - pos - kPageHeaderSize < payload_size) break;
    if (Crc32(p + kPageHeaderSize, static_cast<size_t>(payload_size)) != crc) break;
    pos += kPageHeaderSize + payload_size;
  }
  return pos;
}

}  // namespace

PartitionLog::PartitionLog(const LogOptions& options)
    : options_(options),
      path_(options.dir + "/log"),
      env_(options.env != nullptr ? options.env : Env::Default()) {}

PartitionLog::~PartitionLog() = default;

Result<std::unique_ptr<PartitionLog>> PartitionLog::Open(
    const LogOptions& options) {
  std::unique_ptr<PartitionLog> log(new PartitionLog(options));
  Env* env = log->env_;
  S2_RETURN_NOT_OK(env->CreateDirs(options.dir));
  if (env->FileExists(log->path_)) {
    S2_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(log->path_));
    size_t valid = ValidPrefix(bytes);
    if (valid < bytes.size()) {
      // Torn tail from a crash mid-append: drop it.
      S2_RETURN_NOT_OK(env->Truncate(log->path_, valid));
    }
    log->sealed_end_ = valid;
    log->page_start_ = valid;
    log->durable_ = valid;
  }
  return log;
}

Lsn PartitionLog::Append(const LogRecord& record) {
  S2_COUNTER("s2_log_append_total").Add();
  S2_SCOPED_TIMER("s2_log_append_ns");
  std::lock_guard<std::mutex> lock(mu_);
  Lsn lsn = page_start_ + kPageHeaderSize + page_buf_.size();
  record.EncodeTo(&page_buf_);
  if (page_buf_.size() >= options_.page_size) {
    // Soft page limit: seal and replicate early so replicas receive large
    // transactions' data before commit. Durability failures surface at
    // Commit; the page stays pending for redelivery until acked.
    (void)SealPageLocked();
  }
  return lsn;
}

Status PartitionLog::Commit(TxnId txn) {
  S2_COUNTER("s2_log_commit_total").Add();
  S2_SCOPED_TIMER("s2_log_commit_ns");
  std::lock_guard<std::mutex> lock(mu_);
  size_t pre_marker_size = page_buf_.size();
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kCommit;
  rec.EncodeTo(&page_buf_);
  Status s = SealPageLocked();
  if (!s.ok() && !page_buf_.empty()) {
    // The local append failed, so the page (and its commit marker) never
    // reached disk and page_buf_ was retained. Withdraw the marker: if the
    // buffered records are flushed by a later seal they must replay as an
    // uncommitted transaction, not silently commit one the caller was told
    // failed. (On a replication-ack failure the page is already on disk and
    // page_buf_ is empty, so this does not run.)
    page_buf_.resize(pre_marker_size);
  }
  return s;
}

void PartitionLog::Abort(TxnId txn) {
  S2_COUNTER("s2_log_abort_total").Add();
  std::lock_guard<std::mutex> lock(mu_);
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kAbort;
  rec.EncodeTo(&page_buf_);
}

Status PartitionLog::SealPage() {
  std::lock_guard<std::mutex> lock(mu_);
  return SealPageLocked();
}

Status PartitionLog::SealPageLocked() {
  // Redeliver any previously unacked pages first: durability advances only
  // through a contiguous acked prefix.
  for (auto it = pending_pages_.begin(); it != pending_pages_.end();) {
    if (!DeliverLocked(it->first, Slice(it->second))) break;
    it = pending_pages_.erase(it);
  }

  if (!page_buf_.empty()) {
    S2_COUNTER("s2_log_seal_total").Add();
    S2_COUNTER("s2_log_page_bytes_total").Add(page_buf_.size());
    S2_SCOPED_TIMER("s2_log_seal_ns");
    std::string page;
    page.reserve(kPageHeaderSize + page_buf_.size());
    PutFixed32(&page, kPageMagic);
    PutFixed32(&page, static_cast<uint32_t>(page_buf_.size()));
    PutFixed32(&page, Crc32(page_buf_.data(), page_buf_.size()));
    page.append(page_buf_);

    Lsn page_lsn = page_start_;
    S2_RETURN_NOT_OK(env_->AppendToFile(path_, page, options_.sync_to_disk));
    sealed_end_ = page_start_ + page.size();
    page_start_ = sealed_end_;
    page_buf_.clear();

    // Synchronous in-memory replication: the page is durable once one
    // acking sink holds it (or at once when no sink acks).
    if (!DeliverLocked(page_lsn, Slice(page))) {
      pending_pages_.emplace_back(page_lsn, std::move(page));
    }
  }

  durable_ = pending_pages_.empty() ? sealed_end_ : pending_pages_.front().first;
  if (!pending_pages_.empty()) {
    return Status::Unavailable("no replica acked log page");
  }
  return Status::OK();
}

bool PartitionLog::DeliverLocked(Lsn page_lsn, Slice page) {
  if (sinks_.empty()) return true;
  ProfileSpan span("commit.replicate");
  S2_SCOPED_TIMER("s2_log_replicate_ns");
  bool needs_ack = false;
  bool acked = false;
  for (ReplicationSink* sink : sinks_) {
    bool held = sink->OnPage(page_lsn, page);
    if (sink->acks()) {
      needs_ack = true;
      acked = acked || held;
    }
  }
  return acked || !needs_ack;
}

Status PartitionLog::AddSink(ReplicationSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  // Catch the sink up with all sealed pages (they parse as a page stream).
  if (sealed_end_ > 0) {
    S2_ASSIGN_OR_RETURN(std::string bytes, env_->ReadFileToString(path_));
    sink->OnPage(0, Slice(bytes.data(), sealed_end_));
  }
  sinks_.push_back(sink);
  return Status::OK();
}

void PartitionLog::RemoveSink(ReplicationSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(sinks_, sink);
}

Lsn PartitionLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_;
}

Lsn PartitionLog::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_start_ + kPageHeaderSize + page_buf_.size();
}

Status PartitionLog::Replay(
    Lsn from, Lsn to,
    const std::function<Status(Lsn, const LogRecord&)>& cb) const {
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!env_->FileExists(path_)) return Status::OK();
    S2_ASSIGN_OR_RETURN(bytes, env_->ReadFileToString(path_));
    bytes.resize(std::min<size_t>(bytes.size(), sealed_end_));
  }
  return ParseStream(Slice(bytes), 0,
                     [&](Lsn lsn, const LogRecord& rec) -> Status {
                       if (lsn < from) return Status::OK();
                       if (to != 0 && lsn >= to) return Status::OK();
                       return cb(lsn, rec);
                     })
      .status();
}

Result<std::string> PartitionLog::ReadRange(Lsn from, Lsn to) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (to > sealed_end_ || from > to) {
    return Status::InvalidArgument("log range outside sealed region");
  }
  S2_ASSIGN_OR_RETURN(std::string bytes, env_->ReadFileToString(path_));
  return bytes.substr(from, to - from);
}

Result<size_t> PartitionLog::ParseStream(
    Slice bytes, Lsn base_lsn,
    const std::function<Status(Lsn, const LogRecord&)>& cb) {
  size_t pos = 0;
  while (bytes.size() - pos >= kPageHeaderSize) {
    const char* p = bytes.data() + pos;
    if (DecodeFixed32(p) != kPageMagic) {
      return Status::Corruption("bad log page magic");
    }
    uint32_t payload_size = DecodeFixed32(p + 4);
    uint32_t crc = DecodeFixed32(p + 8);
    if (bytes.size() - pos - kPageHeaderSize < payload_size) break;
    if (Crc32(p + kPageHeaderSize, static_cast<size_t>(payload_size)) != crc) {
      return Status::Corruption("log page crc mismatch");
    }
    Slice payload(p + kPageHeaderSize, payload_size);
    Lsn record_lsn = base_lsn + pos + kPageHeaderSize;
    while (!payload.empty()) {
      const char* rec_begin = payload.data();
      S2_ASSIGN_OR_RETURN(LogRecord rec, LogRecord::DecodeFrom(&payload));
      S2_RETURN_NOT_OK(cb(record_lsn, rec));
      record_lsn += static_cast<Lsn>(payload.data() - rec_begin);
    }
    pos += kPageHeaderSize + payload_size;
  }
  return pos;
}

}  // namespace s2

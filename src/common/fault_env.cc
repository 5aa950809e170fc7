#include "common/fault_env.h"

#include <utility>

#include "common/journal.h"

namespace s2 {

const char* EnvOpName(EnvOp op) {
  switch (op) {
    case EnvOp::kWrite: return "write";
    case EnvOp::kAppend: return "append";
    case EnvOp::kSync: return "sync";
    case EnvOp::kRename: return "rename";
    case EnvOp::kSyncDir: return "syncdir";
    case EnvOp::kRead: return "read";
    case EnvOp::kTruncate: return "truncate";
    case EnvOp::kRemove: return "remove";
    case EnvOp::kCreateDirs: return "createdirs";
    case EnvOp::kList: return "list";
  }
  return "unknown";
}

namespace {

Status FaultStatus(EnvOp op, const std::string& path) {
  return Status::IOError(std::string("injected fault: ") + EnvOpName(op) +
                         " " + path);
}

std::string ParentDir(const std::string& path) {
  auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

void FaultInjectionEnv::InjectFault(EnvOp op, const std::string& path_substr,
                                    FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  torn_rng_ = Rng(spec.seed);
  faults_.push_back(ArmedFault{op, path_substr, spec, 0});
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
}

bool FaultInjectionEnv::FaultFired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_any_;
}

uint64_t FaultInjectionEnv::OpCount(EnvOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<int>(op)];
}

void FaultInjectionEnv::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = true;
  EventJournal::Global()->Append("fault", "crash", "simulated process crash",
                                 ClockNowLocked());
}

void FaultInjectionEnv::Unfreeze() {
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = false;
  EventJournal::Global()->Append("fault", "unfreeze", "env unfrozen (reopen)",
                                 ClockNowLocked());
}

bool FaultInjectionEnv::frozen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frozen_;
}

void FaultInjectionEnv::FreezeClockAt(uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_frozen_ = true;
  manual_clock_ns_ = ns;
}

void FaultInjectionEnv::AdvanceClock(uint64_t delta_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!clock_frozen_) {
    clock_frozen_ = true;
    manual_clock_ns_ = base_->NowNs();
  }
  manual_clock_ns_ += delta_ns;
}

void FaultInjectionEnv::UnfreezeClock() {
  std::lock_guard<std::mutex> lock(mu_);
  clock_frozen_ = false;
}

uint64_t FaultInjectionEnv::NowNs() {
  std::lock_guard<std::mutex> lock(mu_);
  return ClockNowLocked();
}

uint64_t FaultInjectionEnv::ClockNowLocked() const {
  return clock_frozen_ ? manual_clock_ns_ : base_->NowNs();
}

Status FaultInjectionEnv::DropUnsyncedData() {
  std::map<std::string, SyncState> tracked;
  std::set<std::string> unsynced_renames;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tracked.swap(tracked_);
    unsynced_renames.swap(unsynced_renames_);
    EventJournal::Global()->Append(
        "fault", "power_loss",
        "dropping unsynced data: tracked_files=" +
            std::to_string(tracked.size()) +
            " unsynced_renames=" + std::to_string(unsynced_renames.size()),
        ClockNowLocked());
  }
  for (const auto& path : unsynced_renames) {
    if (base_->FileExists(path)) {
      S2_RETURN_NOT_OK(base_->RemoveFile(path));
    }
    tracked.erase(path);
  }
  for (const auto& [path, state] : tracked) {
    if (state.synced >= state.size) continue;
    if (!base_->FileExists(path)) continue;
    S2_RETURN_NOT_OK(base_->Truncate(path, state.synced));
  }
  return Status::OK();
}

std::vector<std::pair<EnvOp, std::string>> FaultInjectionEnv::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

FaultInjectionEnv::Action FaultInjectionEnv::InterceptLocked(
    EnvOp op, const std::string& path, bool mutating) {
  counts_[static_cast<int>(op)]++;
  history_.emplace_back(op, path);
  if (frozen_ && mutating) return Action::kError;
  for (auto& fault : faults_) {
    if (fault.op != op) continue;
    if (!fault.path_substr.empty() &&
        path.find(fault.path_substr) == std::string::npos) {
      continue;
    }
    if (fault.spec.skip > 0) {
      fault.spec.skip--;
      continue;
    }
    if (fault.fired >= fault.spec.count) continue;
    fault.fired++;
    fired_any_ = true;
    EventJournal::Global()->Append(
        "fault", "injected",
        std::string("mode=") +
            (fault.spec.mode == FaultSpec::Mode::kError     ? "error"
             : fault.spec.mode == FaultSpec::Mode::kTorn    ? "torn"
             : fault.spec.mode == FaultSpec::Mode::kDropSync ? "drop_sync"
                                                             : "freeze") +
            " op=" + EnvOpName(op) + " path=" + path,
        ClockNowLocked());
    switch (fault.spec.mode) {
      case FaultSpec::Mode::kError:
        return Action::kError;
      case FaultSpec::Mode::kTorn:
        frozen_ = true;
        return Action::kTorn;
      case FaultSpec::Mode::kDropSync:
        return Action::kDropSync;
      case FaultSpec::Mode::kFreeze:
        frozen_ = true;
        return Action::kError;
    }
  }
  return Action::kNone;
}

FaultInjectionEnv::SyncState* FaultInjectionEnv::TrackLocked(
    const std::string& path) {
  auto it = tracked_.find(path);
  if (it == tracked_.end()) {
    SyncState state;
    if (base_->FileExists(path)) {
      auto size = base_->FileSize(path);
      if (size.ok()) {
        // Bytes from before we started watching are assumed durable.
        state.size = *size;
        state.synced = *size;
      }
    }
    it = tracked_.emplace(path, state).first;
  }
  return &it->second;
}

uint64_t FaultInjectionEnv::TornPrefixLenLocked(uint64_t full) {
  if (full == 0) return 0;
  // Strict prefix: at least one byte short of the full write.
  return torn_rng_.Uniform(full);
}

Status FaultInjectionEnv::CreateDirs(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (InterceptLocked(EnvOp::kCreateDirs, path, /*mutating=*/true) !=
        Action::kNone) {
      return FaultStatus(EnvOp::kCreateDirs, path);
    }
  }
  return base_->CreateDirs(path);
}

Status FaultInjectionEnv::WriteStringToFile(const std::string& path,
                                            const std::string& data,
                                            bool sync) {
  Action action;
  uint64_t torn_len = 0;
  bool drop_sync = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    action = InterceptLocked(EnvOp::kWrite, path, /*mutating=*/true);
    if (action == Action::kTorn) torn_len = TornPrefixLenLocked(data.size());
    if (action == Action::kError) return FaultStatus(EnvOp::kWrite, path);
    if (sync && action != Action::kTorn) {
      Action sync_action = InterceptLocked(EnvOp::kSync, path,
                                           /*mutating=*/true);
      if (sync_action == Action::kError) {
        // A failed fsync after a successful truncating write: the data hit
        // the page cache but durability is unknown. Model the worst case —
        // write the data unsynced, report failure.
        Status st = base_->WriteStringToFile(path, data, /*sync=*/false);
        SyncState* state = TrackLocked(path);
        state->size = data.size();
        state->synced = 0;
        (void)st;
        return FaultStatus(EnvOp::kSync, path);
      }
      if (sync_action == Action::kDropSync) drop_sync = true;
    }
  }
  if (action == Action::kTorn) {
    Status st =
        base_->WriteStringToFile(path, data.substr(0, torn_len), false);
    std::lock_guard<std::mutex> lock(mu_);
    SyncState* state = TrackLocked(path);
    state->size = torn_len;
    state->synced = 0;
    (void)st;
    return FaultStatus(EnvOp::kWrite, path);
  }
  bool actually_sync = sync && !drop_sync;
  S2_RETURN_NOT_OK(base_->WriteStringToFile(path, data, actually_sync));
  std::lock_guard<std::mutex> lock(mu_);
  SyncState* state = TrackLocked(path);
  state->size = data.size();
  state->synced = actually_sync ? data.size() : 0;
  return Status::OK();
}

Status FaultInjectionEnv::AppendToFile(const std::string& path,
                                       const std::string& data, bool sync) {
  Action action;
  uint64_t torn_len = 0;
  bool drop_sync = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    action = InterceptLocked(EnvOp::kAppend, path, /*mutating=*/true);
    if (action == Action::kTorn) torn_len = TornPrefixLenLocked(data.size());
    if (action == Action::kError) return FaultStatus(EnvOp::kAppend, path);
    // Seed the sync tracking from the PRE-append on-disk size; the later
    // `size += data.size()` updates below assume the entry exists (seeding
    // after the base append would double-count the appended bytes).
    TrackLocked(path);
    if (sync && action != Action::kTorn) {
      Action sync_action = InterceptLocked(EnvOp::kSync, path,
                                           /*mutating=*/true);
      if (sync_action == Action::kError) {
        Status st = base_->AppendToFile(path, data, /*sync=*/false);
        SyncState* state = TrackLocked(path);
        state->size += data.size();
        (void)st;
        return FaultStatus(EnvOp::kSync, path);
      }
      if (sync_action == Action::kDropSync) drop_sync = true;
    }
  }
  if (action == Action::kTorn) {
    Status st = base_->AppendToFile(path, data.substr(0, torn_len), false);
    std::lock_guard<std::mutex> lock(mu_);
    SyncState* state = TrackLocked(path);
    state->size += torn_len;
    (void)st;
    return FaultStatus(EnvOp::kAppend, path);
  }
  bool actually_sync = sync && !drop_sync;
  S2_RETURN_NOT_OK(base_->AppendToFile(path, data, actually_sync));
  std::lock_guard<std::mutex> lock(mu_);
  SyncState* state = TrackLocked(path);
  state->size += data.size();
  // A successful fsync covers everything written so far, including bytes
  // whose own sync was dropped earlier.
  if (actually_sync) state->synced = state->size;
  return Status::OK();
}

Result<std::string> FaultInjectionEnv::ReadFileToString(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (InterceptLocked(EnvOp::kRead, path, /*mutating=*/false) !=
        Action::kNone) {
      return FaultStatus(EnvOp::kRead, path);
    }
  }
  return base_->ReadFileToString(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (InterceptLocked(EnvOp::kList, dir, /*mutating=*/false) !=
        Action::kNone) {
      return FaultStatus(EnvOp::kList, dir);
    }
  }
  return base_->ListDir(dir);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (InterceptLocked(EnvOp::kRemove, path, /*mutating=*/true) !=
        Action::kNone) {
      return FaultStatus(EnvOp::kRemove, path);
    }
    tracked_.erase(path);
    unsynced_renames_.erase(path);
  }
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::RemoveDirRecursive(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (InterceptLocked(EnvOp::kRemove, path, /*mutating=*/true) !=
        Action::kNone) {
      return FaultStatus(EnvOp::kRemove, path);
    }
  }
  return base_->RemoveDirRecursive(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Status FaultInjectionEnv::Truncate(const std::string& path, uint64_t size) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (InterceptLocked(EnvOp::kTruncate, path, /*mutating=*/true) !=
        Action::kNone) {
      return FaultStatus(EnvOp::kTruncate, path);
    }
  }
  S2_RETURN_NOT_OK(base_->Truncate(path, size));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracked_.find(path);
  if (it != tracked_.end()) {
    it->second.size = size;
    if (it->second.synced > size) it->second.synced = size;
  }
  return Status::OK();
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The destination is the interesting path (it is what recovery reads).
    if (InterceptLocked(EnvOp::kRename, to, /*mutating=*/true) !=
        Action::kNone) {
      return FaultStatus(EnvOp::kRename, to);
    }
  }
  S2_RETURN_NOT_OK(base_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracked_.find(from);
  if (it != tracked_.end()) {
    tracked_[to] = it->second;
    tracked_.erase(it);
  }
  // Until the parent directory is fsync'd, power loss undoes the rename
  // (the old name is already gone, so the file simply disappears).
  unsynced_renames_.insert(to);
  unsynced_renames_.erase(from);
  return Status::OK();
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  Action action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    action = InterceptLocked(EnvOp::kSyncDir, dir, /*mutating=*/true);
    if (action == Action::kError) return FaultStatus(EnvOp::kSyncDir, dir);
    if (action == Action::kDropSync) return Status::OK();
  }
  S2_RETURN_NOT_OK(base_->SyncDir(dir));
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = unsynced_renames_.begin(); it != unsynced_renames_.end();) {
    if (ParentDir(*it) == dir) {
      it = unsynced_renames_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Result<std::string> FaultInjectionEnv::MakeTempDir(const std::string& prefix) {
  return base_->MakeTempDir(prefix);
}

}  // namespace s2

#ifndef S2_COMMON_FAULT_ENV_H_
#define S2_COMMON_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"

namespace s2 {

/// The primitive operations faults can attach to. A failpoint is an
/// (operation, path-substring) pair — e.g. (kAppend, "/log") is the log
/// append, (kWrite, "/snapshots/") the snapshot write, (kRename,
/// "/snapshots/") the manifest rename. See DESIGN.md for the catalog.
enum class EnvOp {
  kWrite,       // WriteStringToFile payload write
  kAppend,      // AppendToFile payload write
  kSync,        // file fsync (appends and full writes with sync=true)
  kRename,      // RenameFile (matched against the destination path)
  kSyncDir,     // directory fsync
  kRead,        // ReadFileToString
  kTruncate,    // Truncate
  kRemove,      // RemoveFile / RemoveDirRecursive
  kCreateDirs,  // CreateDirs
  kList,        // ListDir
};
constexpr int kNumEnvOps = 10;

const char* EnvOpName(EnvOp op);

/// What happens when an armed fault fires.
struct FaultSpec {
  enum class Mode {
    /// The call fails with IOError; nothing is written.
    kError,
    /// A random strict prefix of the data is written, then the call fails
    /// and the env freezes (a crash mid-write leaves a torn record and the
    /// process never writes again). Meaningful for kWrite/kAppend.
    kTorn,
    /// The fsync silently does nothing but reports success — a lying
    /// device. Combine with DropUnsyncedData() to model the power loss
    /// that makes the lie observable. Meaningful for kSync/kSyncDir.
    kDropSync,
    /// This call fails and the env freezes: every later mutating call
    /// fails too (a process crash at this point).
    kFreeze,
  };
  Mode mode = Mode::kError;
  /// Fire on the (skip+1)-th matching call from now.
  int skip = 0;
  /// How many matching calls fire (kFreeze and kTorn are sticky anyway).
  int count = 1;
  /// Seed for the torn-write prefix length.
  uint64_t seed = 1;
};

/// An Env wrapper that injects faults at tagged call sites, deterministically
/// by call count. Also tracks which bytes were actually fsync'd so
/// DropUnsyncedData() can simulate power loss (appended-but-unsynced bytes
/// vanish; files whose creating rename was never followed by a parent
/// directory fsync vanish entirely).
///
/// Thread-safe; every operation serializes on an internal mutex.
class FaultInjectionEnv : public Env {
 public:
  /// Wraps `base` (null = Env::Default()). Not owned.
  explicit FaultInjectionEnv(Env* base = nullptr);

  /// Arms a fault at the failpoint (op, path substring). An empty substring
  /// matches every path. Matching calls count from now.
  void InjectFault(EnvOp op, const std::string& path_substr, FaultSpec spec);
  void ClearFaults();

  /// True once any armed fault has fired.
  bool FaultFired() const;

  /// Calls seen per op since construction (faulted calls included).
  uint64_t OpCount(EnvOp op) const;

  /// Freezes all further mutating operations ("the process crashed here").
  void Crash();
  /// Lifts a freeze (the "reopened process" uses the env again).
  void Unfreeze();
  bool frozen() const;

  /// Pins NowNs() to `ns`. Combined with AdvanceClock this makes every
  /// age/interval computation that reads the env clock (upload-queue age,
  /// monitor sample timestamps) fully deterministic.
  void FreezeClockAt(uint64_t ns);
  /// Advances the pinned clock by `delta_ns`. If the clock is not frozen
  /// yet it is first pinned at the base env's current time.
  void AdvanceClock(uint64_t delta_ns);
  /// Returns to the base env's real clock.
  void UnfreezeClock();

  uint64_t NowNs() override;

  /// Power-loss simulation: truncates files with appended-but-unsynced
  /// bytes back to their last synced size and removes files whose creating
  /// rename was never made durable by a parent-directory fsync. Clears the
  /// tracking state.
  Status DropUnsyncedData();

  /// Recorded (op, path) call sequence, for white-box ordering assertions.
  std::vector<std::pair<EnvOp, std::string>> History() const;

  // Env:
  Status CreateDirs(const std::string& path) override;
  Status WriteStringToFile(const std::string& path, const std::string& data,
                           bool sync) override;
  Status AppendToFile(const std::string& path, const std::string& data,
                      bool sync) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDirRecursive(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& dir) override;
  Result<std::string> MakeTempDir(const std::string& prefix) override;

 private:
  enum class Action { kNone, kError, kTorn, kDropSync };

  struct ArmedFault {
    EnvOp op;
    std::string path_substr;
    FaultSpec spec;
    int fired = 0;
  };

  struct SyncState {
    uint64_t size = 0;    // bytes written so far
    uint64_t synced = 0;  // bytes known durable (covered by an fsync)
  };

  /// Counts the call, records history, applies freeze, and resolves the
  /// first matching armed fault. mu_ must be held. Fault fires are
  /// journaled into EventJournal::Global(), which never calls back into
  /// an env.
  Action InterceptLocked(EnvOp op, const std::string& path, bool mutating);
  /// Clock read with mu_ already held (NowNs() itself takes mu_).
  uint64_t ClockNowLocked() const;
  /// Ensures sync tracking exists for `path`, seeding pre-existing bytes as
  /// synced (earlier sessions are assumed crash-consistent). mu_ held.
  SyncState* TrackLocked(const std::string& path);
  uint64_t TornPrefixLenLocked(uint64_t full);

  Env* base_;

  mutable std::mutex mu_;
  std::vector<ArmedFault> faults_;
  uint64_t counts_[kNumEnvOps] = {};
  std::vector<std::pair<EnvOp, std::string>> history_;
  bool frozen_ = false;
  bool fired_any_ = false;
  bool clock_frozen_ = false;
  uint64_t manual_clock_ns_ = 0;
  Rng torn_rng_{1};
  std::map<std::string, SyncState> tracked_;
  std::set<std::string> unsynced_renames_;
};

}  // namespace s2

#endif  // S2_COMMON_FAULT_ENV_H_

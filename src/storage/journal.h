// A durable journal of TQL statements. Every successfully executed
// durable statement is appended and synced before the caller is
// acknowledged — the engine hands them over through a CommitSink
// (query/session.h; storage/group_commit.h is the real one). Recovery is
// deterministic replay (storage/recovery.h) — oids are assigned
// sequentially, so a replayed journal reproduces the exact database
// state. This file treats statements as opaque text and depends
// only on common/.
//
// On-disk formats:
//
//   v1 (legacy, still replayable): one bare statement per line, no
//   framing. A torn tail is undetectable; replay is fail-fast.
//
//   v2 (written by this version): a header line followed by framed,
//   checksummed records —
//
//     TCHIMERA-JOURNAL 2 <epoch>
//     R <seq> <len> <crc32> <statement>
//
//   <seq> is 1-based and contiguous, <len> the statement's byte length,
//   <crc32> eight hex digits over "<seq> <statement>". Any torn or
//   bit-flipped record invalidates exactly the tail from that record on;
//   ScanJournal finds the longest valid prefix and SalvageJournal
//   quarantines the rest to `<journal>.corrupt`.
//
//   <epoch> orders a journal against snapshots: a snapshot written with
//   epoch E contains the effects of every journal with epoch < E, so
//   recovery replays only journals with epoch >= E (see recovery.h for
//   the full checkpoint protocol).
//
// The journal only appends; its owner decides when records become
// durable. Sync() is the commit-point fdatasync of appended records: the
// group-commit sink issues one per batch, a replica one per shipped
// batch. Otherwise only a new journal's header, Rotate and Close sync.
#ifndef TCHIMERA_STORAGE_JOURNAL_H_
#define TCHIMERA_STORAGE_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_fs.h"
#include "common/result.h"

namespace tchimera {

struct JournalOptions {
  uint64_t epoch = 0;         // epoch stamped on a newly created journal
  FileSystem* fs = nullptr;   // nullptr = FileSystem::Default()
};

// The checksum of record `seq`: CRC32 over "<seq> <statement>". The
// writer frames it, the scanners and a replica re-verify it.
uint32_t JournalRecordCrc(uint64_t seq, std::string_view statement);

// The journal files of `journal_path`'s directory: returns the epochs of
// the rotated journals `<journal_path>.e<N>` in ascending numeric order
// and sets `*live` to whether `journal_path` itself exists. Any other
// name (`.e`, `.e1x`, `.e2.corrupt`, `<journal_path>.corrupt`) is not a
// journal. nullptr `fs` = FileSystem::Default().
Result<std::vector<uint64_t>> ListJournalFiles(FileSystem* fs,
                                               const std::string& journal_path,
                                               bool* live);

// The parse of one journal file: everything up to (not including) the
// first invalid byte.
struct JournalScan {
  int format = 0;        // 0 = empty file, 1 or 2
  uint64_t epoch = 0;    // v2 only; 0 for v1
  uint64_t last_seq = 0;  // v2 only
  std::vector<std::string> statements;
  uint64_t valid_bytes = 0;    // byte length of the valid prefix
  uint64_t dropped_bytes = 0;  // byte length of the corrupt tail (v2)
  std::string corrupt_tail;    // the corrupt tail's bytes (v2)
  Status tail_error;  // OK when the whole file parsed; else why it stopped
};

// Parses a journal file without executing anything. IoError if the file
// cannot be read; a corrupt v2 tail is reported via `tail_error` /
// `dropped_bytes`, not as a failure. v1 files cannot self-detect
// corruption: every non-blank line is taken as a statement. Since the
// journal totally orders transactions, the first n statements run
// through an ActiveDatabase rebuild the database as of transaction n
// (transaction-time travel, docs/TQL.md).
Result<JournalScan> ScanJournal(const std::string& path,
                                FileSystem* fs = nullptr);

// Moves the corrupt tail of a v2 journal (if any) to `<path>.corrupt`
// (appending, so repeated salvages accumulate evidence) and truncates the
// journal to its longest valid prefix. Returns the scan describing what
// was kept. No-op beyond the scan for clean files and v1 files.
//
// RECOVERY-ONLY: salvage decides that the file will never grow again and
// amputates its tail. A journal that is still being appended to routinely
// shows a partially-written final record; live-tail readers (replication,
// tail-follow) must use ScanJournalTail below, which reports such a tail
// as retryable instead of quarantining acknowledged-in-flight bytes.
Result<JournalScan> SalvageJournal(const std::string& path,
                                   FileSystem* fs = nullptr);

// The salvage step alone, for a caller that already holds `scan` of
// `path` and must look at it before anything on disk changes (recovery
// checks the live journal's epoch first): quarantines scan.corrupt_tail
// and truncates `path` to scan.valid_bytes. No-op when the scan found no
// corrupt v2 tail. SalvageJournal is ScanJournal followed by this.
Status QuarantineJournalTail(const std::string& path, const JournalScan& scan,
                             FileSystem* fs = nullptr);

// One framed record as seen by a tail-follower: the statement plus the
// framing fields a follower re-verifies on its own side.
struct TailRecord {
  uint64_t seq = 0;
  uint32_t crc = 0;  // CRC32 over "<seq> <statement>", as framed on disk
  std::string statement;
};

// The result of one incremental live-tail read (see ScanJournalTail).
struct TailScan {
  int format = 0;        // 0 = empty file (header not yet durable), 1 or 2
  uint64_t epoch = 0;    // v2 header epoch (valid once format == 2)
  std::vector<TailRecord> records;
  // Byte offset just past the last complete record consumed (or past the
  // header when no record was). Pass it back as the next read's `offset`.
  uint64_t end_offset = 0;
  // Trailing bytes after end_offset form an incomplete record (no
  // terminating newline yet): an append in flight, or a torn tail that
  // recovery has not yet adjudicated. The reader retries later — it must
  // never salvage (that decision belongs to recovery alone).
  bool partial_tail = false;
  // Non-OK only for damage that cannot be an append in flight: a
  // *complete* line with malformed framing, a length or CRC mismatch, or
  // a sequence discontinuity. The scan stops at the damaged record.
  Status error;
};

// Incrementally parses the framed records of a v2 journal starting at
// byte `offset` (0 = start of file; the header is parsed and skipped),
// expecting the first record to carry `expected_seq` (0 = accept whatever
// sequence the first record carries, then require contiguity). Reads at
// most `max_records` records. Purely observational: never truncates,
// renames, or quarantines anything — safe against a journal that another
// process is appending to. v1 files cannot be tail-followed
// (FailedPrecondition).
Result<TailScan> ScanJournalTail(const std::string& path, uint64_t offset,
                                 uint64_t expected_seq, size_t max_records,
                                 FileSystem* fs = nullptr);

// The durable frontier of a journal as sampled by a replication source:
// every record up to (epoch, seq) is fdatasync-durable and safe to ship.
// `drained` reports whether every statement accepted for commit had
// reached disk at sampling time (the condition under which a follower
// that catches up to this horizon has seen *everything* committed).
struct JournalHorizon {
  // `handoff_seq` value meaning "the previous epoch's extent is unknown".
  static constexpr uint64_t kNoHandoff = ~0ULL;

  uint64_t epoch = 0;
  uint64_t seq = 0;   // last durable record of `epoch`; 0 = none yet
  bool drained = true;
  // The final seq of epoch `epoch - 1`, when the provider witnessed the
  // rotation that ended it (kNoHandoff otherwise). Lets a follower that
  // had fully consumed the previous epoch roll to `epoch` even after a
  // checkpoint deleted the rotated file — without this, every checkpoint
  // would force a snapshot resync on followers that missed nothing.
  uint64_t handoff_seq = kNoHandoff;
};

// Implemented by journal owners that know their durable frontier
// (GroupCommitJournal). A ReplicationSource constructed without one falls
// back to shipping whatever is on disk — correct only for files no
// writer holds open (offline copies, a closed journal).
class HorizonProvider {
 public:
  virtual ~HorizonProvider() = default;
  virtual JournalHorizon ReplicationHorizon() const = 0;
};

class Journal {
 public:
  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal() { Close(); }

  // Opens (creating or appending to) the journal file. An existing v2
  // file with a torn tail is salvaged first (tail quarantined to
  // `<path>.corrupt`) so new records are never appended after corrupt
  // bytes; an existing v1 file is continued in v1 format; a new or empty
  // file starts a v2 journal stamped with options.epoch.
  Status Open(const std::string& path, const JournalOptions& options = {});
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  int format() const { return format_; }
  uint64_t epoch() const { return epoch_; }

  // Appends one framed record; it is durable only after the next Sync().
  // Statements cannot contain raw newlines (string literals escape them),
  // so the framing is unambiguous.
  Status Append(std::string_view statement);

  // fdatasyncs everything appended so far: the commit point.
  Status Sync();

  // Number of statements appended through this handle.
  size_t appended() const { return appended_; }

  // Sequence number of the last record in the current epoch (0 when the
  // epoch is still empty). Replication sources use it to bound shipping.
  uint64_t last_seq() const { return next_seq_ - 1; }

  // Number of fdatasyncs issued through Sync() on this handle — the
  // denominator group commit optimizes; benchmarks report it as a
  // counter.
  size_t sync_count() const { return sync_count_; }

  // Renames the live journal aside to RotatedPath(path, epoch) and starts
  // a fresh journal at `path` with epoch+1. The rotated file is the
  // durable record of this epoch until a snapshot covering it lands; see
  // RecoveryManager::Checkpoint for the protocol. Returns the rotated
  // path.
  Result<std::string> Rotate();

  // Where Rotate parks the journal of `epoch`.
  static std::string RotatedPath(const std::string& path, uint64_t epoch);

  void Close();

 private:
  Status WriteHeader();
  FileSystem* fs() const;

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  JournalOptions options_;
  int format_ = 2;
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 1;
  size_t appended_ = 0;
  size_t sync_count_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_JOURNAL_H_

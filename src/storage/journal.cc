#include "storage/journal.h"

#include <algorithm>
#include <limits>

#include "common/crc32.h"
#include "common/string_util.h"

namespace tchimera {
namespace {

constexpr std::string_view kJournalMagic = "TCHIMERA-JOURNAL";

// Strict all-digits parse (no sign, no trailing junk).
bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// Consumes the next space-delimited token of `line` starting at `pos`.
bool NextToken(std::string_view line, size_t* pos, std::string_view* token) {
  size_t start = *pos;
  size_t space = line.find(' ', start);
  if (space == std::string_view::npos) return false;
  *token = line.substr(start, space - start);
  *pos = space + 1;
  return true;
}

std::string RecordPayload(uint64_t seq, std::string_view statement) {
  std::string payload = std::to_string(seq);
  payload.push_back(' ');
  payload.append(statement);
  return payload;
}

// True when `content` starts with the v2 magic, or with a proper prefix
// of it (a v2 header torn at creation time).
bool HasV2Magic(std::string_view content) {
  size_t probe = std::min(content.size(), kJournalMagic.size());
  return content.substr(0, probe) == kJournalMagic.substr(0, probe);
}

// The v2 header line "TCHIMERA-JOURNAL <version> <epoch>" (without its
// newline). Callers decide what a malformed field means to them.
struct HeaderLine {
  bool framed = false;  // magic and version parsed
  uint64_t version = 0;
  bool epoch_ok = false;
  uint64_t epoch = 0;
};

HeaderLine ParseHeaderLine(std::string_view line) {
  HeaderLine header;
  size_t pos = 0;
  std::string_view magic, version_text;
  header.framed = NextToken(line, &pos, &magic) && magic == kJournalMagic &&
                  NextToken(line, &pos, &version_text) &&
                  ParseU64(version_text, &header.version);
  if (header.framed) {
    header.epoch_ok = ParseU64(line.substr(pos), &header.epoch);
  }
  return header;
}

struct RecordLine {
  uint64_t seq = 0;
  uint32_t crc = 0;
  std::string_view statement;
};

// One record line "R <seq> <len> <crc32> <statement>" (without its
// newline), checked in order: framing, length, sequence (`expected_seq`;
// 0 accepts any), checksum. The error names the first failed check.
Status ParseRecordLine(std::string_view line, uint64_t expected_seq,
                       RecordLine* record) {
  size_t pos = 0;
  std::string_view tag, seq_text, len_text, crc_text;
  uint64_t len = 0;
  if (!NextToken(line, &pos, &tag) || tag != "R" ||
      !NextToken(line, &pos, &seq_text) ||
      !ParseU64(seq_text, &record->seq) ||
      !NextToken(line, &pos, &len_text) || !ParseU64(len_text, &len) ||
      !NextToken(line, &pos, &crc_text) ||
      !ParseCrc32Hex(crc_text, &record->crc)) {
    return Status::Corruption("malformed record framing");
  }
  record->statement = line.substr(pos);
  if (record->statement.size() != len) {
    return Status::Corruption(
        "record length mismatch (framed " + std::to_string(len) +
        ", actual " + std::to_string(record->statement.size()) + ")");
  }
  if (expected_seq != 0 && record->seq != expected_seq) {
    return Status::Corruption(
        "sequence gap (expected " + std::to_string(expected_seq) +
        ", found " + std::to_string(record->seq) + ")");
  }
  if (Crc32(RecordPayload(record->seq, record->statement)) != record->crc) {
    return Status::Corruption("checksum mismatch at record " +
                              std::to_string(record->seq));
  }
  return Status::OK();
}

// Parses the v2 records of `content` starting at `offset` into `scan`.
void ScanV2Records(std::string_view content, size_t offset,
                   JournalScan* scan) {
  scan->valid_bytes = offset;
  uint64_t expected_seq = 1;
  while (offset < content.size()) {
    size_t newline = content.find('\n', offset);
    if (newline == std::string_view::npos) {
      scan->tail_error = Status::Corruption("torn record (no newline)");
      break;
    }
    RecordLine record;
    scan->tail_error = ParseRecordLine(
        content.substr(offset, newline - offset), expected_seq, &record);
    if (!scan->tail_error.ok()) break;
    scan->statements.emplace_back(record.statement);
    scan->last_seq = record.seq;
    ++expected_seq;
    offset = newline + 1;
    scan->valid_bytes = offset;
  }
  scan->dropped_bytes = content.size() - scan->valid_bytes;
}

}  // namespace

Result<JournalScan> ScanJournal(const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  JournalScan scan;
  if (content.empty()) return scan;  // format 0: a fresh, empty journal

  if (!HasV2Magic(content)) {
    // v1: bare statements, one per line, nothing to verify.
    scan.format = 1;
    size_t offset = 0;
    while (offset < content.size()) {
      size_t newline = content.find('\n', offset);
      size_t end = newline == std::string::npos ? content.size() : newline;
      std::string_view line =
          std::string_view(content).substr(offset, end - offset);
      if (!StripWhitespace(line).empty()) scan.statements.emplace_back(line);
      offset = newline == std::string::npos ? content.size() : newline + 1;
    }
    scan.valid_bytes = content.size();
    return scan;
  }

  scan.format = 2;
  size_t header_end = content.find('\n');
  if (header_end == std::string::npos) {
    scan.tail_error = Status::Corruption("torn journal header");
    scan.dropped_bytes = content.size();
    return scan;
  }
  HeaderLine header =
      ParseHeaderLine(std::string_view(content).substr(0, header_end));
  if (!header.framed) {
    scan.tail_error = Status::Corruption("malformed journal header");
    scan.dropped_bytes = content.size();
    return scan;
  }
  if (header.version != 2) {
    return Status::Corruption("unsupported journal version " +
                              std::to_string(header.version) + " in " + path);
  }
  if (!header.epoch_ok) {
    scan.tail_error = Status::Corruption("malformed journal epoch");
    scan.dropped_bytes = content.size();
    return scan;
  }
  scan.epoch = header.epoch;
  ScanV2Records(content, header_end + 1, &scan);
  return scan;
}

Result<TailScan> ScanJournalTail(const std::string& path, uint64_t offset,
                                 uint64_t expected_seq, size_t max_records,
                                 FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  TailScan scan;
  if (offset > content.size()) {
    // The file shrank below our position: it was rotated or truncated
    // underneath us. Not corruption — the caller re-resolves its cursor.
    scan.error = Status::Unavailable(
        "journal " + path + " is shorter (" +
        std::to_string(content.size()) + " bytes) than the read offset " +
        std::to_string(offset) + "; the file was rotated or truncated");
    return scan;
  }
  if (offset == 0) {
    if (content.empty()) {
      // Created but header not yet durable — an open in flight.
      scan.partial_tail = true;
      return scan;
    }
    if (!HasV2Magic(content)) {
      return Status::FailedPrecondition(
          "journal " + path + " is v1 (unframed); v1 journals cannot be "
          "tail-followed");
    }
    size_t header_end = content.find('\n');
    if (header_end == std::string::npos) {
      // The header line itself is mid-append.
      scan.partial_tail = true;
      return scan;
    }
    HeaderLine header =
        ParseHeaderLine(std::string_view(content).substr(0, header_end));
    if (!header.framed || header.version != 2 || !header.epoch_ok) {
      scan.error = Status::Corruption("malformed journal header in " + path);
      return scan;
    }
    scan.epoch = header.epoch;
    scan.format = 2;
    offset = header_end + 1;
  } else {
    scan.format = 2;
  }
  scan.end_offset = offset;

  std::string_view body(content);
  while (offset < body.size() && scan.records.size() < max_records) {
    size_t newline = body.find('\n', offset);
    if (newline == std::string_view::npos) {
      // An append in flight (or a torn tail recovery has not yet seen):
      // retryable, never salvageable from here.
      scan.partial_tail = true;
      break;
    }
    RecordLine record;
    Status parsed = ParseRecordLine(body.substr(offset, newline - offset),
                                    expected_seq, &record);
    if (!parsed.ok()) {
      // A complete line that does not verify: real damage, not a torn
      // append (torn appends have no newline).
      scan.error = Status::Corruption(parsed.message() + " at offset " +
                                      std::to_string(offset) + " in " +
                                      path);
      break;
    }
    scan.records.push_back(
        TailRecord{record.seq, record.crc, std::string(record.statement)});
    expected_seq = record.seq + 1;
    offset = newline + 1;
    scan.end_offset = offset;
  }
  return scan;
}

Result<JournalScan> SalvageJournal(const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(path, fs));
  if (scan.format != 2 || scan.tail_error.ok() || scan.dropped_bytes == 0) {
    return scan;
  }
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  std::string_view tail =
      std::string_view(content).substr(scan.valid_bytes);
  {
    TCH_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> corrupt,
        fs->OpenWritable(path + ".corrupt", /*truncate=*/false));
    TCH_RETURN_IF_ERROR(corrupt->Append(tail));
    TCH_RETURN_IF_ERROR(corrupt->Sync());
    TCH_RETURN_IF_ERROR(corrupt->Close());
  }
  TCH_RETURN_IF_ERROR(fs->TruncateFile(path, scan.valid_bytes));
  return scan;
}

FileSystem* Journal::fs() const {
  return options_.fs == nullptr ? FileSystem::Default() : options_.fs;
}

Status Journal::WriteHeader() {
  std::string header(kJournalMagic);
  header += " 2 " + std::to_string(epoch_) + "\n";
  TCH_RETURN_IF_ERROR(file_->Append(header));
  // The header (and the file's existence) must be durable before any
  // record: a record without its header would replay as v1 garbage.
  TCH_RETURN_IF_ERROR(file_->Sync());
  size_t slash = path_.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
  if (dir.empty()) dir = "/";
  return fs()->SyncDir(dir);
}

Status Journal::Open(const std::string& path, const JournalOptions& options) {
  if (file_ != nullptr) return Status::FailedPrecondition("journal is open");
  options_ = options;
  path_ = path;
  format_ = 2;
  epoch_ = options.epoch;
  next_seq_ = 1;
  appended_ = 0;

  bool needs_header = true;
  if (fs()->FileExists(path)) {
    // Never append after corrupt bytes: quarantine a torn tail first.
    TCH_ASSIGN_OR_RETURN(JournalScan scan, SalvageJournal(path, fs()));
    if (scan.format == 1) {
      format_ = 1;
      epoch_ = 0;
      needs_header = false;
    } else if (scan.format == 2) {
      epoch_ = scan.epoch;
      next_seq_ = scan.last_seq + 1;
      needs_header = false;
    }
  }
  TCH_ASSIGN_OR_RETURN(file_, fs()->OpenWritable(path, /*truncate=*/false));
  if (needs_header) {
    Status s = WriteHeader();
    if (!s.ok()) {
      file_.reset();
      return s;
    }
  }
  return Status::OK();
}

Status Journal::Append(std::string_view statement) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (statement.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument(
        "journaled statements cannot contain raw newlines");
  }
  std::string line;
  if (format_ == 1) {
    line.assign(statement);
    line.push_back('\n');
  } else {
    uint64_t seq = next_seq_;
    uint32_t crc = Crc32(RecordPayload(seq, statement));
    line = "R " + std::to_string(seq) + " " +
           std::to_string(statement.size()) + " " + Crc32Hex(crc) + " ";
    line.append(statement);
    line.push_back('\n');
  }
  TCH_RETURN_IF_ERROR(file_->Append(line));
  if (format_ == 2) ++next_seq_;
  ++appended_;
  return Status::OK();
}

Status Journal::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open");
  }
  TCH_RETURN_IF_ERROR(file_->Sync());
  ++sync_count_;
  return Status::OK();
}

std::string Journal::RotatedPath(const std::string& path, uint64_t epoch) {
  return path + ".e" + std::to_string(epoch);
}

Result<std::string> Journal::Rotate() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open");
  }
  // The rotated file must carry everything appended so far, synced or
  // not.
  TCH_RETURN_IF_ERROR(file_->Sync());
  TCH_RETURN_IF_ERROR(file_->Close());
  file_.reset();
  std::string rotated = RotatedPath(path_, epoch_);
  TCH_RETURN_IF_ERROR(fs()->RenameFile(path_, rotated));
  ++epoch_;
  format_ = 2;
  next_seq_ = 1;
  TCH_ASSIGN_OR_RETURN(file_, fs()->OpenWritable(path_, /*truncate=*/false));
  TCH_RETURN_IF_ERROR(WriteHeader());
  return rotated;
}

void Journal::Close() {
  if (file_ != nullptr) {
    (void)file_->Sync();
    (void)file_->Close();
    file_.reset();
  }
}

Result<size_t> Journal::Replay(const std::string& path,
                               const StatementExecutor& exec) {
  return ReplayPrefix(path, exec, std::numeric_limits<size_t>::max());
}

Result<size_t> Journal::ReplayPrefix(const std::string& path,
                                     const StatementExecutor& exec,
                                     size_t max_statements) {
  TCH_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(path));
  size_t applied = 0;
  for (const std::string& statement : scan.statements) {
    if (applied >= max_statements) break;
    Status s = exec(statement);
    if (!s.ok()) {
      return Status::Corruption(
          "journal " + path + " statement " + std::to_string(applied + 1) +
          " failed to replay: " + s.ToString());
    }
    ++applied;
  }
  // Strict semantics: a torn tail is an error here — but only if the
  // requested prefix actually reaches into it.
  if (!scan.tail_error.ok() && applied < max_statements) {
    return Status::Corruption("journal " + path + " has a corrupt tail: " +
                              scan.tail_error.message());
  }
  return applied;
}

}  // namespace tchimera

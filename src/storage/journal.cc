#include "storage/journal.h"

#include <algorithm>
#include <limits>

#include "common/crc32.h"
#include "common/string_util.h"

namespace tchimera {
namespace {

constexpr std::string_view kJournalMagic = "TCHIMERA-JOURNAL";
// A rotated journal is `<journal>.e<epoch>` (Journal::RotatedPath).
constexpr std::string_view kRotatedSuffix = ".e";

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

// True when `content` starts with the v2 magic, or with a proper prefix
// of it (a v2 header torn at creation time).
bool HasV2Magic(std::string_view content) {
  size_t probe = std::min(content.size(), kJournalMagic.size());
  return content.substr(0, probe) == kJournalMagic.substr(0, probe);
}

// The directory holding `path`.
std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

// A journal's first line "TCHIMERA-JOURNAL <version> <epoch>", as far as
// it parsed. Each reader decides what a kind means to it.
struct Header {
  enum Kind {
    kEmpty,        // no bytes at all
    kV1,           // no v2 magic: bare statements
    kTorn,         // v2 magic but no newline yet
    kMalformed,    // a complete line that is not a v2 header
    kUnsupported,  // a well-formed header of another version
    kV2,
  };
  Kind kind = kEmpty;
  Status error;       // why, for kTorn / kMalformed / kUnsupported
  uint64_t epoch = 0;
  size_t body = 0;    // kV2: offset of the first record
};

Header ReadHeader(std::string_view content) {
  Header header;
  if (content.empty()) return header;
  if (!HasV2Magic(content)) {
    header.kind = Header::kV1;
    return header;
  }
  const size_t end = content.find('\n');
  if (end == std::string_view::npos) {
    header.kind = Header::kTorn;
    header.error = Status::Corruption("torn journal header");
    return header;
  }
  std::string_view line = content.substr(0, end);
  size_t pos = 0;
  std::string_view magic, version_text;
  uint64_t version = 0;
  if (!NextToken(line, &pos, &magic) || magic != kJournalMagic ||
      !NextToken(line, &pos, &version_text) ||
      !ParseU64(version_text, &version)) {
    header.kind = Header::kMalformed;
    header.error = Status::Corruption("malformed journal header");
  } else if (version != 2) {
    header.kind = Header::kUnsupported;
    header.error = Status::Corruption("unsupported journal version " +
                                      std::to_string(version));
  } else if (!ParseU64(line.substr(pos), &header.epoch)) {
    header.kind = Header::kMalformed;
    header.error = Status::Corruption("malformed journal epoch");
  } else {
    header.kind = Header::kV2;
    header.body = end + 1;
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
  if (JournalRecordCrc(record->seq, record->statement) != record->crc) {
    return Status::Corruption("checksum mismatch at record " +
                              std::to_string(record->seq));
  }
  return Status::OK();
}

// Where and why a walk over record lines stopped.
struct RecordWalk {
  std::vector<RecordLine> records;  // views into the walked content
  size_t end = 0;     // offset just past the last record accepted
  bool torn = false;  // stopped at trailing bytes with no newline
  Status error;       // stopped at a complete line that does not verify
};

// The one record loop: verifies the record lines of `content` from
// `offset` on until the content ends, a line is torn or damaged, or
// `max_records` were accepted. The first record must carry
// `expected_seq` (0 accepts any), each later one its predecessor's + 1.
RecordWalk WalkRecords(std::string_view content, size_t offset,
                       uint64_t expected_seq, size_t max_records) {
  RecordWalk walk;
  walk.end = offset;
  while (walk.end < content.size() && walk.records.size() < max_records) {
    const size_t newline = content.find('\n', walk.end);
    if (newline == std::string_view::npos) {
      walk.torn = true;
      break;
    }
    RecordLine record;
    walk.error = ParseRecordLine(
        content.substr(walk.end, newline - walk.end), expected_seq, &record);
    if (!walk.error.ok()) break;
    walk.records.push_back(record);
    expected_seq = record.seq + 1;
    walk.end = newline + 1;
  }
  return walk;
}

// ScanJournal over a file's bytes; `path` only names it in errors.
Result<JournalScan> ScanContent(std::string_view content,
                                const std::string& path) {
  JournalScan scan;
  const Header header = ReadHeader(content);
  if (header.kind == Header::kEmpty) return scan;  // a fresh, empty journal
  if (header.kind == Header::kV1) {
    // Bare statements, one per line, nothing to verify.
    scan.format = 1;
    size_t offset = 0;
    while (offset < content.size()) {
      size_t newline = content.find('\n', offset);
      size_t end = newline == std::string_view::npos ? content.size() : newline;
      std::string_view line = content.substr(offset, end - offset);
      if (!StripWhitespace(line).empty()) scan.statements.emplace_back(line);
      offset = end + 1;
    }
    scan.valid_bytes = content.size();
    return scan;
  }
  if (header.kind == Header::kUnsupported) {
    return Status::Corruption(header.error.message() + " in " + path);
  }
  scan.format = 2;
  if (header.kind != Header::kV2) {  // torn or malformed: nothing is valid
    scan.tail_error = header.error;
    scan.dropped_bytes = content.size();
    return scan;
  }
  scan.epoch = header.epoch;
  RecordWalk walk = WalkRecords(content, header.body, /*expected_seq=*/1,
                                std::numeric_limits<size_t>::max());
  for (const RecordLine& record : walk.records) {
    scan.statements.emplace_back(record.statement);
  }
  if (!walk.records.empty()) scan.last_seq = walk.records.back().seq;
  scan.valid_bytes = walk.end;
  scan.dropped_bytes = content.size() - walk.end;
  scan.tail_error =
      walk.torn ? Status::Corruption("torn record (no newline)") : walk.error;
  return scan;
}

}  // namespace

uint32_t JournalRecordCrc(uint64_t seq, std::string_view statement) {
  return Crc32(statement, Crc32(std::to_string(seq) + " "));
}

Result<std::vector<uint64_t>> ListJournalFiles(FileSystem* fs,
                                               const std::string& journal_path,
                                               bool* live) {
  if (fs == nullptr) fs = FileSystem::Default();
  const std::string base =
      journal_path.substr(journal_path.find_last_of('/') + 1);
  const std::string rotated_prefix = base + std::string(kRotatedSuffix);
  TCH_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       fs->ListDirectory(DirOf(journal_path)));
  std::vector<uint64_t> epochs;
  *live = false;
  for (const std::string& name : names) {
    uint64_t epoch = 0;
    if (name == base) {
      *live = true;
    } else if (name.starts_with(rotated_prefix) &&
               ParseU64(std::string_view(name).substr(rotated_prefix.size()),
                        &epoch)) {
      epochs.push_back(epoch);
    }
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Result<JournalScan> ScanJournal(const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  return ScanContent(content, path);
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
    const Header header = ReadHeader(content);
    if (header.kind == Header::kV1) {
      return Status::FailedPrecondition(
          "journal " + path + " is v1 (unframed); v1 journals cannot be "
          "tail-followed");
    }
    // Empty or torn: the open that writes the header is still in flight.
    scan.partial_tail =
        header.kind == Header::kEmpty || header.kind == Header::kTorn;
    if (scan.partial_tail) return scan;
    if (header.kind != Header::kV2) {
      scan.error = Status::Corruption("malformed journal header in " + path);
      return scan;
    }
    scan.epoch = header.epoch;
    offset = header.body;
  }
  scan.format = 2;

  RecordWalk walk = WalkRecords(content, offset, expected_seq, max_records);
  for (const RecordLine& record : walk.records) {
    scan.records.push_back(
        TailRecord{record.seq, record.crc, std::string(record.statement)});
  }
  scan.end_offset = walk.end;
  // A torn line is an append in flight (or a torn tail recovery has not
  // yet seen): retryable, never salvageable from here. A complete line
  // that does not verify is real damage.
  scan.partial_tail = walk.torn;
  if (!walk.error.ok()) {
    scan.error = Status::Corruption(walk.error.message() + " at offset " +
                                    std::to_string(walk.end) + " in " + path);
  }
  return scan;
}

Result<JournalScan> SalvageJournal(const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  TCH_ASSIGN_OR_RETURN(JournalScan scan, ScanContent(content, path));
  if (scan.format != 2 || scan.tail_error.ok() || scan.dropped_bytes == 0) {
    return scan;
  }
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
  return fs()->SyncDir(DirOf(path_));
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
    line = "R " + std::to_string(next_seq_) + " " +
           std::to_string(statement.size()) + " " +
           Crc32Hex(JournalRecordCrc(next_seq_, statement)) + " ";
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
  return path + std::string(kRotatedSuffix) + std::to_string(epoch);
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

}  // namespace tchimera

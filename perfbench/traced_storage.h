// Storage-layer wrappers for the traced run: a CommitSink that forwards
// to the GroupCommitJournal, and a FileSystem whose writable files
// forward to another one (passed to the journal via JournalOptions::fs).
// Each records spans and counts bytes and syncs; with tracing disabled
// they only forward and count.
#ifndef PERFBENCH_TRACED_STORAGE_H_
#define PERFBENCH_TRACED_STORAGE_H_

#include <atomic>
#include <cstdint>

#include "common/fault_fs.h"
#include "query/session.h"

namespace perfbench {

struct StorageCounters {
  std::atomic<uint64_t> enqueues{0};
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> bytes_appended{0};
  std::atomic<uint64_t> syncs{0};
};

class TracedSink final : public tchimera::CommitSink {
 public:
  TracedSink(tchimera::CommitSink* base, StorageCounters* counters)
      : base_(base), counters_(counters) {}
  Ticket Enqueue(std::string_view statement) override;
  tchimera::Status Await(Ticket ticket) override;

 private:
  tchimera::CommitSink* base_;
  StorageCounters* counters_;
};

class TracedFileSystem final : public tchimera::FileSystem {
 public:
  TracedFileSystem(tchimera::FileSystem* base, StorageCounters* counters)
      : base_(base), counters_(counters) {}

  tchimera::Result<std::unique_ptr<tchimera::WritableFile>> OpenWritable(
      const std::string& path, bool truncate) override;
  tchimera::Status RenameFile(const std::string& from,
                              const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  tchimera::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  tchimera::Status TruncateFile(const std::string& path,
                                uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  tchimera::Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }
  tchimera::Result<std::string> ReadFileToString(
      const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  tchimera::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  tchimera::Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override {
    return base_->ListDirectory(path);
  }

 private:
  tchimera::FileSystem* base_;
  StorageCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_STORAGE_H_

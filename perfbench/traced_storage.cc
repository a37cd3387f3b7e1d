#include "traced_storage.h"

#include "trace.h"

namespace perfbench {
namespace {

class TracedWritableFile final : public tchimera::WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<tchimera::WritableFile> base,
                     StorageCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  tchimera::Status Append(std::string_view data) override {
    ScopedSpan span("WritableFile::Append");
    counters_->appends.fetch_add(1, std::memory_order_relaxed);
    counters_->bytes_appended.fetch_add(data.size(),
                                        std::memory_order_relaxed);
    return base_->Append(data);
  }
  tchimera::Status Sync() override {
    ScopedSpan span("WritableFile::Sync");
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }
  tchimera::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<tchimera::WritableFile> base_;
  StorageCounters* counters_;
};

}  // namespace

tchimera::CommitSink::Ticket TracedSink::Enqueue(std::string_view statement) {
  ScopedSpan span("CommitSink::Enqueue");
  counters_->enqueues.fetch_add(1, std::memory_order_relaxed);
  return base_->Enqueue(statement);
}

tchimera::Status TracedSink::Await(Ticket ticket) {
  ScopedSpan span("CommitSink::Await");
  return base_->Await(ticket);
}

tchimera::Result<std::unique_ptr<tchimera::WritableFile>>
TracedFileSystem::OpenWritable(const std::string& path, bool truncate) {
  TCH_ASSIGN_OR_RETURN(std::unique_ptr<tchimera::WritableFile> file,
                       base_->OpenWritable(path, truncate));
  return std::unique_ptr<tchimera::WritableFile>(
      std::make_unique<TracedWritableFile>(std::move(file), counters_));
}

}  // namespace perfbench

// A RAM-backed FileSystem for the durable workloads' run directories.
//
// Each file is a memfd (an anonymous file on the kernel's internal tmpfs
// mount), named by its path in a private namespace: nothing is created on
// any mounted filesystem. Append is a write(2) into the memfd and Sync a
// real fdatasync(2) on it, exactly what a journal in /dev/shm costs, so
// the group-commit path runs unchanged while shared-disk flush latency
// (which varies several-fold from run to run on a shared host) stays out
// of the measurement. Passed to the journal through JournalOptions::fs,
// to checkpoints, and to RecoveryManager for the post-run check.
#ifndef PERFBENCH_MEMFD_FS_H_
#define PERFBENCH_MEMFD_FS_H_

#include <map>
#include <mutex>
#include <string>

#include "common/fault_fs.h"

namespace perfbench {

class MemfdFileSystem final : public tchimera::FileSystem {
 public:
  MemfdFileSystem() = default;
  ~MemfdFileSystem() override;
  MemfdFileSystem(const MemfdFileSystem&) = delete;
  MemfdFileSystem& operator=(const MemfdFileSystem&) = delete;

  // The filesystem type memfds live on ("tmpfs"), for the run record.
  static std::string BackingType();

  tchimera::Result<std::unique_ptr<tchimera::WritableFile>> OpenWritable(
      const std::string& path, bool truncate) override;
  tchimera::Status RenameFile(const std::string& from,
                              const std::string& to) override;
  tchimera::Status RemoveFile(const std::string& path) override;
  tchimera::Status TruncateFile(const std::string& path,
                                uint64_t size) override;
  // Directories are implicit; there is nothing to sync.
  tchimera::Status SyncDir(const std::string&) override {
    return tchimera::Status::OK();
  }
  tchimera::Result<std::string> ReadFileToString(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  tchimera::Result<uint64_t> FileSize(const std::string& path) override;
  tchimera::Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;

 private:
  // The memfd behind `path`, or -1. Requires mu_.
  int FdLocked(const std::string& path) const;

  mutable std::mutex mu_;
  std::map<std::string, int> files_;  // path -> memfd; guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_MEMFD_FS_H_

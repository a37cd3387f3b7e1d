#include "memfd_fs.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace perfbench {
namespace {

using tchimera::Status;

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

Status NotFound(const std::string& path) {
  return Status::IoError("no such file: " + path);
}

// Appends at the end of the file as of opening (or truncation): one
// writer per file, as the journal and snapshot writers are.
class MemfdWritableFile final : public tchimera::WritableFile {
 public:
  MemfdWritableFile(int fd, uint64_t offset, std::string path)
      : fd_(fd), offset_(offset), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    while (!data.empty()) {
      ssize_t n = ::pwrite(fd_, data.data(), data.size(),
                           static_cast<off_t>(offset_));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("write", path_);
      }
      offset_ += static_cast<uint64_t>(n);
      data.remove_prefix(static_cast<size_t>(n));
    }
    return Status::OK();
  }
  Status Sync() override {
    while (::fdatasync(fd_) != 0) {
      if (errno != EINTR) return Errno("fdatasync", path_);
    }
    return Status::OK();
  }
  // The memfd belongs to the filesystem; the file outlives the handle.
  Status Close() override { return Status::OK(); }

 private:
  int fd_;
  uint64_t offset_;
  std::string path_;
};

uint64_t SizeOf(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

}  // namespace

MemfdFileSystem::~MemfdFileSystem() {
  for (const auto& [path, fd] : files_) ::close(fd);
}

std::string MemfdFileSystem::BackingType() {
  int fd = ::memfd_create("perfbench-probe", MFD_CLOEXEC);
  if (fd < 0) return "unknown";
  struct statfs fs {};
  const bool ok = ::fstatfs(fd, &fs) == 0;
  ::close(fd);
  if (!ok) return "unknown";
  return static_cast<unsigned long>(fs.f_type) == 0x01021994UL ? "tmpfs"
                                                                : "other";
}

int MemfdFileSystem::FdLocked(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? -1 : it->second;
}

tchimera::Result<std::unique_ptr<tchimera::WritableFile>>
MemfdFileSystem::OpenWritable(const std::string& path, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  int fd = FdLocked(path);
  if (fd < 0) {
    fd = ::memfd_create("perfbench", MFD_CLOEXEC);
    if (fd < 0) return Errno("memfd_create", path);
    files_[path] = fd;
  } else if (truncate && ::ftruncate(fd, 0) != 0) {
    return Errno("truncate", path);
  }
  return std::unique_ptr<tchimera::WritableFile>(
      std::make_unique<MemfdWritableFile>(fd, SizeOf(fd), path));
}

Status MemfdFileSystem::RenameFile(const std::string& from,
                                   const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return NotFound(from);
  const int fd = it->second;
  files_.erase(it);
  auto old = files_.find(to);
  if (old != files_.end()) {
    ::close(old->second);
    files_.erase(old);
  }
  files_[to] = fd;
  return Status::OK();
}

Status MemfdFileSystem::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound(path);
  ::close(it->second);
  files_.erase(it);
  return Status::OK();
}

Status MemfdFileSystem::TruncateFile(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  const int fd = FdLocked(path);
  if (fd < 0) return NotFound(path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    return Errno("truncate", path);
  }
  return Status::OK();
}

tchimera::Result<std::string> MemfdFileSystem::ReadFileToString(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  const int fd = FdLocked(path);
  if (fd < 0) return NotFound(path);
  std::string out(SizeOf(fd), '\0');
  size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                        static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Errno("read", path);
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  out.resize(done);
  return out;
}

bool MemfdFileSystem::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return FdLocked(path) >= 0;
}

tchimera::Result<uint64_t> MemfdFileSystem::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  const int fd = FdLocked(path);
  if (fd < 0) return NotFound(path);
  return SizeOf(fd);
}

tchimera::Result<std::vector<std::string>> MemfdFileSystem::ListDirectory(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = path.empty() || path.back() == '/' ? path : path + "/";
  std::vector<std::string> names;
  for (const auto& [file, fd] : files_) {
    if (file.compare(0, prefix.size(), prefix) != 0) continue;
    std::string name = file.substr(prefix.size());
    if (name.find('/') == std::string::npos) names.push_back(name);
  }
  return names;
}

}  // namespace perfbench

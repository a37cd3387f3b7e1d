#include "common/fault_fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace tchimera {
namespace {

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::FailedPrecondition("file is closed");
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      // Short writes are legal (quota boundaries, signals): loop until
      // every byte is handed to the OS. EINTR restarts the same write.
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_);
      }
      if (n == 0) return Status::IoError("write " + path_ + ": wrote 0 bytes");
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("file is closed");
    // A signal during fdatasync (a client disconnect delivering SIGIO/
    // SIGPIPE-adjacent wakeups, a profiler tick) must not surface as a
    // durability failure: EINTR means "not done", so go again.
    while (::fdatasync(fd_) != 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("fdatasync", path_);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    // POSIX leaves the fd state unspecified on EINTR, but Linux
    // guarantees it is closed — retrying could close a recycled fd owned
    // by another thread, which is far worse than accepting the close.
    if (::close(fd) != 0 && errno != EINTR) return ErrnoStatus("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

// open(2) restarted across EINTR (it is not restartable via SA_RESTART
// on all kernels for all file kinds).
int OpenRetry(const char* path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

class PosixFileSystem final : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path, bool truncate) override {
    int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
    flags |= truncate ? O_TRUNC : O_APPEND;
    int fd = OpenRetry(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path));
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from + " -> " + to);
    }
    return SyncDir(ParentDir(to));
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path);
    return SyncDir(ParentDir(path));
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    int rc;
    do {
      rc = ::truncate(path.c_str(), static_cast<off_t>(size));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return ErrnoStatus("truncate", path);
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("open dir", path);
    Status s = Status::OK();
    while (::fsync(fd) != 0) {
      if (errno == EINTR) continue;
      s = ErrnoStatus("fsync dir", path);
      break;
    }
    ::close(fd);
    return s;
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    // Raw read loop rather than ifstream: short reads are the norm once
    // signals fly (a serving process fields SIGIO/timer ticks constantly),
    // and iostreams conflate EINTR with EOF on some libstdc++ builds —
    // which would silently truncate a snapshot or journal mid-recovery.
    int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("open for read", path);
    std::string out;
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      out.reserve(static_cast<size_t>(st.st_size));
    }
    char buf[1 << 16];
    while (true) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        Status s = ErrnoStatus("read", path);
        ::close(fd);
        return s;
      }
      if (n == 0) break;  // true EOF — the only loop exit besides error
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  bool FileExists(const std::string& path) override {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat", path);
    return static_cast<uint64_t>(st.st_size);
  }

  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) return ErrnoStatus("opendir", path);
    std::vector<std::string> names;
    errno = 0;
    while (struct dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      // d_type names the kind without a stat; only an unknown kind (a
      // filesystem that leaves it blank) or a symlink needs one.
      bool regular = entry->d_type == DT_REG;
      if (entry->d_type == DT_UNKNOWN || entry->d_type == DT_LNK) {
        struct stat st {};
        regular = ::stat((path + "/" + name).c_str(), &st) == 0 &&
                  S_ISREG(st.st_mode);
      }
      if (regular) names.push_back(std::move(name));
      errno = 0;
    }
    Status s = errno != 0 ? ErrnoStatus("readdir", path) : Status::OK();
    ::closedir(dir);
    if (!s.ok()) return s;
    return names;
  }
};

Status CrashedStatus() {
  return Status::IoError("injected crash: filesystem is down");
}

}  // namespace

FileSystem* FileSystem::Default() {
  static PosixFileSystem* fs = new PosixFileSystem();
  return fs;
}

// Tracks the synced-vs-written watermark of one file so a crash can roll
// the real file back to what would have survived a power loss.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionFileSystem* fs,
                    std::unique_ptr<WritableFile> base, std::string path,
                    uint64_t initial_size)
      : fs_(fs),
        base_(std::move(base)),
        path_(std::move(path)),
        size_(initial_size),
        synced_size_(initial_size) {
    fs_->Register(this);
  }
  ~FaultWritableFile() override { fs_->Unregister(this); }

  Status Append(std::string_view data) override {
    if (fs_->crashed()) return CrashedStatus();
    switch (fs_->NextOp()) {
      case FaultInjectionFileSystem::OpFate::kFailOnce:
        return Status::IoError("injected I/O failure on append");
      case FaultInjectionFileSystem::OpFate::kCrash: {
        // Torn write: of the unsynced tail (earlier unsynced appends plus
        // this one), only `surviving_tail_bytes` reach the platter.
        uint64_t unsynced = size_ - synced_size_ + data.size();
        uint64_t keep =
            std::min<uint64_t>(fs_->plan_.surviving_tail_bytes, unsynced);
        uint64_t target = synced_size_ + keep;
        if (target > size_) {
          (void)base_->Append(data.substr(0, target - size_));
        }
        (void)base_->Sync();
        (void)fs_->base_->TruncateFile(path_, target);
        size_ = target;
        fs_->CrashNow(this);
        return CrashedStatus();
      }
      case FaultInjectionFileSystem::OpFate::kProceed:
        break;
    }
    TCH_RETURN_IF_ERROR(base_->Append(data));
    size_ += data.size();
    return Status::OK();
  }

  Status Sync() override {
    if (fs_->crashed()) return CrashedStatus();
    switch (fs_->NextOp()) {
      case FaultInjectionFileSystem::OpFate::kFailOnce:
        return Status::IoError("injected I/O failure on sync");
      case FaultInjectionFileSystem::OpFate::kCrash: {
        uint64_t keep = std::min<uint64_t>(fs_->plan_.surviving_tail_bytes,
                                           size_ - synced_size_);
        (void)base_->Sync();
        (void)fs_->base_->TruncateFile(path_, synced_size_ + keep);
        size_ = synced_size_ + keep;
        fs_->CrashNow(this);
        return CrashedStatus();
      }
      case FaultInjectionFileSystem::OpFate::kProceed:
        break;
    }
    TCH_RETURN_IF_ERROR(base_->Sync());
    synced_size_ = size_;
    return Status::OK();
  }

  Status Close() override {
    // Closing is not a durability point; never a crash site, and legal
    // after a crash (the in-memory handle just goes away).
    return base_->Close();
  }

 private:
  friend class FaultInjectionFileSystem;

  FaultInjectionFileSystem* fs_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
  uint64_t size_;
  uint64_t synced_size_;
};

FaultInjectionFileSystem::FaultInjectionFileSystem(FileSystem* base)
    : base_(base == nullptr ? FileSystem::Default() : base) {}

FaultInjectionFileSystem::~FaultInjectionFileSystem() = default;

void FaultInjectionFileSystem::SetPlan(const FaultPlan& plan) {
  plan_ = plan;
  ops_seen_ = 0;
  crashed_ = false;
}

FaultInjectionFileSystem::OpFate FaultInjectionFileSystem::NextOp() {
  uint64_t index = ops_seen_++;
  if (plan_.mode == FaultPlan::Mode::kFailOp && index == plan_.at_op) {
    return OpFate::kFailOnce;
  }
  if (plan_.mode == FaultPlan::Mode::kCrash && index == plan_.at_op) {
    return OpFate::kCrash;
  }
  return OpFate::kProceed;
}

void FaultInjectionFileSystem::CrashNow(FaultWritableFile* torn) {
  crashed_ = true;
  for (FaultWritableFile* file : open_files_) {
    if (file == torn) continue;  // already rolled back by the caller
    (void)file->base_->Sync();
    (void)base_->TruncateFile(file->path_, file->synced_size_);
    file->size_ = file->synced_size_;
  }
}

void FaultInjectionFileSystem::Register(FaultWritableFile* file) {
  open_files_.push_back(file);
}

void FaultInjectionFileSystem::Unregister(FaultWritableFile* file) {
  open_files_.erase(
      std::remove(open_files_.begin(), open_files_.end(), file),
      open_files_.end());
}

Result<std::unique_ptr<WritableFile>> FaultInjectionFileSystem::OpenWritable(
    const std::string& path, bool truncate) {
  if (crashed_) return CrashedStatus();
  switch (NextOp()) {
    case OpFate::kFailOnce:
      return Status::IoError("injected I/O failure on open");
    case OpFate::kCrash:
      CrashNow(nullptr);
      return CrashedStatus();
    case OpFate::kProceed:
      break;
  }
  uint64_t initial_size = 0;
  if (!truncate && base_->FileExists(path)) {
    TCH_ASSIGN_OR_RETURN(initial_size, base_->FileSize(path));
  }
  TCH_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                       base_->OpenWritable(path, truncate));
  return std::unique_ptr<WritableFile>(std::make_unique<FaultWritableFile>(
      this, std::move(base), path, initial_size));
}

Status FaultInjectionFileSystem::RenameFile(const std::string& from,
                                            const std::string& to) {
  if (crashed_) return CrashedStatus();
  switch (NextOp()) {
    case OpFate::kFailOnce:
      return Status::IoError("injected I/O failure on rename");
    case OpFate::kCrash:
      CrashNow(nullptr);  // the rename never happened
      return CrashedStatus();
    case OpFate::kProceed:
      break;
  }
  return base_->RenameFile(from, to);
}

Status FaultInjectionFileSystem::RemoveFile(const std::string& path) {
  if (crashed_) return CrashedStatus();
  switch (NextOp()) {
    case OpFate::kFailOnce:
      return Status::IoError("injected I/O failure on remove");
    case OpFate::kCrash:
      CrashNow(nullptr);
      return CrashedStatus();
    case OpFate::kProceed:
      break;
  }
  return base_->RemoveFile(path);
}

Status FaultInjectionFileSystem::TruncateFile(const std::string& path,
                                              uint64_t size) {
  if (crashed_) return CrashedStatus();
  switch (NextOp()) {
    case OpFate::kFailOnce:
      return Status::IoError("injected I/O failure on truncate");
    case OpFate::kCrash:
      CrashNow(nullptr);
      return CrashedStatus();
    case OpFate::kProceed:
      break;
  }
  return base_->TruncateFile(path, size);
}

Status FaultInjectionFileSystem::SyncDir(const std::string& path) {
  if (crashed_) return CrashedStatus();
  switch (NextOp()) {
    case OpFate::kFailOnce:
      return Status::IoError("injected I/O failure on dir sync");
    case OpFate::kCrash:
      CrashNow(nullptr);
      return CrashedStatus();
    case OpFate::kProceed:
      break;
  }
  return base_->SyncDir(path);
}

Result<std::string> FaultInjectionFileSystem::ReadFileToString(
    const std::string& path) {
  return base_->ReadFileToString(path);
}

bool FaultInjectionFileSystem::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionFileSystem::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Result<std::vector<std::string>> FaultInjectionFileSystem::ListDirectory(
    const std::string& path) {
  return base_->ListDirectory(path);
}

}  // namespace tchimera

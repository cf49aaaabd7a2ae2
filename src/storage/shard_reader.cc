#include "src/storage/shard_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <string>

#include "src/common/timer.h"
#include "src/telemetry/metrics.h"
#include "src/tensor/tensor.h"

namespace inferturbo {
namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " failed for " + path + ": " +
                         std::strerror(errno));
}

/// Opens `path` for one sequential pass and preads all of it; untimed.
Result<AlignedShardBuffer> ReadViaPread(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open", path);
#if defined(POSIX_FADV_SEQUENTIAL)
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL);
#endif
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    const Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  AlignedShardBuffer buffer(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < buffer.size()) {
    const ssize_t n = ::pread(fd, buffer.data() + got, buffer.size() - got,
                              static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Errno("pread", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // EOF
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (got < buffer.size()) {
    return Status::IoError(path + " shrank mid-read (" +
                           std::to_string(got) + " of " +
                           std::to_string(buffer.size()) + " bytes)");
  }
  return buffer;
}

}  // namespace

std::string_view ShardReadPathName(ShardReadPath path) {
  switch (path) {
    case ShardReadPath::kAuto:
      return "auto";
    case ShardReadPath::kMmap:
      return "mmap";
    case ShardReadPath::kPread:
      return "pread";
  }
  return "unknown";
}

ShardReadPath DetectShardReadPath(const std::string& probe_file) {
  return ReadViaPread(probe_file).ok() ? ShardReadPath::kPread
                                       : ShardReadPath::kMmap;
}

void AlignedShardBuffer::Free::operator()(char* p) const {
  detail::FreeFloatBuffer(p);
}

AlignedShardBuffer::AlignedShardBuffer(std::size_t size)
    : storage_(static_cast<char*>(detail::AllocFloatBuffer(size))),
      size_(size) {}

void ObserveShardRead(ShardReadPath path, double seconds,
                      std::int64_t bytes) {
  if (!MetricsEnabled()) return;
  struct Instruments {
    Histogram* seconds;
    Counter* bytes;
    Counter* reads;
  };
  // One slot per tier that can serve a read, indexed by enum value - 1;
  // kAuto resolves to one of them at Open() and never reaches here.
  static const std::array<Instruments, 2>& instruments = *new auto([] {
    std::array<Instruments, 2> out{};
    for (const ShardReadPath tier :
         {ShardReadPath::kMmap, ShardReadPath::kPread}) {
      const std::string base =
          "storage.read." + std::string(ShardReadPathName(tier));
      out[static_cast<std::size_t>(tier) - 1] = {
          GlobalMetrics().GetHistogram(base + ".seconds"),
          GlobalMetrics().GetCounter(base + ".bytes"),
          GlobalMetrics().GetCounter(base + ".reads"),
      };
    }
    return out;
  }());
  // A read attributed to no real tier is a caller bug: trap it in debug
  // builds, and never file it under some other tier's instruments.
  const bool real_tier =
      path == ShardReadPath::kMmap || path == ShardReadPath::kPread;
  assert(real_tier && "shard read observed on no real tier");
  if (!real_tier) return;
  const Instruments& tier =
      instruments[static_cast<std::size_t>(path) - 1];
  tier.seconds->Observe(seconds);
  tier.bytes->Add(bytes);
  tier.reads->Increment();
}

Result<AlignedShardBuffer> ReadFileAligned(const std::string& path) {
  // Time only when metrics are on, so the zero-perturbation contract
  // holds: the disabled cost is one relaxed load + branch per read.
  const bool timed = MetricsEnabled();
  WallTimer timer;
  Result<AlignedShardBuffer> result = ReadViaPread(path);
  if (timed && result.ok()) {
    ObserveShardRead(ShardReadPath::kPread, timer.ElapsedSeconds(),
                     static_cast<std::int64_t>(result->size()));
  }
  return result;
}

}  // namespace inferturbo

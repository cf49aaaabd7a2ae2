#include "src/storage/shard_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#define INFERTURBO_HAS_IO_URING 1
#else
#define INFERTURBO_HAS_IO_URING 0
#endif

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "src/common/timer.h"
#include "src/telemetry/metrics.h"
#include "src/tensor/tensor.h"

namespace inferturbo {
namespace {

/// O_DIRECT wants 512-byte alignment on most filesystems; we align
/// buffers, offsets, and lengths to a full page so every plausible
/// logical block size is covered.
constexpr std::size_t kDirectAlignment = 4096;
/// Chunk size for io_uring submissions: big enough to amortize ring
/// overhead, small enough that several chunks pipeline on the device.
constexpr std::size_t kUringChunkBytes = std::size_t{1} << 20;

std::size_t RoundUpAligned(std::size_t bytes) {
  return (bytes + kDirectAlignment - 1) & ~(kDirectAlignment - 1);
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " failed for " + path + ": " +
                         std::strerror(errno));
}

/// Opens read-only with O_DIRECT when the filesystem accepts it,
/// falling back to a buffered fd tuned for one sequential pass.
int OpenForRead(const std::string& path, bool want_direct,
                bool* got_direct) {
  if (want_direct) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECT);
    if (fd >= 0) {
      *got_direct = true;
      return fd;
    }
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    *got_direct = false;
#if defined(POSIX_FADV_SEQUENTIAL)
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL);
#endif
  }
  return fd;
}

Result<std::size_t> FileSizeOf(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    return Errno("fstat", path);
  }
  return static_cast<std::size_t>(st.st_size);
}

/// Sequential positional reads into `dst`. Works on both buffered and
/// O_DIRECT fds: the destination is page-aligned, offsets advance in
/// read-size units (page multiples except the final buffered tail),
/// and a request may run past EOF (the kernel trims it).
Status PreadWholeFile(int fd, bool direct_fd, char* dst,
                      std::size_t file_size, std::size_t capacity,
                      const std::string& path) {
  // A direct fd must issue aligned lengths, so it walks the rounded-up
  // capacity and lets EOF shorten the final read.
  const std::size_t wanted = direct_fd ? capacity : file_size;
  std::size_t off = 0;
  std::size_t got = 0;
  while (got < file_size) {
    const std::size_t len = wanted - off;
    const ssize_t n = ::pread(fd, dst + off, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path);
    }
    if (n == 0) break;  // EOF
    off += static_cast<std::size_t>(n);
    got = off;
  }
  if (got < file_size) {
    return Status::IoError(path + " shrank mid-read (" +
                           std::to_string(got) + " of " +
                           std::to_string(file_size) + " bytes)");
  }
  return Status::OK();
}

#if INFERTURBO_HAS_IO_URING

int SysIoUringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

/// A minimal single-threaded io_uring wrapper over the raw syscalls
/// (no liburing dependency). One queue serves one file read; setup
/// cost is microseconds against multi-megabyte shards.
struct UringQueue {
  int ring_fd = -1;
  unsigned sq_entry_count = 0;
  void* sq_ring = nullptr;
  std::size_t sq_ring_bytes = 0;
  void* cq_ring = nullptr;  ///< aliases sq_ring with FEAT_SINGLE_MMAP
  std::size_t cq_ring_bytes = 0;
  io_uring_sqe* sqes = nullptr;
  std::size_t sqes_bytes = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;

  bool Init(unsigned entries) {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    ring_fd = SysIoUringSetup(entries, &params);
    if (ring_fd < 0) return false;
    sq_entry_count = params.sq_entries;

    sq_ring_bytes =
        params.sq_off.array + params.sq_entries * sizeof(unsigned);
    cq_ring_bytes =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap =
        (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap) {
      sq_ring_bytes = cq_ring_bytes =
          sq_ring_bytes > cq_ring_bytes ? sq_ring_bytes : cq_ring_bytes;
    }
    sq_ring = ::mmap(nullptr, sq_ring_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (sq_ring == MAP_FAILED) {
      sq_ring = nullptr;
      return false;
    }
    if (single_mmap) {
      cq_ring = sq_ring;
    } else {
      cq_ring = ::mmap(nullptr, cq_ring_bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, ring_fd,
                       IORING_OFF_CQ_RING);
      if (cq_ring == MAP_FAILED) {
        cq_ring = nullptr;
        return false;
      }
    }
    sqes_bytes = params.sq_entries * sizeof(io_uring_sqe);
    sqes = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, sqes_bytes, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES));
    if (sqes == MAP_FAILED) {
      sqes = nullptr;
      return false;
    }

    char* sq = static_cast<char*>(sq_ring);
    sq_head = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    sq_mask = *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    char* cq = static_cast<char*>(cq_ring);
    cq_head = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    cqes = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    return true;
  }

  void PushRead(int fd, char* addr, unsigned len, std::size_t offset) {
    const unsigned tail = __atomic_load_n(sq_tail, __ATOMIC_RELAXED);
    const unsigned index = tail & sq_mask;
    io_uring_sqe* sqe = &sqes[index];
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->opcode = IORING_OP_READ;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<std::uint64_t>(addr);
    sqe->len = len;
    sqe->off = offset;
    sqe->user_data = offset;
    sq_array[index] = index;
    __atomic_store_n(sq_tail, tail + 1, __ATOMIC_RELEASE);
  }

  /// Pops one completion if available; returns false when the CQ is
  /// empty.
  bool PopCompletion(io_uring_cqe* out) {
    const unsigned head = __atomic_load_n(cq_head, __ATOMIC_ACQUIRE);
    if (head == __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE)) return false;
    *out = cqes[head & cq_mask];
    __atomic_store_n(cq_head, head + 1, __ATOMIC_RELEASE);
    return true;
  }

  ~UringQueue() {
    if (sqes != nullptr) ::munmap(sqes, sqes_bytes);
    if (cq_ring != nullptr && cq_ring != sq_ring) {
      ::munmap(cq_ring, cq_ring_bytes);
    }
    if (sq_ring != nullptr) ::munmap(sq_ring, sq_ring_bytes);
    if (ring_fd >= 0) ::close(ring_fd);
  }
};

/// Fills `dst` from `fd` with pipelined chunk reads: up to queue-depth
/// chunks in flight, short reads resubmitted from where they stopped
/// (mid-file short reads on O_DIRECT stay block-aligned, so resumed
/// offsets stay valid). Any completion error aborts with IoError.
Status UringReadWholeFile(int fd, char* dst, std::size_t file_size,
                          std::size_t capacity, const std::string& path) {
  UringQueue queue;
  if (!queue.Init(/*entries=*/8)) {
    return Status::IoError("io_uring setup failed for " + path + ": " +
                           std::strerror(errno));
  }
  // Per in-flight chunk bookkeeping keyed by submission offset: bytes
  // of real file content still expected within that chunk.
  std::size_t submit_cursor = 0;  // next unsubmitted byte (aligned)
  std::size_t bytes_done = 0;     // file bytes confirmed read
  unsigned in_flight = 0;
  unsigned to_submit = 0;
  while (bytes_done < file_size) {
    while (in_flight < queue.sq_entry_count && submit_cursor < capacity) {
      const std::size_t len =
          kUringChunkBytes < capacity - submit_cursor
              ? kUringChunkBytes
              : capacity - submit_cursor;
      queue.PushRead(fd, dst + submit_cursor, static_cast<unsigned>(len),
                     submit_cursor);
      submit_cursor += len;
      ++in_flight;
      ++to_submit;
    }
    const int rc = SysIoUringEnter(queue.ring_fd, to_submit,
                                   /*min_complete=*/1,
                                   IORING_ENTER_GETEVENTS);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("io_uring_enter failed for " + path + ": " +
                             std::strerror(errno));
    }
    to_submit = 0;
    io_uring_cqe cqe;
    while (queue.PopCompletion(&cqe)) {
      --in_flight;
      if (cqe.res < 0) {
        return Status::IoError("io_uring read failed for " + path + ": " +
                               std::strerror(-cqe.res));
      }
      const std::size_t offset = cqe.user_data;
      const std::size_t got = static_cast<std::size_t>(cqe.res);
      // File content this chunk was responsible for (the tail chunk's
      // aligned slack past EOF legitimately reads short).
      const std::size_t chunk_len =
          kUringChunkBytes < capacity - offset ? kUringChunkBytes
                                               : capacity - offset;
      const std::size_t expected =
          offset + chunk_len <= file_size ? chunk_len
          : offset < file_size            ? file_size - offset
                                          : 0;
      if (got >= expected) {
        bytes_done += expected;
        continue;
      }
      if (got == 0) {
        return Status::IoError(path + " shrank mid-read (io_uring)");
      }
      // Short read: finish the chunk from where it stopped.
      bytes_done += got;
      queue.PushRead(fd, dst + offset + got,
                     static_cast<unsigned>(chunk_len - got), offset + got);
      ++in_flight;
      ++to_submit;
    }
  }
  return Status::OK();
}

#endif  // INFERTURBO_HAS_IO_URING

Result<AlignedShardBuffer> ReadViaPread(const std::string& path,
                                        bool want_direct) {
  bool direct_fd = false;
  const int fd = OpenForRead(path, want_direct, &direct_fd);
  if (fd < 0) return Errno("open", path);
  Result<std::size_t> size = FileSizeOf(fd, path);
  if (!size.ok()) {
    ::close(fd);
    return size.status();
  }
  Result<AlignedShardBuffer> buffer = AlignedShardBuffer::Allocate(*size);
  if (!buffer.ok()) {
    ::close(fd);
    return buffer.status();
  }
  const Status status = PreadWholeFile(fd, direct_fd, buffer->data(), *size,
                                       buffer->capacity(), path);
  ::close(fd);
  if (!status.ok()) return status;
  return buffer;
}

Result<AlignedShardBuffer> ReadViaUring(const std::string& path) {
#if INFERTURBO_HAS_IO_URING
  bool direct_fd = false;
  const int fd = OpenForRead(path, /*want_direct=*/true, &direct_fd);
  if (fd < 0) return Errno("open", path);
  Result<std::size_t> size = FileSizeOf(fd, path);
  if (!size.ok()) {
    ::close(fd);
    return size.status();
  }
  Result<AlignedShardBuffer> buffer = AlignedShardBuffer::Allocate(*size);
  if (!buffer.ok()) {
    ::close(fd);
    return buffer.status();
  }
  const Status status = UringReadWholeFile(fd, buffer->data(), *size,
                                           buffer->capacity(), path);
  ::close(fd);
  if (!status.ok()) return status;
  return buffer;
#else
  return Status::IoError("io_uring unavailable at build time for " + path);
#endif
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
    case ShardReadPath::kDirect:
      return "direct";
    case ShardReadPath::kUring:
      return "uring";
  }
  return "unknown";
}

Result<ShardReadPath> ParseShardReadPath(std::string_view name) {
  for (const ShardReadPath path :
       {ShardReadPath::kAuto, ShardReadPath::kMmap, ShardReadPath::kPread,
        ShardReadPath::kDirect, ShardReadPath::kUring}) {
    if (name == ShardReadPathName(path)) return path;
  }
  return Status::InvalidArgument(
      "unknown read path '" + std::string(name) +
      "' (expected auto|mmap|pread|direct|uring)");
}

ShardReadPath DetectShardReadPath(const std::string& probe_file) {
  // Each tier must move real bytes end to end: a kernel that has the
  // syscalls but a sandbox that blocks them, or a filesystem that
  // rejects O_DIRECT (tmpfs), drops to the next tier.
  if (ReadViaUring(probe_file).ok()) return ShardReadPath::kUring;
  {
    bool direct_fd = false;
    const int fd = OpenForRead(probe_file, /*want_direct=*/true, &direct_fd);
    if (fd >= 0) {
      ::close(fd);
      if (direct_fd && ReadViaPread(probe_file, /*want_direct=*/true).ok()) {
        return ShardReadPath::kDirect;
      }
    }
  }
  if (ReadViaPread(probe_file, /*want_direct=*/false).ok()) {
    return ShardReadPath::kPread;
  }
  return ShardReadPath::kMmap;
}

void AlignedShardBuffer::Free::operator()(char* p) const {
  detail::FreeFloatBuffer(p);
}

Result<AlignedShardBuffer> AlignedShardBuffer::Allocate(
    std::size_t file_size) {
  AlignedShardBuffer out;
  out.size_ = file_size;
  out.capacity_ = RoundUpAligned(file_size > 0 ? file_size : 1);
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  char* ptr = nullptr;
  if (out.capacity_ >= kHugePage) {
    // The tensor allocator returns 2 MiB-aligned, MADV_HUGEPAGE-advised
    // storage for large buffers — shards are exactly the multi-MB
    // streaming case it exists for.
    ptr = static_cast<char*>(detail::AllocFloatBuffer(out.capacity_));
  } else {
    ptr = static_cast<char*>(
        std::aligned_alloc(kDirectAlignment, out.capacity_));
  }
  if (ptr == nullptr) {
    return Status::IoError("cannot allocate " +
                           std::to_string(out.capacity_) +
                           " aligned bytes for a shard image");
  }
  out.storage_.reset(ptr);
  return out;
}

void ObserveShardRead(ShardReadPath path, double seconds,
                      std::int64_t bytes) {
  if (!MetricsEnabled()) return;
  struct Instruments {
    Histogram* seconds;
    Counter* bytes;
    Counter* reads;
  };
  // One slot per tier that can serve a read; kAuto resolves to one of
  // them at Open() and never reaches here.
  constexpr ShardReadPath kTiers[] = {ShardReadPath::kMmap,
                                      ShardReadPath::kPread,
                                      ShardReadPath::kDirect,
                                      ShardReadPath::kUring};
  static const std::array<Instruments, std::size(kTiers)>& instruments =
      *new auto([&] {
        std::array<Instruments, std::size(kTiers)> out{};
        for (std::size_t i = 0; i < out.size(); ++i) {
          const std::string base =
              "storage.read." + std::string(ShardReadPathName(kTiers[i]));
          out[i] = {
              GlobalMetrics().GetHistogram(base + ".seconds"),
              GlobalMetrics().GetCounter(base + ".bytes"),
              GlobalMetrics().GetCounter(base + ".reads"),
          };
        }
        return out;
      }());
  const auto slot = std::find(std::begin(kTiers), std::end(kTiers), path);
  // A read attributed to no real tier is a caller bug: trap it in debug
  // builds, and never file it under some other tier's instruments.
  assert(slot != std::end(kTiers) && "shard read observed on no real tier");
  if (slot == std::end(kTiers)) return;
  const Instruments& tier =
      instruments[static_cast<std::size_t>(slot - std::begin(kTiers))];
  tier.seconds->Observe(seconds);
  tier.bytes->Add(bytes);
  tier.reads->Increment();
}

Result<AlignedShardBuffer> ReadFileAligned(const std::string& path,
                                           ShardReadPath path_kind) {
  // Time only when metrics are on, so the zero-perturbation contract
  // holds: the disabled cost is one relaxed load + branch per read.
  const bool timed = MetricsEnabled();
  WallTimer timer;
  Result<AlignedShardBuffer> result = [&]() -> Result<AlignedShardBuffer> {
    switch (path_kind) {
      case ShardReadPath::kPread:
        return ReadViaPread(path, /*want_direct=*/false);
      case ShardReadPath::kDirect:
        return ReadViaPread(path, /*want_direct=*/true);
      case ShardReadPath::kUring:
        return ReadViaUring(path);
      case ShardReadPath::kAuto:
      case ShardReadPath::kMmap:
        break;
    }
    return Status::InvalidArgument(
        "ReadFileAligned requires a buffer-filling read path, got '" +
        std::string(ShardReadPathName(path_kind)) + "'");
  }();
  if (timed && result.ok()) {
    ObserveShardRead(path_kind, timer.ElapsedSeconds(),
                     static_cast<std::int64_t>(result->size()));
  }
  return result;
}

}  // namespace inferturbo

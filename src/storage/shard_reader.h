#ifndef INFERTURBO_STORAGE_SHARD_READER_H_
#define INFERTURBO_STORAGE_SHARD_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace inferturbo {

/// How the shard store turns a shard file into resident bytes. The
/// ladder is runtime-detected per store (like the ISA dispatch in the
/// kernel layer): io_uring where the kernel and sandbox allow it,
/// O_DIRECT positional reads where the filesystem supports them,
/// posix_fadvise(SEQUENTIAL)-tuned pread everywhere else, and the
/// original mmap path as the always-works fallback. The non-mmap tiers
/// read into 4 KiB-aligned buffers from the huge-page allocator, so a
/// streaming sweep no longer churns the page cache it is about to
/// evict (O_DIRECT/io_uring bypass it outright) and large shards get
/// 2 MiB-backed TLB entries.
///
/// Numeric values are stable: they are recorded as read-path
/// provenance in StorageMetrics and BENCH_storage.json.
enum class ShardReadPath : int {
  kAuto = 0,    ///< detect the best supported tier at Open()
  kMmap = 1,    ///< PROT_READ/MAP_PRIVATE mapping (original path)
  kPread = 2,   ///< buffered pread + POSIX_FADV_SEQUENTIAL
  kDirect = 3,  ///< O_DIRECT pread (page-cache bypass)
  kUring = 4,   ///< io_uring chunked reads over an O_DIRECT fd
};

/// Stable lowercase name ("mmap", "pread", "direct", "uring", "auto").
std::string_view ShardReadPathName(ShardReadPath path);

/// Parses a --read_path flag value; InvalidArgument on unknown names.
Result<ShardReadPath> ParseShardReadPath(std::string_view name);

/// Probes the ladder top-down against `probe_file` (any existing file
/// on the same filesystem as the shards, e.g. the pack's meta file)
/// and returns the best tier that works end to end — a tier must
/// deliver real bytes in the probe, not just open, so a seccomp filter
/// that admits io_uring_setup but blocks io_uring_enter still
/// downgrades cleanly. Never returns kAuto; returns kMmap only when
/// even plain pread fails (which in practice means the probe file is
/// unreadable and the store will surface that as an IoError anyway).
ShardReadPath DetectShardReadPath(const std::string& probe_file);

/// A whole file image in an aligned allocation. Buffers are 4 KiB
/// aligned (2 MiB aligned and MADV_HUGEPAGE above the huge-page
/// threshold, via the tensor allocator) so every tier of the ladder —
/// including O_DIRECT, which rejects unaligned destinations — can fill
/// them directly.
class AlignedShardBuffer {
 public:
  AlignedShardBuffer() = default;

  /// Allocates capacity for `file_size` bytes rounded up to 4 KiB.
  /// data()/size() still describe exactly the file bytes.
  static Result<AlignedShardBuffer> Allocate(std::size_t file_size);

  const char* data() const { return storage_.get(); }
  char* data() { return storage_.get(); }
  std::size_t size() const { return size_; }
  /// Allocation size (a 4 KiB multiple >= size()).
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return storage_ == nullptr; }

 private:
  struct Free {
    void operator()(char* p) const;
  };
  std::unique_ptr<char[], Free> storage_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Reads the whole of `path` through the given tier (kMmap/kAuto are
/// invalid here — mmap is not a buffer-filling tier). Short files,
/// vanishing files, and I/O errors surface as IoError. The caller owns
/// the returned buffer; nothing of the file stays in kernel page cache
/// on the kDirect/kUring tiers.
Result<AlignedShardBuffer> ReadFileAligned(const std::string& path,
                                           ShardReadPath path_kind);

/// Records one completed shard read into the per-path latency
/// instruments: histogram "storage.read.<path>.seconds" plus counters
/// ".bytes" and ".reads". ReadFileAligned calls this for the
/// buffer-filling tiers; the shard store calls it for the mmap
/// fallback, so a `read_path_fallbacks` regression shows up as a
/// latency distribution shift per tier in the run report's storage
/// section. Only the four tiers that serve reads have instruments;
/// `path` must be one of them (kAuto is resolved before any read).
/// Subject to MetricsEnabled(); no-op otherwise.
void ObserveShardRead(ShardReadPath path, double seconds,
                      std::int64_t bytes);

}  // namespace inferturbo

#endif  // INFERTURBO_STORAGE_SHARD_READER_H_

#ifndef INFERTURBO_STORAGE_SHARD_READER_H_
#define INFERTURBO_STORAGE_SHARD_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace inferturbo {

/// How the shard store turns a shard file into resident bytes: a
/// posix_fadvise(SEQUENTIAL)-tuned buffered pread into a buffer from
/// the huge-page allocator (large shards get 2 MiB-backed TLB entries),
/// or the original mmap path as the always-works fallback.
///
/// Numeric values are stable: they are recorded as read-path
/// provenance in StorageMetrics and BENCH_storage.json. Values 3 and 4
/// (the retired direct and uring tiers) are never reused.
enum class ShardReadPath : int {
  kAuto = 0,   ///< resolve at Open() (DetectShardReadPath)
  kMmap = 1,   ///< PROT_READ/MAP_PRIVATE mapping (original path)
  kPread = 2,  ///< buffered pread + POSIX_FADV_SEQUENTIAL
};

/// Stable lowercase name ("auto", "mmap", "pread").
std::string_view ShardReadPathName(ShardReadPath path);

/// Reads `probe_file` (any existing file on the same filesystem as the
/// shards, e.g. the pack's meta file) with pread and returns kPread if
/// that delivers its bytes, else kMmap. Never returns kAuto; kMmap in
/// practice means the probe file is unreadable and the store will
/// surface that as an IoError anyway.
ShardReadPath DetectShardReadPath(const std::string& probe_file);

/// A whole file image on the tensor allocator: 2 MiB aligned and
/// MADV_HUGEPAGE at or above the huge-page threshold, plain malloc
/// below it.
class AlignedShardBuffer {
 public:
  AlignedShardBuffer() = default;
  /// Uninitialized storage for exactly `size` bytes.
  explicit AlignedShardBuffer(std::size_t size);

  const char* data() const { return storage_.get(); }
  char* data() { return storage_.get(); }
  std::size_t size() const { return size_; }

 private:
  struct Free {
    void operator()(char* p) const;
  };
  std::unique_ptr<char[], Free> storage_;
  std::size_t size_ = 0;
};

/// Reads the whole of `path` with buffered pread and observes it under
/// the kPread instruments. Short files, vanishing files, and I/O
/// errors surface as IoError.
Result<AlignedShardBuffer> ReadFileAligned(const std::string& path);

/// Records one completed shard read into the per-path latency
/// instruments: histogram "storage.read.<path>.seconds" plus counters
/// ".bytes" and ".reads". ReadFileAligned calls this for pread; the
/// shard store calls it for mmap loads and for the heap reads of an
/// injector-armed store (filed under pread), so a `read_path_fallbacks`
/// regression shows up as a second tier in the run report's storage
/// section. `path` must be kMmap or kPread (kAuto is resolved before
/// any read). Subject to MetricsEnabled(); no-op otherwise.
void ObserveShardRead(ShardReadPath path, double seconds,
                      std::int64_t bytes);

}  // namespace inferturbo

#endif  // INFERTURBO_STORAGE_SHARD_READER_H_

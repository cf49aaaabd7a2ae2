#ifndef INFERTURBO_STORAGE_SHARD_STORE_H_
#define INFERTURBO_STORAGE_SHARD_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/common/io_fault.h"
#include "src/common/result.h"
#include "src/pregel/worker_metrics.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_reader.h"

namespace inferturbo {

/// One validated, resident shard: typed views over its pages. The
/// backing memory is an mmap'd read-only file, a buffer filled by
/// pread, or (when a fault injector is active) a heap copy; either way
/// it is immutable and outlives every span handed out, for as long as
/// the MappedShard does.
class MappedShard {
 public:
  ~MappedShard();
  MappedShard(const MappedShard&) = delete;
  MappedShard& operator=(const MappedShard&) = delete;

  const ShardHeader& header() const { return header_; }

  /// Global node id per local row, ascending.
  std::span<const std::int64_t> node_ids() const {
    return I64Page(0);
  }
  /// Local CSR offsets (num_nodes + 1) into the edge pages.
  std::span<const std::int64_t> out_offsets() const { return I64Page(1); }
  /// Global destination node id per out-edge.
  std::span<const std::int64_t> out_dst() const { return I64Page(2); }
  /// Global edge id per out-edge — the original Graph numbering.
  std::span<const std::int64_t> out_edge_ids() const { return I64Page(3); }
  /// (num_nodes × feature_dim) row-major feature rows.
  const float* node_features() const {
    return reinterpret_cast<const float*>(PagePtr(4));
  }
  /// (num_edges × edge_feature_dim), nullptr when the pack has none.
  const float* edge_features() const {
    return header_.edge_feature_dim == 0
               ? nullptr
               : reinterpret_cast<const float*>(PagePtr(5));
  }
  /// Single-label class ids, empty when the pack is unlabeled.
  std::span<const std::int64_t> labels() const {
    return header_.has_labels ? I64Page(6)
                              : std::span<const std::int64_t>();
  }

  /// Bytes this shard holds resident (the whole file image) — the unit
  /// the store's memory budget is accounted in.
  std::size_t mapped_bytes() const { return size_; }

 private:
  friend class ShardStore;
  friend struct ShardStoreInternal;  ///< loader/validator in the .cc
  MappedShard() = default;

  const char* PagePtr(int index) const {
    return base_ + entries_[static_cast<std::size_t>(index)].offset;
  }
  std::span<const std::int64_t> I64Page(int index) const {
    const PageEntry& e = entries_[static_cast<std::size_t>(index)];
    return {reinterpret_cast<const std::int64_t*>(base_ + e.offset),
            static_cast<std::size_t>(e.bytes / sizeof(std::int64_t))};
  }

  ShardHeader header_;
  std::array<PageEntry, kNumPageKinds> entries_{};
  const char* base_ = nullptr;
  std::size_t size_ = 0;
  void* mmap_base_ = nullptr;   ///< non-null when backed by mmap
  std::string heap_;            ///< backing bytes on the injector path
  AlignedShardBuffer buffer_;   ///< backing bytes on the pread path
};

/// A lease pins one shard resident. The shard stays mapped — and its
/// bytes stay charged against the budget — until the last lease drops,
/// even if the store evicts or is destroyed first.
using ShardLease = std::shared_ptr<const MappedShard>;

struct ShardStoreOptions {
  std::string directory;
  /// Cap on total resident shard bytes; 0 = unlimited. Before mapping a
  /// new shard the store evicts least-recently-used cached shards until
  /// the incoming one fits, so peak_bytes_mapped never exceeds the
  /// budget as long as callers hold at most the leases they are using.
  std::uint64_t memory_budget_bytes = 0;
  /// Optional fault injection: when set, shards are read through
  /// ReadFileToString (heap fallback) so every IoFaultKind applies.
  IoFaultInjector* fault_injector = nullptr;
  IoRetryPolicy retry;
  /// How shard bytes get resident. kAuto resolves at Open() to kPread
  /// if a pread of the pack's meta file works, else kMmap; any other
  /// value forces that tier. A pread that fails at load time (say, a
  /// shard file that cannot be read while the meta file could) falls
  /// back to mmap for that shard, counted in read_path_fallbacks.
  /// Ignored while a fault injector is set: such a store always reads
  /// with a buffered ReadFileToString so every injected fault applies,
  /// and reports kPread.
  ShardReadPath read_path = ShardReadPath::kAuto;
};

/// Maps shard files on demand under a memory budget (paper §IV-C2: the
/// MapReduce backend streams graph data from external storage instead
/// of holding it resident).
///
/// Map(p) returns a lease on partition p, loading + validating the file
/// on a miss and evicting LRU cached shards first to stay under budget.
/// Concurrent misses on one partition never block on each other's load:
/// each loads, the first to publish wins, and the others drop their
/// never-charged duplicate and return the winner's lease. ShardPipeline
/// (shard_pipeline.h) is the read-ahead; it calls Map() like any caller.
///
/// Thread-safe; cheap to copy (shared handle to one cache). Corruption
/// (bad magic, truncation, CRC mismatch, inconsistent counts) surfaces
/// as a clean IoError from Map(), never a crash.
class ShardStore {
 public:
  /// Validates the directory's meta file and returns a store over it.
  static Result<ShardStore> Open(ShardStoreOptions options);

  const ShardMeta& meta() const;
  const ShardStoreOptions& options() const;

  /// Returns a lease on partition p, loading it if not resident.
  Result<ShardLease> Map(std::int64_t partition);

  /// The read tier Open() resolved (never kAuto). kPread whenever a
  /// fault injector forces the buffered heap path.
  ShardReadPath read_path() const;

  /// Point-in-time snapshot of the store's counters.
  StorageMetrics metrics() const;

  /// Opaque shared state (cache + counters); public so the loader
  /// helpers in the .cc can name it.
  struct State;

 private:
  explicit ShardStore(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_STORAGE_SHARD_STORE_H_

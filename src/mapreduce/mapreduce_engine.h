#ifndef INFERTURBO_MAPREDUCE_MAPREDUCE_ENGINE_H_
#define INFERTURBO_MAPREDUCE_MAPREDUCE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/io_fault.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/graph/graph.h"
#include "src/pregel/worker_metrics.h"
#include "src/runtime/task_supervisor.h"

namespace inferturbo {

/// One record of the simulated MapReduce dataflow, read in place from
/// its block: a tagged record wide enough for everything the
/// InferTurbo-on-MR pipeline ships between rounds — self state, in-edge
/// messages, out-edge adjacency, partial aggregates (paper §IV-C2). The
/// engine treats it as opaque bytes.
struct MrRecord {
  /// Driver-defined discriminator (e.g. kSelfState / kInMessage /
  /// kOutEdges).
  std::int32_t tag = 0;
  /// Auxiliary id (message source, mirror origin, ...).
  NodeId src = -1;
  std::span<const float> floats;
  std::span<const std::int64_t> ids;

  /// Serialized size on the simulated shuffle path. Unlike the Pregel
  /// backend, *all* shuffle traffic is charged (MapReduce spills
  /// through external storage even for local destinations).
  std::uint64_t WireBytes() const {
    return kMessageHeaderBytes + sizeof(tag) + sizeof(src) +
           floats.size() * sizeof(float) + ids.size() * sizeof(std::int64_t);
  }
};

/// The payload of a freshly appended record, for the caller to fill in
/// place. Valid until the block it points into is destroyed.
struct MrRecordSlot {
  std::span<float> floats;
  std::span<std::int64_t> ids;
};

/// A columnar block of records: keys, tags and srcs as parallel arrays,
/// each record's floats and ids as a range of one float arena and one
/// id arena. Capacity is fixed at construction — a block never grows
/// (and so never copies its arenas); writers open the next block
/// instead.
class MrBlock {
 public:
  MrBlock() = default;
  /// Room for `records` records carrying `floats` floats and `ids` ids
  /// in total.
  MrBlock(std::size_t records, std::size_t floats, std::size_t ids);

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  /// Whether one more record with this payload fits.
  bool Fits(std::size_t num_floats, std::size_t num_ids) const {
    return keys_.size() < record_capacity_ &&
           num_floats <= float_capacity_ - float_offsets_.back() &&
           num_ids <= id_capacity_ - id_offsets_.back();
  }

  std::int64_t key(std::size_t i) const { return keys_[i]; }
  MrRecord record(std::size_t i) const {
    return MrRecord{
        tags_[i], srcs_[i],
        std::span<const float>(floats_.get() + float_offsets_[i],
                               float_offsets_[i + 1] - float_offsets_[i]),
        std::span<const std::int64_t>(ids_.get() + id_offsets_[i],
                                      id_offsets_[i + 1] - id_offsets_[i])};
  }

  /// Appends a record whose payload the caller writes through the
  /// returned slot. Requires Fits(num_floats, num_ids).
  MrRecordSlot Append(std::int64_t key, std::int32_t tag, NodeId src,
                      std::size_t num_floats, std::size_t num_ids);

 private:
  std::size_t record_capacity_ = 0;
  std::size_t float_capacity_ = 0;
  std::size_t id_capacity_ = 0;
  std::vector<std::int64_t> keys_;
  std::vector<std::int32_t> tags_;
  std::vector<NodeId> srcs_;
  /// size() + 1 offsets into the arenas; record i spans [off[i], off[i+1]).
  std::vector<std::uint64_t> float_offsets_{0};
  std::vector<std::uint64_t> id_offsets_{0};
  std::unique_ptr<float[]> floats_;
  std::unique_ptr<std::int64_t[]> ids_;
};

/// The elementwise fold EmitFolded applies: acc[j] = fold(acc[j],
/// row[j]) for j < n (the row-fold kernels' signature).
using MrFoldFn = void (*)(float* acc, const float* row, std::int64_t n);

/// Collects emissions from map and reduce functions into a run of
/// blocks. When the current block is full the next record opens a new
/// one, twice as large up to a fixed cap, so arenas grow in chunks and
/// nothing is ever re-copied.
class MrEmitter {
 public:
  /// Appends one record, copying its payload into the arena.
  void Emit(std::int64_t key, std::int32_t tag, NodeId src,
            std::span<const float> floats = {},
            std::span<const std::int64_t> ids = {});
  /// Appends one record whose payload the caller writes in place.
  MrRecordSlot Append(std::int64_t key, std::int32_t tag, NodeId src,
                      std::size_t num_floats, std::size_t num_ids);
  /// Folds `row` into this emitter's one partial record for `key` — the
  /// producer-side partial gather (paper §IV-D) done as rows are
  /// emitted, so no per-row record is ever written. The first row for a
  /// key opens the record (src -1, floats = the row, ids = {1}); each
  /// later row folds into it with `fold` and adds 1 to its count. Every
  /// row for one key must have the same width.
  void EmitFolded(std::int64_t key, std::int32_t tag,
                  std::span<const float> row, MrFoldFn fold);

  /// Records emitted so far (a folded record counts once).
  std::size_t size() const { return records_; }
  /// Every record: the plain blocks, then the folded ones, so each key
  /// reads its plain records in emission order and then its partial.
  /// Resets the emitter, fold state included.
  std::vector<MrBlock> TakeBlocks();

 private:
  /// Appends to the run `blocks`, opening a block when its last is full.
  static MrRecordSlot AppendTo(std::vector<MrBlock>* blocks,
                               std::int64_t key, std::int32_t tag,
                               NodeId src, std::size_t num_floats,
                               std::size_t num_ids);
  /// 1 + the index in partials_ of key's folded record; 0 = none yet.
  std::uint32_t& PartialIndex(std::int64_t key);

  std::vector<MrBlock> blocks_;
  std::vector<MrBlock> folded_blocks_;
  /// Payload of each folded record, in the order they were opened.
  std::vector<MrRecordSlot> partials_;
  /// PartialIndex for keys in [0, dense_index_.size()) ...
  std::vector<std::uint32_t> dense_index_;
  /// ... and for every other key.
  std::unordered_map<std::int64_t, std::uint32_t> sparse_index_;
  std::size_t records_ = 0;
  /// Emit/Append/EmitFolded calls, which bound the dense table's size.
  std::size_t emitted_ = 0;
};

/// Where a record lives: a block and a row in it.
struct MrRecordRef {
  const MrBlock* block = nullptr;
  std::size_t index = 0;

  std::int64_t key() const { return block->key(index); }
  MrRecord get() const { return block->record(index); }
};

/// The values of one key, in (producer, emission) order.
class MrValues {
 public:
  class Iterator {
   public:
    explicit Iterator(const MrRecordRef* ref) : ref_(ref) {}
    MrRecord operator*() const { return ref_->get(); }
    Iterator& operator++() {
      ++ref_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return ref_ != other.ref_; }

   private:
    const MrRecordRef* ref_;
  };

  explicit MrValues(std::span<const MrRecordRef> refs) : refs_(refs) {}
  Iterator begin() const { return Iterator(refs_.data()); }
  Iterator end() const { return Iterator(refs_.data() + refs_.size()); }

 private:
  std::span<const MrRecordRef> refs_;
};

/// Consecutive key groups of one reduce task, handed to the reduce
/// function together: keys ascend, and group g's values are
/// refs[offsets[g], offsets[g + 1]).
class MrKeyGroups {
 public:
  MrKeyGroups(std::span<const MrRecordRef> refs,
              std::span<const std::size_t> offsets)
      : refs_(refs), offsets_(offsets) {}

  std::size_t size() const { return offsets_.size() - 1; }
  std::int64_t key(std::size_t g) const { return refs_[offsets_[g]].key(); }
  MrValues values(std::size_t g) const {
    return MrValues(refs_.subspan(offsets_[g], offsets_[g + 1] - offsets_[g]));
  }

 private:
  std::span<const MrRecordRef> refs_;
  std::span<const std::size_t> offsets_;
};

/// A simulated elastic MapReduce job: I logical instances each act as
/// mapper and reducer; rounds alternate shuffle (sort by key, values
/// ordered by producing instance) and reduce. Producer-side partial
/// gather (paper §IV-D) happens as map and reduce functions emit, via
/// MrEmitter::EmitFolded.
class MapReduceJob {
 public:
  /// Key groups per reduce call: enough rows to amortize one batched
  /// kernel call over many keys, few enough to keep a call's scratch
  /// small.
  static constexpr std::size_t kReduceBlockKeys = 256;

  struct Options {
    std::int64_t num_instances = 8;
    ClusterCostModel cost_model;
    ThreadPool* pool = nullptr;
    /// When non-empty, shuffle blocks are actually serialized to files
    /// under this directory between the producer and reducer halves of
    /// each round — the external-storage dataflow the paper's MR
    /// backend relies on for its low resident memory. Must exist and be
    /// writable. Results are bit-identical to the in-memory path.
    std::string spill_directory;
    /// Optional fault injection on the spill path (and checkpoint
    /// serialization); consulted once per physical attempt.
    IoFaultInjector* fault_injector = nullptr;
    /// Bounded retry + backoff for transient spill I/O faults. Retried
    /// reads/writes are counted in JobMetrics::spill_read_retries /
    /// spill_write_retries; a persistent fault surfaces as an IoError
    /// Status from RunReduce, never a crash or silent corruption.
    IoRetryPolicy retry;
    /// Every map/shuffle/reduce task runs under this supervisor:
    /// per-attempt deadlines, bounded retry with backoff, speculative
    /// backups, and executor quarantine. Tasks compute into
    /// attempt-local buffers (a task's inputs stay immutable until it
    /// settles, then are freed) and spill blocks are written under
    /// attempt-scoped names, promoted to their canonical path only for
    /// the winning attempt — any in-budget fault schedule yields
    /// bit-identical results. Not owned; one supervisor may span the
    /// whole job so quarantine decisions persist across rounds. Null =
    /// the job builds a default one on `pool`.
    TaskSupervisor* supervisor = nullptr;
  };

  /// Called once per instance; the driver reads its own input split.
  using MapFn = std::function<void(std::int64_t instance, MrEmitter*)>;
  /// Called per block of at most kReduceBlockKeys consecutive key
  /// groups; keys ascend across calls of one task.
  using ReduceFn = std::function<void(const MrKeyGroups& groups, MrEmitter*)>;

  explicit MapReduceJob(Options options);

  /// Stage 1: populate the dataflow from input splits. Surfaces a
  /// retry-exhausted map task's error instead of crashing.
  Status RunMap(const MapFn& map_fn);

  /// One shuffle+reduce round over the current dataflow; emitted pairs
  /// become the next round's dataflow. Shuffle inputs are durable, so
  /// a failed reduce task is simply re-executed over the same inputs —
  /// MapReduce's native fault-tolerance model. Returns
  /// non-OK — never crashes — when a task exhausts its retries (the
  /// task's error code; IoError when a spill block cannot be written or
  /// read back intact). On error the round's spill blocks are removed
  /// and the dataflow is left unspecified; the job must be abandoned or
  /// resumed from a durable checkpoint.
  Status RunReduce(const ReduceFn& reduce_fn);

  /// Drains the final dataflow: every instance's blocks, in instance
  /// order.
  std::vector<MrBlock> TakeOutputs();

  /// Bytes written to spill files so far (0 when spilling is off).
  std::uint64_t spill_bytes_written() const { return spill_bytes_written_; }

  const JobMetrics& metrics() const { return metrics_; }
  /// Drivers that move data outside the shuffle (e.g. the broadcast
  /// side channel, which models a Spark broadcast variable) account for
  /// it by adjusting the current stage's counters here.
  JobMetrics* mutable_metrics() { return &metrics_; }
  std::int64_t num_instances() const { return options_.num_instances; }

  /// The instance owning a key (stable across stages).
  static std::int64_t InstanceForKey(std::int64_t key,
                                     std::int64_t num_instances);

  /// Bit-exact serialization of the resident dataflow (the key/value
  /// pairs between rounds) for durable round checkpoints.
  std::string SerializeDataflow() const;
  /// Inverse of SerializeDataflow; every length is bounds-checked so
  /// truncated or corrupted bytes surface as IoError, never UB.
  Status RestoreDataflow(std::string_view bytes);

 private:
  /// Canonical spill block path for attempt < 0; attempt-scoped
  /// ("..._aN.blk") otherwise. Producers write under their attempt's
  /// name and the winner's blocks are renamed to the canonical path at
  /// commit, so readers never observe a loser's (or a half-abandoned
  /// attempt's) output.
  std::string SpillPath(std::int64_t stage, std::int64_t producer,
                        std::int64_t reducer, int attempt = -1) const;
  /// Commit protocol for spilling: promote the winning attempt's
  /// blocks to canonical names, delete every other attempt's.
  Status PromoteSpillBlocks(std::int64_t stage,
                            const std::vector<int>& winning_attempt);
  /// Removes every block of `stage`, canonical and attempt-scoped.
  void RemoveSpillBlocks(std::int64_t stage) const;

  Options options_;
  /// Owns options_.supervisor when the caller passed none.
  std::unique_ptr<TaskSupervisor> default_supervisor_;
  /// dataflow_[i] = the record blocks resident on instance i.
  std::vector<std::vector<MrBlock>> dataflow_;
  JobMetrics metrics_;
  std::uint64_t spill_bytes_written_ = 0;
};

}  // namespace inferturbo

#endif  // INFERTURBO_MAPREDUCE_MAPREDUCE_ENGINE_H_

#include "src/mapreduce/mapreduce_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "src/common/atomic_file.h"
#include "src/common/binary_io.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {
namespace {

std::int64_t InstanceOfKey(std::int64_t key, std::int64_t num_instances) {
  const std::uint64_t h =
      static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::int64_t>(h %
                                   static_cast<std::uint64_t>(num_instances));
}

}  // namespace

namespace {

constexpr std::uint32_t kSpillMagic = 0x49545331;  // "ITS1"

// Emitter block sizing: an emitter's first block is small (a shuffle
// keeps one emitter per producer/reducer pair, and many hold only a few
// records) and each next block doubles, up to a cap that bounds the
// unused tail of a run of blocks.
constexpr std::size_t kMaxBlockGrowthShift = 8;
constexpr std::size_t kFirstBlockRecords = 16;
constexpr std::size_t kMaxBlockRecords = 2048;
constexpr std::size_t kFirstBlockFloats = 256;
constexpr std::size_t kMaxBlockFloats = std::size_t{1} << 16;
constexpr std::size_t kFirstBlockIds = 64;
constexpr std::size_t kMaxBlockIds = std::size_t{1} << 14;

/// Binary serialization of a record sequence. Format: record count,
/// then per record key, tag, src, #floats, floats..., #ids, ids... —
/// little-endian, no alignment padding (read back the same way it was
/// written).
void EncodeRecords(std::span<const MrBlock> blocks, BinaryWriter* out) {
  std::uint64_t count = 0;
  for (const MrBlock& block : blocks) count += block.size();
  out->PutU64(count);
  for (const MrBlock& block : blocks) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      const MrRecord record = block.record(i);
      out->PutI64(block.key(i));
      out->PutI32(record.tag);
      out->PutI64(record.src);
      out->PutFloats(record.floats);
      out->PutI64s(record.ids);
    }
  }
}

/// Inverse of EncodeRecords, appending into `out`. Every length prefix
/// is bounds-checked before it sizes an arena slot, so a truncated or
/// bit-flipped buffer becomes an IoError, never UB or an absurd
/// allocation.
Status DecodeRecords(BinaryReader* in, MrEmitter* out) {
  std::uint64_t count = 0;
  INFERTURBO_RETURN_NOT_OK(in->GetU64(&count));
  // A record is at least key + tag + src + two empty length prefixes.
  constexpr std::uint64_t kMinRecordBytes =
      sizeof(std::int64_t) * 2 + sizeof(std::int32_t) +
      sizeof(std::uint64_t) * 2;
  if (count > in->remaining() / kMinRecordBytes + 1) {
    return Status::IoError("corrupt record count " + std::to_string(count) +
                           " exceeds remaining " +
                           std::to_string(in->remaining()) + " bytes");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t key = 0;
    std::int32_t tag = 0;
    NodeId src = 0;
    INFERTURBO_RETURN_NOT_OK(in->GetI64(&key));
    INFERTURBO_RETURN_NOT_OK(in->GetI32(&tag));
    INFERTURBO_RETURN_NOT_OK(in->GetI64(&src));
    // Read both payload lengths ahead so the record's arena slot is
    // sized once; the payloads are then copied straight into it.
    BinaryReader ahead = *in;
    std::uint64_t num_floats = 0;
    std::uint64_t num_ids = 0;
    INFERTURBO_RETURN_NOT_OK(ahead.GetLength(&num_floats, sizeof(float)));
    INFERTURBO_RETURN_NOT_OK(ahead.Skip(num_floats * sizeof(float)));
    INFERTURBO_RETURN_NOT_OK(ahead.GetLength(&num_ids, sizeof(std::int64_t)));
    const MrRecordSlot slot = out->Append(key, tag, src, num_floats, num_ids);
    INFERTURBO_RETURN_NOT_OK(in->Skip(sizeof(std::uint64_t)));
    INFERTURBO_RETURN_NOT_OK(
        in->GetBytes(slot.floats.data(), num_floats * sizeof(float)));
    INFERTURBO_RETURN_NOT_OK(in->Skip(sizeof(std::uint64_t)));
    INFERTURBO_RETURN_NOT_OK(
        in->GetBytes(slot.ids.data(), num_ids * sizeof(std::int64_t)));
  }
  return Status::OK();
}

/// One spill block on disk: magic, records, trailing CRC32 over
/// everything before it — the end-to-end integrity check that turns
/// torn writes, short reads, and bit flips into detectable errors.
std::string EncodeBlock(std::span<const MrBlock> blocks) {
  BinaryWriter out;
  out.PutU32(kSpillMagic);
  EncodeRecords(blocks, &out);
  const std::uint32_t crc = Crc32(out.buffer());
  out.PutU32(crc);
  return out.Take();
}

Status DecodeBlock(const std::string& file, const std::string& path,
                   MrEmitter* out) {
  if (file.size() < sizeof(std::uint32_t) * 2) {
    return Status::IoError("spill block too short (" +
                           std::to_string(file.size()) + " bytes): " + path);
  }
  const std::string_view body(file.data(),
                              file.size() - sizeof(std::uint32_t));
  std::uint32_t stored = 0;
  std::memcpy(&stored, file.data() + body.size(), sizeof(stored));
  const std::uint32_t actual = Crc32(body);
  if (stored != actual) {
    return Status::IoError("spill block checksum mismatch for " + path +
                           " (stored " + std::to_string(stored) +
                           ", computed " + std::to_string(actual) + ")");
  }
  BinaryReader in(body);
  std::uint32_t magic = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetU32(&magic));
  if (magic != kSpillMagic) {
    return Status::IoError("bad spill block magic in " + path);
  }
  INFERTURBO_RETURN_NOT_OK(DecodeRecords(&in, out));
  if (!in.AtEnd()) {
    return Status::IoError("trailing bytes after spill records in " + path);
  }
  return Status::OK();
}

/// Appends a ref to every record of `blocks`, in order.
void AppendRefs(const std::vector<MrBlock>& blocks,
                std::vector<MrRecordRef>* refs) {
  for (const MrBlock& block : blocks) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      refs->push_back(MrRecordRef{&block, i});
    }
  }
}

/// The widest key range that still counts as dense against `n`
/// records, so a table indexed by key may span it: node ids in
/// practice do. Such tables scale with the records, never with a key's
/// value.
std::uint64_t DenseKeyRange(std::size_t n) {
  return 4 * static_cast<std::uint64_t>(n) + 1024;
}

/// Stable sort of `refs` by key, so values of one key keep their
/// relative order. A dense key range is counting-sorted; sparse keys
/// fall back to a comparison sort.
void StableSortByKey(std::vector<MrRecordRef>* refs) {
  const std::size_t n = refs->size();
  if (n < 2) return;
  std::vector<std::int64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = (*refs)[i].key();
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  const std::uint64_t min_key = static_cast<std::uint64_t>(*lo);
  const std::uint64_t range = static_cast<std::uint64_t>(*hi) - min_key;
  std::vector<MrRecordRef> sorted(n);
  if (range <= DenseKeyRange(n)) {
    std::vector<std::size_t> next(static_cast<std::size_t>(range) + 2, 0);
    for (const std::int64_t key : keys) {
      ++next[static_cast<std::uint64_t>(key) - min_key + 1];
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (std::size_t i = 0; i < n; ++i) {
      sorted[next[static_cast<std::uint64_t>(keys[i]) - min_key]++] =
          (*refs)[i];
    }
  } else {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&keys](std::size_t a, std::size_t b) {
                       return keys[a] < keys[b];
                     });
    for (std::size_t i = 0; i < n; ++i) sorted[i] = (*refs)[order[i]];
  }
  refs->swap(sorted);
}

/// Stable counting sort of `refs` by owning instance; returns the
/// num_instances + 1 bounds of the per-instance groups.
std::vector<std::size_t> GroupByInstance(std::vector<MrRecordRef>* refs,
                                         std::int64_t num_instances) {
  const std::size_t n = refs->size();
  std::vector<std::uint32_t> owner(n);
  std::vector<std::size_t> bounds(static_cast<std::size_t>(num_instances) + 1,
                                  0);
  for (std::size_t i = 0; i < n; ++i) {
    owner[i] = static_cast<std::uint32_t>(
        InstanceOfKey((*refs)[i].key(), num_instances));
    ++bounds[owner[i] + 1];
  }
  std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
  std::vector<std::size_t> next(bounds.begin(), bounds.end() - 1);
  std::vector<MrRecordRef> grouped(n);
  for (std::size_t i = 0; i < n; ++i) grouped[next[owner[i]]++] = (*refs)[i];
  refs->swap(grouped);
  return bounds;
}

}  // namespace

std::int64_t MapReduceJob::InstanceForKey(std::int64_t key,
                                          std::int64_t num_instances) {
  return InstanceOfKey(key, num_instances);
}

MrBlock::MrBlock(std::size_t records, std::size_t floats, std::size_t ids)
    : record_capacity_(records),
      float_capacity_(floats),
      id_capacity_(ids),
      floats_(std::make_unique_for_overwrite<float[]>(floats)),
      ids_(std::make_unique_for_overwrite<std::int64_t[]>(ids)) {
  keys_.reserve(records);
  tags_.reserve(records);
  srcs_.reserve(records);
  float_offsets_.reserve(records + 1);
  id_offsets_.reserve(records + 1);
}

MrRecordSlot MrBlock::Append(std::int64_t key, std::int32_t tag, NodeId src,
                             std::size_t num_floats, std::size_t num_ids) {
  INFERTURBO_CHECK(Fits(num_floats, num_ids)) << "MrBlock is full";
  const std::uint64_t float_begin = float_offsets_.back();
  const std::uint64_t id_begin = id_offsets_.back();
  keys_.push_back(key);
  tags_.push_back(tag);
  srcs_.push_back(src);
  float_offsets_.push_back(float_begin + num_floats);
  id_offsets_.push_back(id_begin + num_ids);
  return MrRecordSlot{
      std::span<float>(floats_.get() + float_begin, num_floats),
      std::span<std::int64_t>(ids_.get() + id_begin, num_ids)};
}

void MrEmitter::Emit(std::int64_t key, std::int32_t tag, NodeId src,
                     std::span<const float> floats,
                     std::span<const std::int64_t> ids) {
  const MrRecordSlot slot = Append(key, tag, src, floats.size(), ids.size());
  std::copy(floats.begin(), floats.end(), slot.floats.begin());
  std::copy(ids.begin(), ids.end(), slot.ids.begin());
}

MrRecordSlot MrEmitter::AppendTo(std::vector<MrBlock>* blocks,
                                 std::int64_t key, std::int32_t tag,
                                 NodeId src, std::size_t num_floats,
                                 std::size_t num_ids) {
  if (blocks->empty() || !blocks->back().Fits(num_floats, num_ids)) {
    const std::size_t shift = std::min(blocks->size(), kMaxBlockGrowthShift);
    blocks->emplace_back(
        std::min(kMaxBlockRecords, kFirstBlockRecords << shift),
        std::max(num_floats, std::min(kMaxBlockFloats, kFirstBlockFloats << shift)),
        std::max(num_ids, std::min(kMaxBlockIds, kFirstBlockIds << shift)));
  }
  return blocks->back().Append(key, tag, src, num_floats, num_ids);
}

MrRecordSlot MrEmitter::Append(std::int64_t key, std::int32_t tag,
                               NodeId src, std::size_t num_floats,
                               std::size_t num_ids) {
  ++records_;
  ++emitted_;
  return AppendTo(&blocks_, key, tag, src, num_floats, num_ids);
}

std::uint32_t& MrEmitter::PartialIndex(std::int64_t key) {
  // A negative key wraps past every dense range.
  const std::uint64_t k = static_cast<std::uint64_t>(key);
  if (k >= dense_index_.size() && k <= DenseKeyRange(emitted_)) {
    // Double the table, never past what DenseKeyRange admits, and move
    // in the keys opened while it could not hold them yet.
    dense_index_.resize(std::min<std::uint64_t>(
        std::max<std::uint64_t>(k + 1, 2 * dense_index_.size()),
        DenseKeyRange(emitted_) + 1));
    std::erase_if(sparse_index_, [this](const auto& entry) {
      const std::uint64_t moved = static_cast<std::uint64_t>(entry.first);
      if (moved >= dense_index_.size()) return false;
      dense_index_[moved] = entry.second;
      return true;
    });
  }
  return k < dense_index_.size() ? dense_index_[k] : sparse_index_[key];
}

void MrEmitter::EmitFolded(std::int64_t key, std::int32_t tag,
                           std::span<const float> row, MrFoldFn fold) {
  ++emitted_;
  std::uint32_t& index = PartialIndex(key);
  if (index == 0) {
    INFERTURBO_CHECK(partials_.size() < UINT32_MAX)
        << "too many folded records in one emitter";
    const MrRecordSlot slot =
        AppendTo(&folded_blocks_, key, tag, -1, row.size(), 1);
    std::copy(row.begin(), row.end(), slot.floats.begin());
    slot.ids[0] = 1;
    partials_.push_back(slot);
    index = static_cast<std::uint32_t>(partials_.size());
    ++records_;
    return;
  }
  const MrRecordSlot& partial = partials_[index - 1];
  INFERTURBO_CHECK(partial.floats.size() == row.size())
      << "folded row for key " << key << " has " << row.size()
      << " floats, its partial has " << partial.floats.size();
  fold(partial.floats.data(), row.data(),
       static_cast<std::int64_t>(row.size()));
  ++partial.ids[0];
}

std::vector<MrBlock> MrEmitter::TakeBlocks() {
  std::vector<MrBlock> blocks = std::move(blocks_);
  blocks_.clear();
  for (MrBlock& block : folded_blocks_) blocks.push_back(std::move(block));
  folded_blocks_.clear();
  partials_.clear();
  dense_index_.clear();
  sparse_index_.clear();
  records_ = 0;
  emitted_ = 0;
  return blocks;
}

std::string MapReduceJob::SpillPath(std::int64_t stage,
                                    std::int64_t producer,
                                    std::int64_t reducer,
                                    int attempt) const {
  std::string path = options_.spill_directory + "/stage" +
                     std::to_string(stage) + "_p" + std::to_string(producer) +
                     "_r" + std::to_string(reducer);
  if (attempt >= 0) path += "_a" + std::to_string(attempt);
  return path + ".blk";
}

Status MapReduceJob::PromoteSpillBlocks(
    std::int64_t stage, const std::vector<int>& winning_attempt) {
  // An attempt id is bounded by 1 original + max_task_retries retries +
  // 1 speculative backup.
  const int attempt_cap = options_.supervisor->options().max_task_retries + 2;
  const std::int64_t n = options_.num_instances;
  for (std::int64_t p = 0; p < n; ++p) {
    const int winner = winning_attempt[static_cast<std::size_t>(p)];
    for (std::int64_t r = 0; r < n; ++r) {
      for (int a = 0; a < attempt_cap; ++a) {
        if (a == winner) continue;
        std::remove(SpillPath(stage, p, r, a).c_str());  // loser cleanup
      }
      const std::string src = SpillPath(stage, p, r, winner);
      if (!std::ifstream(src).good()) continue;  // empty block: no file
      const std::string dst = SpillPath(stage, p, r);
      if (std::rename(src.c_str(), dst.c_str()) != 0) {
        return Status::IoError("cannot promote committed spill block " + src +
                               " to " + dst);
      }
    }
  }
  return Status::OK();
}

void MapReduceJob::RemoveSpillBlocks(std::int64_t stage) const {
  const int attempt_cap = options_.supervisor->options().max_task_retries + 2;
  const std::int64_t n = options_.num_instances;
  for (std::int64_t p = 0; p < n; ++p) {
    for (std::int64_t r = 0; r < n; ++r) {
      // Attempt -1 is the canonical name.
      for (int a = -1; a < attempt_cap; ++a) {
        std::remove(SpillPath(stage, p, r, a).c_str());
      }
    }
  }
}

MapReduceJob::MapReduceJob(Options options) : options_(options) {
  INFERTURBO_CHECK(options_.num_instances > 0)
      << "MapReduceJob needs instances";
  if (options_.supervisor == nullptr) {
    TaskSupervisionOptions supervision;
    supervision.pool = options_.pool;
    default_supervisor_ = std::make_unique<TaskSupervisor>(supervision);
    options_.supervisor = default_supervisor_.get();
  }
  dataflow_.resize(static_cast<std::size_t>(options_.num_instances));
  metrics_.cost_model = options_.cost_model;
  metrics_.workers.resize(static_cast<std::size_t>(options_.num_instances));
}

Status MapReduceJob::RunMap(const MapFn& map_fn) {
  const std::int64_t n = options_.num_instances;
  std::vector<WorkerStepMetrics> step(static_cast<std::size_t>(n));
  TraceSpan stage_span("mr/map_stage");
  // Attempt-local map task: everything lands in locals and only the
  // winning attempt publishes to dataflow_.
  const auto map_task = [&](TaskAttempt* attempt) -> Status {
    const std::size_t i = attempt->task();
    TraceSpan span("mr/map", static_cast<std::int64_t>(i));
    MrEmitter emitter;
    WallTimer timer;
    map_fn(static_cast<std::int64_t>(i), &emitter);
    WorkerStepMetrics m;
    m.busy_seconds = timer.ElapsedSeconds();
    m.records_out = static_cast<std::int64_t>(emitter.size());
    std::vector<MrBlock> out = emitter.TakeBlocks();
    if (MetricsEnabled()) {
      static Histogram* hist = GlobalMetrics().GetHistogram("mr.map_seconds");
      hist->Observe(m.busy_seconds);
    }
    if (attempt->TryCommit()) {
      dataflow_[i] = std::move(out);
      step[i] = m;
    }
    return Status::OK();
  };
  const TaskStage map_stage{TaskStageKind::kMrMap, metrics_.num_steps()};
  INFERTURBO_RETURN_NOT_OK(
      options_.supervisor
          ->RunStage(map_stage, static_cast<std::size_t>(n), map_task)
          .status());
  for (std::int64_t i = 0; i < n; ++i) {
    metrics_.workers[static_cast<std::size_t>(i)].steps.push_back(
        step[static_cast<std::size_t>(i)]);
  }
  return Status::OK();
}

Status MapReduceJob::RunReduce(const ReduceFn& reduce_fn) {
  TaskSupervisor& supervisor = *options_.supervisor;
  const std::int64_t n = options_.num_instances;
  std::vector<WorkerStepMetrics> step(static_cast<std::size_t>(n));

  // --- producer side: partition by destination, account, and (when
  // spilling) write this attempt's blocks out -------------------------
  // outgoing[p][r] = p's record blocks for reducer r, in emission order.
  std::vector<std::vector<std::vector<MrBlock>>> outgoing(
      static_cast<std::size_t>(n));
  TraceSpan stage_span("mr/reduce_stage");
  const std::int64_t spill_stage = metrics_.num_steps();
  const bool spill = !options_.spill_directory.empty();
  // A failed stage leaves no block behind: a resume re-enters from the
  // checkpointed dataflow, never from a half-written round.
  const auto fail = [&](const Status& status) {
    if (spill) RemoveSpillBlocks(spill_stage);
    return status;
  };
  std::atomic<std::uint64_t> written{0};
  std::atomic<std::int64_t> write_retries{0};
  // Producer task body. Attempt-local: the resident dataflow is only
  // read, and released when the task settles, so a retried or
  // duplicate attempt sees the same immutable inputs; spill blocks go
  // to attempt-scoped paths and only the winner's are promoted.
  const auto produce = [&](TaskAttempt* attempt) -> Status {
    const std::size_t p = attempt->task();
    TraceSpan span("mr/shuffle_partition", static_cast<std::int64_t>(p));
    WallTimer timer;
    WorkerStepMetrics m;
    // Group this producer's records by destination reducer with a
    // stable sort over record refs, so emission order holds within
    // each group.
    std::vector<MrRecordRef> refs;
    AppendRefs(dataflow_[p], &refs);
    const std::vector<std::size_t> bounds = GroupByInstance(&refs, n);
    std::vector<std::vector<MrBlock>> out(static_cast<std::size_t>(n));
    for (std::int64_t r = 0; r < n; ++r) {
      MrEmitter emitter;
      for (std::size_t i = bounds[static_cast<std::size_t>(r)];
           i < bounds[static_cast<std::size_t>(r) + 1]; ++i) {
        const MrRecord record = refs[i].get();
        emitter.Emit(refs[i].key(), record.tag, record.src, record.floats,
                     record.ids);
      }
      out[static_cast<std::size_t>(r)] = emitter.TakeBlocks();
    }
    // Shuffle-write accounting: every record leaves through external
    // storage, local or not.
    for (const auto& blocks : out) {
      for (const MrBlock& block : blocks) {
        for (std::size_t i = 0; i < block.size(); ++i) {
          m.bytes_out += block.record(i).WireBytes();
        }
        m.records_out += static_cast<std::int64_t>(block.size());
      }
    }
    m.busy_seconds += timer.ElapsedSeconds();
    std::uint64_t bytes_spilled = 0;
    std::int64_t spill_retries = 0;
    if (spill) {
      // Producers write their blocks out and release the memory; the
      // reducer half reads them back — the dataflow never lives fully
      // in RAM, which is the MR backend's §IV-C2 selling point. Each
      // block is CRC-framed and lands atomically (temp + rename);
      // transient injected faults are retried with backoff and counted.
      TraceSpan write_span("mr/spill_write", static_cast<std::int64_t>(p));
      for (std::int64_t r = 0; r < n; ++r) {
        auto& blocks = out[static_cast<std::size_t>(r)];
        if (blocks.empty()) continue;
        const std::string encoded = EncodeBlock(blocks);
        std::int64_t retries = 0;
        const Status status = WriteFileAtomic(
            SpillPath(spill_stage, static_cast<std::int64_t>(p), r,
                      attempt->attempt()),
            encoded, options_.fault_injector, options_.retry, &retries);
        spill_retries += retries;
        if (!status.ok()) return status;
        bytes_spilled += encoded.size();
        blocks.clear();
      }
    }
    if (attempt->TryCommit()) {
      // Only the winner's work enters the books, so counters stay
      // deterministic; loser attempts' blocks are deleted by
      // PromoteSpillBlocks below.
      outgoing[p] = std::move(out);
      step[p] = m;
      written.fetch_add(bytes_spilled);
      write_retries.fetch_add(spill_retries);
    }
    return Status::OK();
  };

  const TaskStage shuffle_stage{TaskStageKind::kMrShuffle, spill_stage};
  const Result<StageResult> shuffled = supervisor.RunStage(
      shuffle_stage, static_cast<std::size_t>(n), produce,
      [this](std::size_t p) { dataflow_[p].clear(); });
  if (!shuffled.ok()) return fail(shuffled.status());
  if (spill) {
    const Status promoted =
        PromoteSpillBlocks(spill_stage, shuffled->committed_attempt);
    if (!promoted.ok()) return fail(promoted);
    spill_bytes_written_ += written.load();
    metrics_.spill_write_retries += write_retries.load();
    if (MetricsEnabled()) {
      GlobalMetrics().GetCounter("mr.spill_bytes_written")
          ->Add(static_cast<std::int64_t>(written.load()));
    }
  }

  // --- reducer side: read, sort, reduce ------------------------------
  const std::int64_t stage = metrics_.num_steps();
  std::atomic<std::int64_t> read_retries{0};
  std::vector<std::vector<MrBlock>> next_dataflow(
      static_cast<std::size_t>(n));
  const auto run_reduce_task = [&](TaskAttempt* attempt) -> Status {
    const std::size_t r = attempt->task();
    WallTimer timer;
    WorkerStepMetrics m;
    std::int64_t local_read_retries = 0;
    // Refs to every record bound for r — producers in id order, each in
    // emission order — stably sorted by key: values for one key arrive
    // in (producer, emission) order, the determinism contract. The
    // blocks and spill files are only read, so an attempt and its
    // concurrent duplicate can share them; they go when r settles.
    std::vector<std::vector<MrBlock>> from_disk(static_cast<std::size_t>(n));
    std::vector<MrRecordRef> refs;
    // Key group g is refs[groups[g], groups[g + 1]).
    std::vector<std::size_t> groups;
    {
      TraceSpan shuffle_span("mr/shuffle_read", static_cast<std::int64_t>(r));
      for (std::int64_t p = 0; p < n; ++p) {
        const std::vector<MrBlock>* blocks =
            &outgoing[static_cast<std::size_t>(p)][r];
        if (spill) {
          const std::string path =
              SpillPath(spill_stage, p, static_cast<std::int64_t>(r));
          if (std::ifstream(path).good()) {
            // Read + length/checksum verify + decode as one retried
            // unit: a transient short read or bit flip fails validation
            // and the retry re-reads healthy bytes; a persistent fault
            // surfaces as a descriptive Status, never a crash or silent
            // corruption.
            std::int64_t retries = 0;
            const Status status = RetryWithBackoff(
                options_.retry,
                [&] {
                  INFERTURBO_ASSIGN_OR_RETURN(
                      const std::string file,
                      ReadFileToString(path, options_.fault_injector));
                  MrEmitter decoded;
                  INFERTURBO_RETURN_NOT_OK(DecodeBlock(file, path, &decoded));
                  from_disk[static_cast<std::size_t>(p)] =
                      decoded.TakeBlocks();
                  return Status::OK();
                },
                &retries);
            local_read_retries += retries;
            if (!status.ok()) return status;
            blocks = &from_disk[static_cast<std::size_t>(p)];
          }
        }
        const std::size_t first = refs.size();
        AppendRefs(*blocks, &refs);
        for (std::size_t i = first; i < refs.size(); ++i) {
          m.bytes_in += refs[i].get().WireBytes();
        }
        m.records_in += static_cast<std::int64_t>(refs.size() - first);
      }
      StableSortByKey(&refs);
      // Streaming execution model: one key group resident at a time
      // (sort/merge spills to external storage on a real deployment),
      // which is the backend's low-memory selling point.
      std::uint64_t group_bytes = 0;
      for (std::size_t i = 0; i < refs.size(); ++i) {
        if (i == 0 || refs[i].key() != refs[i - 1].key()) {
          groups.push_back(i);
          group_bytes = 0;
        }
        group_bytes += refs[i].get().WireBytes();
        m.peak_resident_bytes = std::max(m.peak_resident_bytes, group_bytes);
      }
      groups.push_back(refs.size());
    }
    TraceSpan reduce_span("mr/reduce", static_cast<std::int64_t>(r));
    const std::size_t num_groups = groups.size() - 1;
    MrEmitter emitter;
    for (std::size_t g = 0; g < num_groups; g += kReduceBlockKeys) {
      const std::size_t count = std::min(kReduceBlockKeys, num_groups - g);
      reduce_fn(MrKeyGroups(refs, std::span<const std::size_t>(groups).subspan(
                                      g, count + 1)),
                &emitter);
    }
    std::vector<MrBlock> out = emitter.TakeBlocks();
    m.busy_seconds = timer.ElapsedSeconds();
    if (MetricsEnabled()) {
      static Histogram* hist =
          GlobalMetrics().GetHistogram("mr.reduce_seconds");
      hist->Observe(m.busy_seconds);
    }
    if (attempt->TryCommit()) {
      next_dataflow[r] = std::move(out);
      WorkerStepMetrics& s = step[r];
      s.bytes_in += m.bytes_in;
      s.records_in += m.records_in;
      s.busy_seconds += m.busy_seconds;
      s.peak_resident_bytes =
          std::max(s.peak_resident_bytes, m.peak_resident_bytes);
      read_retries.fetch_add(local_read_retries);
    }
    return Status::OK();
  };

  // Reducer r is the last reader of its inputs: they go as r settles.
  const auto release_inputs = [&](std::size_t r) {
    for (std::int64_t p = 0; p < n; ++p) {
      outgoing[static_cast<std::size_t>(p)][r].clear();
      if (spill) {
        std::remove(
            SpillPath(spill_stage, p, static_cast<std::int64_t>(r)).c_str());
      }
    }
  };
  const TaskStage reduce_stage{TaskStageKind::kMrReduce, stage};
  const Result<StageResult> reduced = supervisor.RunStage(
      reduce_stage, static_cast<std::size_t>(n), run_reduce_task,
      release_inputs);
  if (!reduced.ok()) return fail(reduced.status());
  metrics_.spill_read_retries += read_retries.load();

  dataflow_ = std::move(next_dataflow);
  for (std::int64_t i = 0; i < n; ++i) {
    metrics_.workers[static_cast<std::size_t>(i)].steps.push_back(
        step[static_cast<std::size_t>(i)]);
  }
  return Status::OK();
}

std::string MapReduceJob::SerializeDataflow() const {
  BinaryWriter out;
  out.PutI64(options_.num_instances);
  for (const auto& flow : dataflow_) EncodeRecords(flow, &out);
  return out.Take();
}

Status MapReduceJob::RestoreDataflow(std::string_view bytes) {
  BinaryReader in(bytes);
  std::int64_t instances = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetI64(&instances));
  if (instances != options_.num_instances) {
    return Status::IoError(
        "checkpointed dataflow has " + std::to_string(instances) +
        " instances, job has " + std::to_string(options_.num_instances));
  }
  std::vector<std::vector<MrBlock>> restored(
      static_cast<std::size_t>(instances));
  for (auto& flow : restored) {
    MrEmitter decoded;
    INFERTURBO_RETURN_NOT_OK(DecodeRecords(&in, &decoded));
    flow = decoded.TakeBlocks();
  }
  if (!in.AtEnd()) {
    return Status::IoError("trailing bytes after checkpointed dataflow");
  }
  dataflow_ = std::move(restored);
  return Status::OK();
}

std::vector<MrBlock> MapReduceJob::TakeOutputs() {
  std::vector<MrBlock> out;
  for (auto& flow : dataflow_) {
    for (MrBlock& block : flow) out.push_back(std::move(block));
    flow.clear();
  }
  return out;
}

}  // namespace inferturbo

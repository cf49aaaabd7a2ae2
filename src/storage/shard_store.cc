#include "src/storage/shard_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/common/atomic_file.h"
#include "src/common/crc32.h"
#include "src/common/timer.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {

MappedShard::~MappedShard() {
  if (mmap_base_ != nullptr) {
    ::munmap(mmap_base_, size_);
  }
}

struct ShardStore::State {
  ShardStoreOptions options;
  ShardMeta meta;
  /// The tier Open() resolved for this store (never kAuto).
  ShardReadPath read_path = ShardReadPath::kMmap;

  mutable std::mutex mu;
  struct CacheEntry {
    ShardLease lease;
    std::uint64_t last_use = 0;
  };
  std::unordered_map<std::int64_t, CacheEntry> cache;
  std::uint64_t tick = 0;
  /// Counters mutated under `mu`. bytes_mapped/peak/unmap_calls live as
  /// atomics below: the lease deleter updates them without taking `mu`,
  /// so dropping a lease inside an eviction (which holds `mu`) cannot
  /// self-deadlock.
  StorageMetrics counters;

  std::atomic<std::uint64_t> bytes_mapped{0};
  std::atomic<std::uint64_t> peak_bytes_mapped{0};
  std::atomic<std::int64_t> unmap_calls{0};
};

/// Loader + validator with friend access to MappedShard internals.
struct ShardStoreInternal {
  static Status ValidateShard(MappedShard* shard);
  static Result<std::unique_ptr<MappedShard>> BuildFromHeap(
      std::string bytes);
  static Result<std::unique_ptr<MappedShard>> BuildFromBuffer(
      AlignedShardBuffer buffer);
  static Result<std::unique_ptr<MappedShard>> MapFromFile(
      const std::string& path);
};

/// Validates the shard image behind `shard->base_`/`size_` and fills in
/// its header and page table. Everything a hostile file could get wrong
/// — magic, version, frame CRCs, page kinds/order, byte counts vs the
/// header's shape, alignment, bounds, payload CRCs, CSR offsets — fails
/// with a descriptive IoError.
Status ShardStoreInternal::ValidateShard(MappedShard* shard) {
  const std::string_view view(shard->base_, shard->size_);
  INFERTURBO_RETURN_NOT_OK(DecodeShardHeader(view, &shard->header_));
  const ShardHeader& h = shard->header_;
  // No page can outgrow the file, so the file size bounds every product
  // below; a header that breaks the bound is damaged, not just large.
  const std::uint64_t n = static_cast<std::uint64_t>(h.num_nodes);
  const std::uint64_t m = static_cast<std::uint64_t>(h.num_edges);
  std::uint64_t expected_bytes[kNumPageKinds] = {};
  if (!PageBytesWithin(n, 1, 8, shard->size_, &expected_bytes[0]) ||
      !PageBytesWithin(n + 1, 1, 8, shard->size_, &expected_bytes[1]) ||
      !PageBytesWithin(m, 1, 8, shard->size_, &expected_bytes[2]) ||
      !PageBytesWithin(m, 1, 8, shard->size_, &expected_bytes[3]) ||
      !PageBytesWithin(n, static_cast<std::uint64_t>(h.feature_dim), 4,
                       shard->size_, &expected_bytes[4]) ||
      !PageBytesWithin(m, static_cast<std::uint64_t>(h.edge_feature_dim), 4,
                       shard->size_, &expected_bytes[5])) {
    return Status::IoError("shard header shape does not fit in a " +
                           std::to_string(shard->size_) + "-byte file");
  }
  expected_bytes[6] = h.has_labels ? expected_bytes[0] : 0;
  for (int i = 0; i < kNumPageKinds; ++i) {
    PageEntry& entry = shard->entries_[static_cast<std::size_t>(i)];
    INFERTURBO_RETURN_NOT_OK(DecodePageEntry(view, i, &entry));
    const std::string page(PageKindToString(entry.kind));
    if (entry.kind != static_cast<PageKind>(i + 1)) {
      return Status::IoError("page table out of order: slot " +
                             std::to_string(i) + " holds " + page);
    }
    if (entry.bytes != expected_bytes[i]) {
      return Status::IoError(
          page + " page holds " + std::to_string(entry.bytes) +
          " bytes, header shape requires " +
          std::to_string(expected_bytes[i]));
    }
    if (entry.bytes == 0) continue;
    if (entry.offset % kPageAlignment != 0 ||
        entry.offset < ShardPayloadStart()) {
      return Status::IoError(page + " page is misaligned");
    }
    if (entry.offset > shard->size_ ||
        entry.bytes > shard->size_ - entry.offset) {
      return Status::IoError("shard file truncated: " + page +
                             " page extends past end of file");
    }
    if (Crc32(shard->base_ + entry.offset, entry.bytes) !=
        entry.payload_crc) {
      return Status::IoError(page + " page checksum mismatch");
    }
  }
  // Cheap structural sanity on the CSR so downstream slicing can index
  // without re-checking.
  const std::span<const std::int64_t> offsets = shard->out_offsets();
  if (offsets.front() != 0 || offsets.back() != h.num_edges) {
    return Status::IoError("CSR offsets do not cover the edge pages");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::IoError("CSR offsets are not non-decreasing");
    }
  }
  return Status::OK();
}

/// Heap-backed shard: used whenever a fault injector is configured so
/// every IoFaultKind applies to shard reads.
Result<std::unique_ptr<MappedShard>> ShardStoreInternal::BuildFromHeap(
    std::string bytes) {
  std::unique_ptr<MappedShard> shard(new MappedShard());
  shard->heap_ = std::move(bytes);
  shard->base_ = shard->heap_.data();
  shard->size_ = shard->heap_.size();
  INFERTURBO_RETURN_NOT_OK(ValidateShard(shard.get()));
  return shard;
}

/// Buffer-backed shard: the whole file image arrived through pread.
Result<std::unique_ptr<MappedShard>> ShardStoreInternal::BuildFromBuffer(
    AlignedShardBuffer buffer) {
  std::unique_ptr<MappedShard> shard(new MappedShard());
  shard->buffer_ = std::move(buffer);
  shard->base_ = shard->buffer_.data();
  shard->size_ = shard->buffer_.size();
  INFERTURBO_RETURN_NOT_OK(ValidateShard(shard.get()));
  return shard;
}

/// mmap-backed shard (PROT_READ, MAP_PRIVATE): the kernel pages data in
/// on demand and can drop clean pages under pressure.
Result<std::unique_ptr<MappedShard>> ShardStoreInternal::MapFromFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open shard file " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Status::IoError("cannot stat shard file " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IoError("mmap failed for shard file " + path);
  }
  std::unique_ptr<MappedShard> shard(new MappedShard());
  shard->mmap_base_ = base;
  shard->base_ = static_cast<const char*>(base);
  shard->size_ = size;
  // ~MappedShard munmaps on the validation-failure path.
  INFERTURBO_RETURN_NOT_OK(ValidateShard(shard.get()));
  return shard;
}

namespace {

using State = ShardStore::State;

bool IsChecksumError(const Status& status) {
  return status.message().find("checksum mismatch") != std::string::npos;
}

/// Whether every id lies in [0, num_nodes): one branch-free unsigned
/// compare per id.
bool IdsInRange(std::span<const std::int64_t> ids, std::int64_t num_nodes) {
  bool in_range = true;
  for (const std::int64_t id : ids) {
    in_range &= static_cast<std::uint64_t>(id) <
                static_cast<std::uint64_t>(num_nodes);
  }
  return in_range;
}

/// Cross-checks a loaded shard against the meta's expectations for that
/// partition, so a renamed or stale shard file cannot masquerade as the
/// requested one, and a page whose CRC holds cannot smuggle in a node
/// id that node-indexed tables downstream would overrun.
Status CheckAgainstMeta(const MappedShard& shard, const ShardMeta& meta,
                        std::int64_t partition) {
  const ShardHeader& h = shard.header();
  const ShardPartitionInfo& info =
      meta.partitions[static_cast<std::size_t>(partition)];
  if (h.partition != partition || h.num_nodes != info.num_nodes ||
      h.num_edges != info.num_edges || h.feature_dim != meta.feature_dim ||
      h.edge_feature_dim != meta.edge_feature_dim ||
      h.has_labels != meta.has_labels) {
    return Status::IoError("shard header disagrees with meta for partition " +
                           std::to_string(partition));
  }
  if (!IdsInRange(shard.node_ids(), meta.num_nodes) ||
      !IdsInRange(shard.out_dst(), meta.num_nodes)) {
    return Status::IoError("partition " + std::to_string(partition) +
                           " holds a node id outside [0, " +
                           std::to_string(meta.num_nodes) + ")");
  }
  return Status::OK();
}

/// Exact on-disk size of partition p, computable from the meta alone —
/// what evict-before-load uses to make room before the bytes arrive.
std::uint64_t ExpectedShardBytes(const ShardMeta& meta,
                                 std::int64_t partition) {
  const ShardPartitionInfo& info =
      meta.partitions[static_cast<std::size_t>(partition)];
  const std::uint64_t n = static_cast<std::uint64_t>(info.num_nodes);
  const std::uint64_t m = static_cast<std::uint64_t>(info.num_edges);
  const std::uint64_t sizes[kNumPageKinds] = {
      n * 8,
      (n + 1) * 8,
      m * 8,
      m * 8,
      n * static_cast<std::uint64_t>(meta.feature_dim) * 4,
      m * static_cast<std::uint64_t>(meta.edge_feature_dim) * 4,
      meta.has_labels ? n * 8 : 0,
  };
  std::uint64_t cursor = ShardPayloadStart();
  for (const std::uint64_t size : sizes) {
    if (size == 0) continue;
    cursor = (cursor + kPageAlignment - 1) / kPageAlignment * kPageAlignment;
    cursor += size;
  }
  return cursor;
}

/// Drops least-recently-used cache entries until `incoming` more bytes
/// fit under the budget (or the cache is empty). Entries held by
/// outstanding leases free their bytes only when those leases drop; the
/// loop still terminates because each pass shrinks the cache.
void EvictForLocked(State& s, std::uint64_t incoming) {
  if (s.options.memory_budget_bytes == 0) return;
  if (s.cache.empty() ||
      s.bytes_mapped.load(std::memory_order_relaxed) + incoming <=
          s.options.memory_budget_bytes) {
    return;
  }
  TraceSpan span("storage/evict");
  while (s.bytes_mapped.load(std::memory_order_relaxed) + incoming >
         s.options.memory_budget_bytes) {
    auto lru = s.cache.end();
    for (auto it = s.cache.begin(); it != s.cache.end(); ++it) {
      if (lru == s.cache.end() ||
          it->second.last_use < lru->second.last_use) {
        lru = it;
      }
    }
    if (lru == s.cache.end()) return;  // nothing evictable left
    RecordFlightEvent(FlightEventKind::kEviction, "storage/evict",
                      lru->first);
    // Erasing drops the cache's reference; when it is the last one the
    // deleter returns the bytes immediately (atomics only — no `mu`).
    s.cache.erase(lru);
    ++s.counters.evictions;
    if (MetricsEnabled()) {
      GlobalMetrics().GetCounter("storage.evictions")->Increment();
    }
  }
}

/// Non-injector load through the resolved read tier, with mmap as the
/// safety net when a pread fails mid-job (the probe read the meta file
/// at Open, but an allocation or a particular shard file can still
/// fail). Validation failures are returned as-is — re-reading corrupt
/// bytes through mmap cannot fix them.
Result<std::unique_ptr<MappedShard>> LoadFromDisk(
    const std::shared_ptr<State>& s, const std::string& path) {
  if (s->read_path == ShardReadPath::kPread) {
    Result<AlignedShardBuffer> bytes = ReadFileAligned(path);
    if (bytes.ok()) {
      return ShardStoreInternal::BuildFromBuffer(std::move(*bytes));
    }
    std::lock_guard<std::mutex> lock(s->mu);
    ++s->counters.read_path_fallbacks;
  }
  const bool timed = MetricsEnabled();
  WallTimer timer;
  Result<std::unique_ptr<MappedShard>> mapped =
      ShardStoreInternal::MapFromFile(path);
  if (timed && mapped.ok()) {
    ObserveShardRead(ShardReadPath::kMmap, timer.ElapsedSeconds(),
                     static_cast<std::int64_t>((*mapped)->mapped_bytes()));
  }
  return mapped;
}

/// Loads + validates one shard. No budget accounting happens here —
/// bytes are charged at publication (PublishLocked), so a duplicate
/// load that loses the insert race is freed without ever counting
/// against the budget or distorting the peak.
Result<std::unique_ptr<MappedShard>> LoadShard(
    const std::shared_ptr<State>& s, std::int64_t partition) {
  TraceSpan span("storage/load", partition);
  const std::string path =
      s->options.directory + "/" + ShardFileName(partition);
  std::unique_ptr<MappedShard> shard;
  const auto note_checksum_failure = [&s](const Status& status) {
    if (IsChecksumError(status)) {
      std::lock_guard<std::mutex> lock(s->mu);
      ++s->counters.checksum_failures;
    }
  };
  if (s->options.fault_injector != nullptr) {
    // Read through the injector so faults apply; corruption is only
    // detectable after validation, so the retry wraps read + validate.
    double read_seconds = 0.0;
    const Status status = RetryWithBackoff(s->options.retry, [&]() {
      WallTimer timer;
      Result<std::string> bytes =
          ReadFileToString(path, s->options.fault_injector);
      INFERTURBO_RETURN_NOT_OK(bytes.status());
      read_seconds = timer.ElapsedSeconds();
      Result<std::unique_ptr<MappedShard>> built =
          ShardStoreInternal::BuildFromHeap(std::move(*bytes));
      if (!built.ok()) {
        note_checksum_failure(built.status());
        return built.status();
      }
      shard = std::move(*built);
      return Status::OK();
    });
    if (!status.ok()) {
      return Status::IoError(path + ": " + status.message());
    }
    ObserveShardRead(ShardReadPath::kPread, read_seconds,
                     static_cast<std::int64_t>(shard->mapped_bytes()));
  } else {
    Result<std::unique_ptr<MappedShard>> built = LoadFromDisk(s, path);
    if (!built.ok()) {
      note_checksum_failure(built.status());
      return Status::IoError(path + ": " + built.status().message());
    }
    shard = std::move(*built);
  }
  {
    const Status status = CheckAgainstMeta(*shard, s->meta, partition);
    if (!status.ok()) {
      return Status::IoError(path + ": " + status.message());
    }
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    ++s->counters.map_calls;
  }
  return shard;
}

/// Publishes a loaded shard under `mu`: evicts LRU entries to make room
/// for its ACTUAL size, charges its bytes, and inserts it into the
/// cache. The returned lease's deleter refunds the bytes when the last
/// holder drops it — the store is referenced weakly so a lease
/// outliving the store stays valid.
ShardLease PublishLocked(const std::shared_ptr<State>& s,
                         std::int64_t partition,
                         std::unique_ptr<MappedShard> shard) {
  const std::size_t size = shard->mapped_bytes();
  EvictForLocked(*s, size);
  s->bytes_mapped.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t now = s->bytes_mapped.load(std::memory_order_relaxed);
  std::uint64_t peak = s->peak_bytes_mapped.load(std::memory_order_relaxed);
  while (now > peak && !s->peak_bytes_mapped.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (MetricsEnabled()) {
    GlobalMetrics().GetGauge("storage.bytes_mapped")->Set(
        static_cast<std::int64_t>(now));
  }
  std::weak_ptr<State> weak = s;
  ShardLease lease(shard.release(), [weak](const MappedShard* p) {
    const std::size_t bytes = p->mapped_bytes();
    delete p;
    if (const std::shared_ptr<State> st = weak.lock()) {
      const std::uint64_t now_mapped =
          st->bytes_mapped.fetch_sub(bytes, std::memory_order_relaxed) -
          bytes;
      st->unmap_calls.fetch_add(1, std::memory_order_relaxed);
      if (MetricsEnabled()) {
        GlobalMetrics().GetGauge("storage.bytes_mapped")->Set(
            static_cast<std::int64_t>(now_mapped));
      }
    }
  });
  State::CacheEntry entry;
  entry.lease = lease;
  entry.last_use = ++s->tick;
  s->cache[partition] = std::move(entry);
  return lease;
}

}  // namespace

Result<ShardStore> ShardStore::Open(ShardStoreOptions options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("shard directory must be set");
  }
  const std::string meta_path =
      options.directory + "/" + ShardMetaFileName();
  ShardMeta meta;
  // The meta is the pack's commit point; validate-and-retry like every
  // other injector-visible read.
  const Status status = RetryWithBackoff(options.retry, [&]() {
    Result<std::string> bytes =
        ReadFileToString(meta_path, options.fault_injector);
    INFERTURBO_RETURN_NOT_OK(bytes.status());
    return DecodeShardMeta(*bytes, &meta);
  });
  if (!status.ok()) {
    return Status::IoError(meta_path + ": " + status.message());
  }
  auto state = std::make_shared<State>();
  state->options = std::move(options);
  state->meta = std::move(meta);
  // Resolve the read tier once per store. An armed fault injector needs
  // every byte to flow through ReadFileToString, a buffered read that
  // LoadShard reports as kPread; otherwise probe pread against the meta
  // file, which lives on the same filesystem as the shards.
  if (state->options.fault_injector != nullptr) {
    state->read_path = ShardReadPath::kPread;
  } else if (state->options.read_path == ShardReadPath::kAuto) {
    state->read_path = DetectShardReadPath(meta_path);
  } else {
    state->read_path = state->options.read_path;
  }
  return ShardStore(std::move(state));
}

const ShardMeta& ShardStore::meta() const { return state_->meta; }

const ShardStoreOptions& ShardStore::options() const {
  return state_->options;
}

Result<ShardLease> ShardStore::Map(std::int64_t partition) {
  State& s = *state_;
  if (partition < 0 || partition >= s.meta.num_partitions()) {
    return Status::InvalidArgument(
        "partition " + std::to_string(partition) + " out of range [0, " +
        std::to_string(s.meta.num_partitions()) + ")");
  }
  TraceSpan span("storage/map", partition);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.cache.find(partition);
    if (it != s.cache.end()) {
      ++s.counters.cache_hits;
      it->second.last_use = ++s.tick;
      return it->second.lease;
    }
    ++s.counters.cache_misses;
    // Make room before the bytes arrive so the budget holds at peak.
    EvictForLocked(s, ExpectedShardBytes(s.meta, partition));
  }
  INFERTURBO_ASSIGN_OR_RETURN(std::unique_ptr<MappedShard> shard,
                              LoadShard(state_, partition));
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.cache.find(partition);
  if (it != s.cache.end()) {
    // A concurrent Map beat us; keep the incumbent and drop our
    // never-charged duplicate — never block on an in-flight load.
    it->second.last_use = ++s.tick;
    return it->second.lease;
  }
  return PublishLocked(state_, partition, std::move(shard));
}

ShardReadPath ShardStore::read_path() const { return state_->read_path; }

StorageMetrics ShardStore::metrics() const {
  State& s = *state_;
  StorageMetrics out;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    out = s.counters;
  }
  out.bytes_mapped = s.bytes_mapped.load(std::memory_order_relaxed);
  out.peak_bytes_mapped =
      s.peak_bytes_mapped.load(std::memory_order_relaxed);
  out.unmap_calls = s.unmap_calls.load(std::memory_order_relaxed);
  out.read_path = static_cast<std::int64_t>(s.read_path);
  return out;
}

}  // namespace inferturbo

#include "src/storage/shard_format.h"

#include <cstdio>
#include <limits>

#include "src/common/binary_io.h"
#include "src/common/crc32.h"

namespace inferturbo {
namespace {

/// Pads `frame` with zero bytes to exactly `target` and stamps a CRC32
/// over everything before the trailing 4 bytes.
std::string SealFixedFrame(std::string frame, std::size_t target) {
  frame.resize(target - sizeof(std::uint32_t), '\0');
  const std::uint32_t crc = Crc32(frame);
  BinaryWriter tail;
  tail.PutU32(crc);
  frame += tail.Take();
  return frame;
}

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// Cap on one page kind's bytes summed over a pack (1 EiB): seven pages
/// this size plus padding still fit in a uint64 shard size.
constexpr std::uint64_t kMaxPackPageBytes = std::uint64_t{1} << 60;

/// Validates the trailing CRC32 of a fixed-size frame.
Status CheckFixedFrame(std::string_view frame, std::string_view what) {
  const std::string_view body = frame.substr(0, frame.size() - 4);
  std::uint32_t stored = 0;
  BinaryReader tail(frame.substr(frame.size() - 4));
  INFERTURBO_RETURN_NOT_OK(tail.GetU32(&stored));
  if (Crc32(body) != stored) {
    return Status::IoError(std::string(what) + " checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

std::string_view PageKindToString(PageKind kind) {
  switch (kind) {
    case PageKind::kNodeIds:
      return "node_ids";
    case PageKind::kOutOffsets:
      return "out_offsets";
    case PageKind::kOutDst:
      return "out_dst";
    case PageKind::kOutEdgeIds:
      return "out_edge_ids";
    case PageKind::kNodeFeatures:
      return "node_features";
    case PageKind::kEdgeFeatures:
      return "edge_features";
    case PageKind::kLabels:
      return "labels";
  }
  return "unknown";
}

std::string ShardMetaFileName() { return "meta.its"; }

std::string ShardFileName(std::int64_t partition) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%05lld.its",
                static_cast<long long>(partition));
  return buf;
}

std::string EncodeShardMeta(const ShardMeta& meta) {
  BinaryWriter writer;
  writer.PutU32(kMetaMagic);
  writer.PutU32(kShardFormatVersion);
  writer.PutI64(meta.num_nodes);
  writer.PutI64(meta.num_edges);
  writer.PutI64(meta.feature_dim);
  writer.PutI64(meta.edge_feature_dim);
  writer.PutI64(meta.num_classes);
  writer.PutU32(meta.has_labels ? 1 : 0);
  writer.PutU64(meta.partitions.size());
  for (const ShardPartitionInfo& part : meta.partitions) {
    writer.PutI64(part.num_nodes);
    writer.PutI64(part.num_edges);
  }
  const std::uint32_t crc = Crc32(writer.buffer());
  writer.PutU32(crc);
  return writer.Take();
}

Status DecodeShardMeta(std::string_view bytes, ShardMeta* meta) {
  if (bytes.size() < 4) {
    return Status::IoError("shard meta truncated (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  INFERTURBO_RETURN_NOT_OK(CheckFixedFrame(bytes, "shard meta"));
  BinaryReader reader(bytes.substr(0, bytes.size() - 4));
  std::uint32_t magic = 0, version = 0, has_labels = 0;
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&magic));
  if (magic != kMetaMagic) {
    return Status::IoError("not a shard meta file (bad magic)");
  }
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&version));
  if (version != kShardFormatVersion) {
    return Status::IoError("unsupported shard format version " +
                           std::to_string(version));
  }
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&meta->num_nodes));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&meta->num_edges));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&meta->feature_dim));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&meta->edge_feature_dim));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&meta->num_classes));
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&has_labels));
  meta->has_labels = has_labels != 0;
  if (meta->feature_dim < 0 || meta->edge_feature_dim < 0 ||
      meta->num_classes < 0) {
    return Status::IoError("shard meta has negative dimensions");
  }
  std::uint64_t num_partitions = 0;
  INFERTURBO_RETURN_NOT_OK(reader.GetU64(&num_partitions));
  if (num_partitions > (reader.remaining() / 16)) {
    return Status::IoError("shard meta claims " +
                           std::to_string(num_partitions) +
                           " partitions but the file is too small");
  }
  meta->partitions.clear();
  meta->partitions.reserve(num_partitions);
  std::int64_t node_total = 0, edge_total = 0;
  for (std::uint64_t i = 0; i < num_partitions; ++i) {
    ShardPartitionInfo part;
    INFERTURBO_RETURN_NOT_OK(reader.GetI64(&part.num_nodes));
    INFERTURBO_RETURN_NOT_OK(reader.GetI64(&part.num_edges));
    if (part.num_nodes < 0 || part.num_edges < 0) {
      return Status::IoError("shard meta partition " + std::to_string(i) +
                             " has negative counts");
    }
    if (part.num_nodes > kInt64Max - node_total ||
        part.num_edges > kInt64Max - edge_total) {
      return Status::IoError("shard meta partition counts overflow");
    }
    node_total += part.num_nodes;
    edge_total += part.num_edges;
    meta->partitions.push_back(part);
  }
  if (node_total != meta->num_nodes || edge_total != meta->num_edges) {
    return Status::IoError(
        "shard meta partition totals disagree with graph totals");
  }
  // Whole-pack page sizes bound every partition's, so a shard's size
  // (seven such pages plus padding) cannot wrap for a meta that passes.
  const std::uint64_t n = static_cast<std::uint64_t>(node_total);
  const std::uint64_t m = static_cast<std::uint64_t>(edge_total);
  std::uint64_t page_bytes = 0;
  if (!PageBytesWithin(n + 1, 1, 8, kMaxPackPageBytes, &page_bytes) ||
      !PageBytesWithin(m, 1, 8, kMaxPackPageBytes, &page_bytes) ||
      !PageBytesWithin(n, static_cast<std::uint64_t>(meta->feature_dim), 4,
                       kMaxPackPageBytes, &page_bytes) ||
      !PageBytesWithin(m, static_cast<std::uint64_t>(meta->edge_feature_dim),
                       4, kMaxPackPageBytes, &page_bytes)) {
    return Status::IoError("shard meta shape overflows its page sizes");
  }
  return Status::OK();
}

std::string EncodeShardHeader(const ShardHeader& header) {
  BinaryWriter writer;
  writer.PutU32(kShardMagic);
  writer.PutU32(kShardFormatVersion);
  writer.PutI64(header.partition);
  writer.PutI64(header.num_nodes);
  writer.PutI64(header.num_edges);
  writer.PutI64(header.feature_dim);
  writer.PutI64(header.edge_feature_dim);
  writer.PutU32(header.has_labels ? 1 : 0);
  return SealFixedFrame(writer.Take(), kShardHeaderBytes);
}

Status DecodeShardHeader(std::string_view bytes, ShardHeader* header) {
  if (bytes.size() < kShardHeaderBytes) {
    return Status::IoError("shard file truncated: " +
                           std::to_string(bytes.size()) +
                           " bytes is smaller than the header");
  }
  const std::string_view frame = bytes.substr(0, kShardHeaderBytes);
  INFERTURBO_RETURN_NOT_OK(CheckFixedFrame(frame, "shard header"));
  BinaryReader reader(frame);
  std::uint32_t magic = 0, version = 0, has_labels = 0;
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&magic));
  if (magic != kShardMagic) {
    return Status::IoError("not a shard file (bad magic)");
  }
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&version));
  if (version != kShardFormatVersion) {
    return Status::IoError("unsupported shard format version " +
                           std::to_string(version));
  }
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&header->partition));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&header->num_nodes));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&header->num_edges));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&header->feature_dim));
  INFERTURBO_RETURN_NOT_OK(reader.GetI64(&header->edge_feature_dim));
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&has_labels));
  header->has_labels = has_labels != 0;
  if (header->partition < 0 || header->num_nodes < 0 ||
      header->num_edges < 0 || header->feature_dim < 0 ||
      header->edge_feature_dim < 0) {
    return Status::IoError("shard header has negative counts");
  }
  return Status::OK();
}

std::string EncodePageEntry(const PageEntry& entry) {
  BinaryWriter writer;
  writer.PutU32(static_cast<std::uint32_t>(entry.kind));
  writer.PutU32(0);  // reserved
  writer.PutU64(entry.offset);
  writer.PutU64(entry.bytes);
  writer.PutU32(entry.payload_crc);
  return SealFixedFrame(writer.Take(), kPageEntryBytes);
}

Status DecodePageEntry(std::string_view file_bytes, int index,
                       PageEntry* entry) {
  const std::size_t begin =
      kShardHeaderBytes + static_cast<std::size_t>(index) * kPageEntryBytes;
  if (file_bytes.size() < begin + kPageEntryBytes) {
    return Status::IoError("shard file truncated inside the page table");
  }
  const std::string_view frame = file_bytes.substr(begin, kPageEntryBytes);
  INFERTURBO_RETURN_NOT_OK(CheckFixedFrame(
      frame, "page table entry " + std::to_string(index)));
  BinaryReader reader(frame);
  std::uint32_t kind = 0, reserved = 0;
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&kind));
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&reserved));
  INFERTURBO_RETURN_NOT_OK(reader.GetU64(&entry->offset));
  INFERTURBO_RETURN_NOT_OK(reader.GetU64(&entry->bytes));
  INFERTURBO_RETURN_NOT_OK(reader.GetU32(&entry->payload_crc));
  if (kind < 1 || kind > static_cast<std::uint32_t>(kNumPageKinds)) {
    return Status::IoError("page table entry " + std::to_string(index) +
                           " has unknown page kind " + std::to_string(kind));
  }
  entry->kind = static_cast<PageKind>(kind);
  return Status::OK();
}

bool PageBytesWithin(std::uint64_t rows, std::uint64_t cols,
                     std::uint64_t width, std::uint64_t limit,
                     std::uint64_t* bytes) {
  const std::uint64_t max_elements = limit / width;
  if (cols != 0 && rows > max_elements / cols) return false;
  *bytes = rows * cols * width;
  return true;
}

std::size_t ShardPayloadStart() {
  const std::size_t raw =
      kShardHeaderBytes +
      static_cast<std::size_t>(kNumPageKinds) * kPageEntryBytes;
  return (raw + kPageAlignment - 1) / kPageAlignment * kPageAlignment;
}

}  // namespace inferturbo

#ifndef INFERTURBO_STORAGE_SHARD_FORMAT_H_
#define INFERTURBO_STORAGE_SHARD_FORMAT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace inferturbo {

/// On-disk shard format for out-of-core graphs (ISSUE 4 / paper
/// §IV-C2: the MapReduce backend keeps graph data in external storage,
/// not RAM).
///
/// A *shard directory* holds one immutable file per partition plus a
/// meta file:
///
///   meta.its                 global header (dims, partition table)
///   shard_00000.its ...      one partition's pages
///
/// Each shard file is
///
///   [ShardHeader | 64 B, CRC-framed]
///   [PageEntry x kNumPageKinds | 32 B each, CRC-framed]
///   [page payloads, each 64-byte aligned, CRC per payload]
///
/// Pages are columnar: node ids, a local CSR (offsets + global dst ids
/// + global edge ids), node-feature rows, optional edge-feature rows,
/// optional labels. All integers are little-endian int64, features are
/// raw IEEE float32 — round trips are bit-exact, which is what lets a
/// shard-backed run promise bit-identical logits to the in-memory path.
///
/// Global edge ids are stored per out-edge so the original Graph —
/// including its edge numbering, and therefore its CSC in-edge order —
/// can be reconstructed exactly (MaterializeGraph), keeping fold-order-
/// sensitive float reductions bit-identical across storage backends.
///
/// Every frame (headers, page table entries, payloads) carries a CRC32
/// checked before first use, so a truncated file or a flipped bit
/// surfaces as a clean IoError Status, never a crash; files are written
/// through AtomicFile, so a reader sees old-or-new, never torn bytes.

inline constexpr std::uint32_t kShardMagic = 0x48535449;  // "ITSH"
inline constexpr std::uint32_t kMetaMagic = 0x4D535449;   // "ITSM"
inline constexpr std::uint32_t kShardFormatVersion = 1;

/// Alignment of every page payload within a shard file: wide enough for
/// int64/float access through the mapping and for cache-line streaming.
inline constexpr std::size_t kPageAlignment = 64;

/// Fixed on-disk sizes (field-by-field little-endian serialization).
inline constexpr std::size_t kShardHeaderBytes = 64;
inline constexpr std::size_t kPageEntryBytes = 32;

/// The columnar pages of one shard, in file order. A shard always
/// carries the first five; edge features and labels are optional
/// (bytes = 0 when absent).
enum class PageKind : std::uint32_t {
  kNodeIds = 1,       ///< int64[n]   global node id per local row, ascending
  kOutOffsets = 2,    ///< int64[n+1] local CSR offsets into the edge pages
  kOutDst = 3,        ///< int64[m]   global destination node ids
  kOutEdgeIds = 4,    ///< int64[m]   global edge ids (original numbering)
  kNodeFeatures = 5,  ///< float[n*feature_dim] row-major feature rows
  kEdgeFeatures = 6,  ///< float[m*edge_feature_dim], optional
  kLabels = 7,        ///< int64[n], optional
};
inline constexpr int kNumPageKinds = 7;

std::string_view PageKindToString(PageKind kind);

/// Decoded shard-file header.
struct ShardHeader {
  std::int64_t partition = 0;
  std::int64_t num_nodes = 0;   ///< nodes in this shard
  std::int64_t num_edges = 0;   ///< out-edges in this shard
  std::int64_t feature_dim = 0;
  std::int64_t edge_feature_dim = 0;  ///< 0 = no edge features
  bool has_labels = false;
};

/// Decoded page-table entry. `offset`/`bytes` locate the payload within
/// the shard file; `payload_crc` is CRC32 over those bytes.
struct PageEntry {
  PageKind kind = PageKind::kNodeIds;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint32_t payload_crc = 0;
};

/// Per-partition shape recorded in the meta file.
struct ShardPartitionInfo {
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
};

/// Global header for a shard directory.
struct ShardMeta {
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
  std::int64_t feature_dim = 0;
  std::int64_t edge_feature_dim = 0;  ///< 0 = no edge features
  std::int64_t num_classes = 0;       ///< 0 = unlabeled
  bool has_labels = false;
  std::vector<ShardPartitionInfo> partitions;

  std::int64_t num_partitions() const {
    return static_cast<std::int64_t>(partitions.size());
  }
};

/// File names inside a shard directory.
std::string ShardMetaFileName();
std::string ShardFileName(std::int64_t partition);

/// Meta file body (CRC-framed); decode validates magic, version, and
/// the trailing checksum and returns IoError on any mismatch.
std::string EncodeShardMeta(const ShardMeta& meta);
Status DecodeShardMeta(std::string_view bytes, ShardMeta* meta);

/// Serializes the fixed-size shard header (kShardHeaderBytes bytes,
/// trailing CRC32 over the preceding fields).
std::string EncodeShardHeader(const ShardHeader& header);
/// Parses + validates a shard header from the start of `bytes`.
Status DecodeShardHeader(std::string_view bytes, ShardHeader* header);

/// Serializes one page-table entry (kPageEntryBytes bytes, trailing
/// CRC32 over the preceding fields).
std::string EncodePageEntry(const PageEntry& entry);
/// Parses + validates the `index`-th page-table entry of a shard file.
Status DecodePageEntry(std::string_view file_bytes, int index,
                       PageEntry* entry);

/// Sets `*bytes` to rows × cols × width and returns true when that is
/// at most `limit`; returns false otherwise. Division bounds each step,
/// so a damaged count cannot wrap the product.
bool PageBytesWithin(std::uint64_t rows, std::uint64_t cols,
                     std::uint64_t width, std::uint64_t limit,
                     std::uint64_t* bytes);

/// Offset of the first page payload (header + full page table, rounded
/// up to kPageAlignment).
std::size_t ShardPayloadStart();

}  // namespace inferturbo

#endif  // INFERTURBO_STORAGE_SHARD_FORMAT_H_

#ifndef INFERTURBO_COMMON_CRC32_H_
#define INFERTURBO_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace inferturbo {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `size` bytes.
/// Chainable: pass a previous value as `seed` to extend a running
/// checksum. This is the integrity check stamped on every byte the
/// system persists — shard pages and shard meta, checkpoint files,
/// shuffle spill blocks, and output shards — so torn writes and bit rot
/// are detected on read instead of silently corrupting results. On
/// x86 CPUs with PCLMULQDQ the 16-byte bulk of any buffer of 64 bytes
/// or more is folded by carry-less multiplication, about 50x the byte
/// table's rate, so verifying a shard costs less than reading it; the
/// tail, and every byte on other CPUs, goes through the byte table.
/// Both paths return the same value for every input and seed.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// The byte-table CRC-32 alone, whatever the CPU: the reference that
/// tests hold Crc32 to.
std::uint32_t Crc32Portable(const void* data, std::size_t size,
                            std::uint32_t seed = 0);

inline std::uint32_t Crc32(std::string_view data, std::uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace inferturbo

#endif  // INFERTURBO_COMMON_CRC32_H_

#ifndef INFERTURBO_COMMON_BINARY_IO_H_
#define INFERTURBO_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace inferturbo {

/// Append-only little-endian byte-buffer writer used by everything the
/// system persists (checkpoints, spill blocks). Floats are written as
/// raw IEEE bytes, so round trips are bit-exact — the property the
/// cross-process exactness contract rests on.
class BinaryWriter {
 public:
  void PutBytes(const void* data, std::size_t size) {
    if (size == 0) return;  // empty vectors hand over a null data()
    buffer_.append(static_cast<const char*>(data), size);
  }
  template <typename T>
  void PutScalar(T value) {
    PutBytes(&value, sizeof(T));
  }
  void PutU32(std::uint32_t v) { PutScalar(v); }
  void PutU64(std::uint64_t v) { PutScalar(v); }
  void PutI32(std::int32_t v) { PutScalar(v); }
  void PutI64(std::int64_t v) { PutScalar(v); }
  void PutFloat(float v) { PutScalar(v); }

  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutU64(s.size());
    PutBytes(s.data(), s.size());
  }
  void PutFloats(std::span<const float> v) {
    PutU64(v.size());
    PutBytes(v.data(), v.size() * sizeof(float));
  }
  void PutI64s(std::span<const std::int64_t> v) {
    PutU64(v.size());
    PutBytes(v.data(), v.size() * sizeof(std::int64_t));
  }

  std::size_t size() const { return buffer_.size(); }
  /// Sizes the buffer up front, so a large encoding is written once
  /// instead of copied through every doubling.
  void Reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked reader over a serialized buffer. Every getter returns
/// a descriptive IoError Status on underflow instead of reading past
/// the end — short reads and truncated files become recoverable errors,
/// never undefined behavior. Length prefixes are validated against the
/// remaining bytes before any allocation, so a corrupted count cannot
/// trigger an absurd allocation.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status GetBytes(void* out, std::size_t size) {
    if (remaining() < size) {
      return Status::IoError("short read: need " + std::to_string(size) +
                             " bytes, have " + std::to_string(remaining()));
    }
    if (size == 0) return Status::OK();  // `out` may be an empty data()
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }
  template <typename T>
  Status GetScalar(T* out) {
    return GetBytes(out, sizeof(T));
  }
  Status GetU32(std::uint32_t* out) { return GetScalar(out); }
  Status GetU64(std::uint64_t* out) { return GetScalar(out); }
  Status GetI32(std::int32_t* out) { return GetScalar(out); }
  Status GetI64(std::int64_t* out) { return GetScalar(out); }
  Status GetFloat(float* out) { return GetScalar(out); }

  /// Reads a length prefix counting `element_size`-byte elements and
  /// validates it against the remaining buffer.
  Status GetLength(std::uint64_t* count, std::size_t element_size) {
    INFERTURBO_RETURN_NOT_OK(GetU64(count));
    return CheckCount(*count, element_size);
  }
  /// Advances past `size` bytes.
  Status Skip(std::size_t size) {
    if (remaining() < size) {
      return Status::IoError("short read: skip " + std::to_string(size) +
                             " bytes, have " + std::to_string(remaining()));
    }
    pos_ += size;
    return Status::OK();
  }

  Status GetString(std::string* out);
  Status GetFloats(std::vector<float>* out);
  Status GetI64s(std::vector<std::int64_t>* out);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return remaining() == 0; }

 private:
  /// Validates a length prefix claiming `count` elements of
  /// `element_size` bytes against the remaining buffer.
  Status CheckCount(std::uint64_t count, std::size_t element_size) {
    if (count > remaining() / (element_size == 0 ? 1 : element_size)) {
      return Status::IoError("corrupt length prefix: " +
                             std::to_string(count) + " elements exceed " +
                             std::to_string(remaining()) +
                             " remaining bytes");
    }
    return Status::OK();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace inferturbo

#endif  // INFERTURBO_COMMON_BINARY_IO_H_

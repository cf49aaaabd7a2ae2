#ifndef INFERTURBO_TENSOR_CHUNKED_ROWS_H_
#define INFERTURBO_TENSOR_CHUNKED_ROWS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/tensor/tensor.h"

namespace inferturbo {

/// A row-major matrix stored as fixed kChunkRows-row chunks behind
/// shared_ptr. Chunks are immutable: WithRows() returns a new matrix
/// that copies only the chunks it writes and shares every other chunk
/// with its source, so successive versions of a large matrix that
/// differ in a few rows cost O(rows written), not O(rows).
class ChunkedRows {
 public:
  /// Small on purpose: the rows one delta rewrites are scattered over
  /// the id space, so a few hundred of them touch a few hundred 32-row
  /// chunks but nearly every 4096-row one.
  static constexpr std::int64_t kChunkRows = 32;

  ChunkedRows() = default;

  /// Views `rows` without copying. `owner` keeps the storage alive; an
  /// empty owner makes a borrowed view that must not outlive `rows`.
  static ChunkedRows View(const Tensor& rows,
                          std::shared_ptr<const void> owner);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  const float* Row(std::int64_t r) const {
    const auto index = static_cast<std::uint64_t>(r);
    return chunks_[index / kChunkRows].get() +
           static_cast<std::int64_t>(index % kChunkRows) * cols_;
  }

  /// A copy with `num_rows` (>= rows()) rows in which row ids[i] holds
  /// values.RowPtr(i). `ids` must be sorted, unique and in range, and
  /// must name every appended row in [rows(), num_rows).
  ChunkedRows WithRows(std::int64_t num_rows,
                       std::span<const std::int64_t> ids,
                       const Tensor& values) const;

  /// Rows `ids`, in order, as a dense matrix.
  Tensor Gather(std::span<const std::int64_t> ids) const;
  /// Every row as a dense matrix.
  Tensor ToTensor() const;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::shared_ptr<const float>> chunks_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_CHUNKED_ROWS_H_

#include "src/tensor/chunked_rows.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace inferturbo {

namespace {

std::int64_t ChunkCount(std::int64_t rows) {
  return (rows + ChunkedRows::kChunkRows - 1) / ChunkedRows::kChunkRows;
}

}  // namespace

ChunkedRows ChunkedRows::View(const Tensor& rows,
                              std::shared_ptr<const void> owner) {
  ChunkedRows out;
  out.rows_ = rows.rows();
  out.cols_ = rows.cols();
  out.chunks_.reserve(static_cast<std::size_t>(ChunkCount(rows.rows())));
  for (std::int64_t r = 0; r < rows.rows(); r += kChunkRows) {
    // Aliasing constructor: shares `owner`'s lifetime, points into rows.
    out.chunks_.emplace_back(owner, rows.RowPtr(r));
  }
  return out;
}

ChunkedRows ChunkedRows::WithRows(std::int64_t num_rows,
                                  std::span<const std::int64_t> ids,
                                  const Tensor& values) const {
  INFERTURBO_CHECK(num_rows >= rows_) << "ChunkedRows cannot shrink";
  INFERTURBO_CHECK(values.rows() == static_cast<std::int64_t>(ids.size()) &&
                   (ids.empty() || values.cols() == cols_))
      << "ChunkedRows patch shape mismatch";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    INFERTURBO_CHECK(ids[i] >= 0 && ids[i] < num_rows &&
                     (i == 0 || ids[i - 1] < ids[i]))
        << "ChunkedRows patch ids must be sorted, unique and in range";
  }
  const auto first_new = std::lower_bound(ids.begin(), ids.end(), rows_);
  INFERTURBO_CHECK(ids.end() - first_new == num_rows - rows_)
      << "every appended row must be written";

  ChunkedRows out;
  out.rows_ = num_rows;
  out.cols_ = cols_;
  out.chunks_ = chunks_;
  out.chunks_.resize(static_cast<std::size_t>(ChunkCount(num_rows)));
  const std::size_t row_bytes = static_cast<std::size_t>(cols_) * sizeof(float);
  std::size_t i = 0;
  while (i < ids.size()) {
    const std::int64_t c = ids[i] / kChunkRows;
    // Copy-on-write: a fresh chunk holding the rows this matrix already
    // has, then every patched row that falls inside it.
    std::shared_ptr<float[]> fresh(new float[kChunkRows * cols_]());
    const std::int64_t kept = std::clamp<std::int64_t>(
        rows_ - c * kChunkRows, 0, kChunkRows);
    if (kept > 0) {
      std::memcpy(fresh.get(), chunks_[static_cast<std::size_t>(c)].get(),
                  static_cast<std::size_t>(kept) * row_bytes);
    }
    for (; i < ids.size() && ids[i] / kChunkRows == c; ++i) {
      std::memcpy(fresh.get() + (ids[i] % kChunkRows) * cols_,
                  values.RowPtr(static_cast<std::int64_t>(i)), row_bytes);
    }
    out.chunks_[static_cast<std::size_t>(c)] =
        std::shared_ptr<const float>(fresh, fresh.get());
  }
  return out;
}

Tensor ChunkedRows::Gather(std::span<const std::int64_t> ids) const {
  Tensor out(static_cast<std::int64_t>(ids.size()), cols_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    INFERTURBO_CHECK(ids[i] >= 0 && ids[i] < rows_)
        << "ChunkedRows row " << ids[i] << " out of [0," << rows_ << ")";
    out.SetRow(static_cast<std::int64_t>(i), Row(ids[i]));
  }
  return out;
}

Tensor ChunkedRows::ToTensor() const {
  Tensor out(rows_, cols_);
  for (std::int64_t r = 0; r < rows_; r += kChunkRows) {
    const std::int64_t n = std::min(kChunkRows, rows_ - r);
    std::memcpy(out.RowPtr(r), Row(r),
                static_cast<std::size_t>(n * cols_) * sizeof(float));
  }
  return out;
}

}  // namespace inferturbo

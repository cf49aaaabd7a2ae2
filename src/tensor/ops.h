#ifndef INFERTURBO_TENSOR_OPS_H_
#define INFERTURBO_TENSOR_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/tensor.h"

namespace inferturbo {

/// Dense kernels used by both the inference computation flow and the
/// training tape. All functions allocate their output; in-place variants
/// carry the InPlace suffix. Shape mismatches are programmer errors and
/// abort via INFERTURBO_CHECK.

/// C = A(m×k) · B(k×n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A(m×k) · B(n×k)^T.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);
/// C = A(k×m)^T · B(k×n).
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
void AddInPlace(Tensor* a, const Tensor& b);
/// Adds a 1×d bias row to every row of a (n×d).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);
void AddRowBroadcastInPlace(Tensor* a, const Tensor& bias);
/// Elementwise difference.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Scales every entry of a (n×d) row r by column vector s (n×1).
Tensor MulColBroadcast(const Tensor& a, const Tensor& scale);
Tensor Scale(const Tensor& a, float factor);
void ScaleInPlace(Tensor* a, float factor);

/// x > 0 ? x : 0 per entry, so NaN and -0.0 become +0.0.
Tensor Relu(const Tensor& a);
void ReluInPlace(Tensor* a);
/// max(x, slope*x); GAT uses slope 0.2.
Tensor LeakyRelu(const Tensor& a, float slope);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

/// Row-wise softmax (n×d) -> (n×d).
Tensor SoftmaxRows(const Tensor& a);
/// Row-wise log-softmax, numerically stabilized.
Tensor LogSoftmaxRows(const Tensor& a);

/// [a | b] column concatenation; row counts must match.
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Columns [begin, end) of a.
Tensor SliceCols(const Tensor& a, std::int64_t begin, std::int64_t end);
/// Stacks a (n1×d) above b (n2×d).
Tensor ConcatRows(const Tensor& a, const Tensor& b);

Tensor Transpose(const Tensor& a);

/// out[i] = a[indices[i]]; rows gathered with repetition allowed.
Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices);
/// acc[indices[i]] += rows[i] for all i; acc must be preallocated.
void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows);

/// Sum of all entries.
double SumAll(const Tensor& a);
/// Index of the max entry in each row (ties -> lowest index).
std::vector<std::int64_t> ArgmaxRows(const Tensor& a);
/// L2 norm of all entries viewed as one vector.
double L2Norm(const Tensor& a);

}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_OPS_H_

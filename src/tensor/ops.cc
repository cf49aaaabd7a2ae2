#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/logging.h"
#include "src/tensor/kernels/kernels.h"

namespace inferturbo {

// The dense hot paths (matmuls, gather/scatter) validate shapes here
// and run on the fast kernel layer; kernels_test pins the kernels
// bit-identical to the retained scalar references in
// src/tensor/kernels/reference.cc.

Tensor MatMul(const Tensor& a, const Tensor& b) {
  INFERTURBO_CHECK(a.cols() == b.rows())
      << "MatMul shape mismatch: " << a.ToString() << " x " << b.ToString();
  return kernels::MatMul(a, b);
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  INFERTURBO_CHECK(a.cols() == b.cols())
      << "MatMulTransposedB shape mismatch";
  return kernels::MatMulTransposedB(a, b);
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  INFERTURBO_CHECK(a.rows() == b.rows())
      << "MatMulTransposedA shape mismatch";
  return kernels::MatMulTransposedA(a, b);
}

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  INFERTURBO_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << op << " shape mismatch: " << a.ToString() << " vs " << b.ToString();
}

template <typename Fn>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, Fn fn,
                         const char* op) {
  CheckSameShape(a, b, op);
  Tensor c(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = fn(pa[i], pb[i]);
  return c;
}

template <typename Fn>
Tensor ElementwiseUnary(const Tensor& a, Fn fn) {
  Tensor c(a.rows(), a.cols());
  const float* pa = a.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = fn(pa[i]);
  return c;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x + y; },
                           "Add");
}

void AddInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b, "AddInPlace");
  float* pa = a->data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a->size(); ++i) pa[i] += pb[i];
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  Tensor c = a;
  AddRowBroadcastInPlace(&c, bias);
  return c;
}

void AddRowBroadcastInPlace(Tensor* a, const Tensor& bias) {
  INFERTURBO_CHECK(bias.rows() == 1 && bias.cols() == a->cols())
      << "AddRowBroadcast wants 1x" << a->cols() << " bias, got "
      << bias.ToString();
  const float* pb = bias.data();
  for (std::int64_t r = 0; r < a->rows(); ++r) {
    float* pa = a->RowPtr(r);
    for (std::int64_t j = 0; j < a->cols(); ++j) pa[j] += pb[j];
  }
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x - y; },
                           "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x * y; },
                           "Mul");
}

Tensor MulColBroadcast(const Tensor& a, const Tensor& scale) {
  INFERTURBO_CHECK(scale.rows() == a.rows() && scale.cols() == 1)
      << "MulColBroadcast wants " << a.rows() << "x1 scale, got "
      << scale.ToString();
  Tensor c(a.rows(), a.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float s = scale.At(r, 0);
    const float* pa = a.RowPtr(r);
    float* pc = c.RowPtr(r);
    for (std::int64_t j = 0; j < a.cols(); ++j) pc[j] = pa[j] * s;
  }
  return c;
}

Tensor Scale(const Tensor& a, float factor) {
  return ElementwiseUnary(a, [factor](float x) { return x * factor; });
}

void ScaleInPlace(Tensor* a, float factor) {
  float* pa = a->data();
  for (std::int64_t i = 0; i < a->size(); ++i) pa[i] *= factor;
}

Tensor Relu(const Tensor& a) {
  Tensor c = a;
  ReluInPlace(&c);
  return c;
}

void ReluInPlace(Tensor* a) {
  float* pa = a->data();
  for (std::int64_t i = 0; i < a->size(); ++i) {
    pa[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
  }
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  return ElementwiseUnary(
      a, [slope](float x) { return x > 0.0f ? x : slope * x; });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::tanh(x); });
}

Tensor SoftmaxRows(const Tensor& a) {
  Tensor c(a.rows(), a.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* pa = a.RowPtr(r);
    float* pc = c.RowPtr(r);
    float max_v = pa[0];
    for (std::int64_t j = 1; j < a.cols(); ++j) max_v = std::max(max_v, pa[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < a.cols(); ++j) {
      pc[j] = std::exp(pa[j] - max_v);
      sum += pc[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < a.cols(); ++j) pc[j] *= inv;
  }
  return c;
}

Tensor LogSoftmaxRows(const Tensor& a) {
  Tensor c(a.rows(), a.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* pa = a.RowPtr(r);
    float* pc = c.RowPtr(r);
    float max_v = pa[0];
    for (std::int64_t j = 1; j < a.cols(); ++j) max_v = std::max(max_v, pa[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < a.cols(); ++j) {
      sum += std::exp(pa[j] - max_v);
    }
    const float log_sum = std::log(sum) + max_v;
    for (std::int64_t j = 0; j < a.cols(); ++j) pc[j] = pa[j] - log_sum;
  }
  return c;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  INFERTURBO_CHECK(a.rows() == b.rows()) << "ConcatCols row mismatch";
  Tensor c(a.rows(), a.cols() + b.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    std::memcpy(c.RowPtr(r), a.RowPtr(r),
                static_cast<std::size_t>(a.cols()) * sizeof(float));
    std::memcpy(c.RowPtr(r) + a.cols(), b.RowPtr(r),
                static_cast<std::size_t>(b.cols()) * sizeof(float));
  }
  return c;
}

Tensor SliceCols(const Tensor& a, std::int64_t begin, std::int64_t end) {
  INFERTURBO_CHECK(0 <= begin && begin <= end && end <= a.cols())
      << "SliceCols [" << begin << "," << end << ") out of " << a.cols();
  Tensor c(a.rows(), end - begin);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    std::memcpy(c.RowPtr(r), a.RowPtr(r) + begin,
                static_cast<std::size_t>(end - begin) * sizeof(float));
  }
  return c;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  INFERTURBO_CHECK(a.cols() == b.cols()) << "ConcatRows col mismatch";
  Tensor c(a.rows() + b.rows(), a.cols());
  std::memcpy(c.data(), a.data(), a.ByteSize());
  std::memcpy(c.RowPtr(a.rows()), b.data(), b.ByteSize());
  return c;
}

Tensor Transpose(const Tensor& a) {
  Tensor c(a.cols(), a.rows());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* pa = a.RowPtr(r);
    for (std::int64_t j = 0; j < a.cols(); ++j) c.At(j, r) = pa[j];
  }
  return c;
}

Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices) {
  return kernels::GatherRows(a, indices);
}

void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows) {
  INFERTURBO_CHECK(static_cast<std::int64_t>(indices.size()) == rows.rows())
      << "ScatterAddRows index/rows mismatch";
  INFERTURBO_CHECK(acc->cols() == rows.cols())
      << "ScatterAddRows col mismatch";
  kernels::ScatterAddRows(acc, indices, rows);
}

double SumAll(const Tensor& a) {
  double sum = 0.0;
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.size(); ++i) sum += pa[i];
  return sum;
}

std::vector<std::int64_t> ArgmaxRows(const Tensor& a) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.rows()));
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* pa = a.RowPtr(r);
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < a.cols(); ++j) {
      if (pa[j] > pa[best]) best = j;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

double L2Norm(const Tensor& a) {
  double sum = 0.0;
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(pa[i]) * pa[i];
  }
  return std::sqrt(sum);
}

}  // namespace inferturbo

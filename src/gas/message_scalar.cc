// The retained per-row scalar combine: PooledAccumulator::Add and
// ::AddPartial, one hash-resolved destination row and one scalar fold
// loop per message. CombineRows and CombineBatch are bit-identical to
// calling these per row and then ToPartialBatch — the randomized
// equivalence suite holds them to that — and bench_superstep reports
// CombineBatch's speedup against this one, so like the other scalar
// oracles (kernels/reference.cc, superstep_gather_scalar.cc) this TU is
// compiled with autovectorization disabled: the baseline means the same
// thing at every optimization level.
#include <algorithm>

#include "src/common/logging.h"
#include "src/gas/message.h"

namespace inferturbo {

void PooledAccumulator::Add(NodeId dst, const float* row) {
  AddPartial(dst, row, 1);
}

void PooledAccumulator::AddPartial(NodeId dst, const float* row,
                                   std::int64_t count) {
  float* acc = RowFor(dst, count);
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kMean:  // carried as running sum until Finalize
      for (std::int64_t j = 0; j < width_; ++j) acc[j] += row[j];
      break;
    case AggKind::kMax:
      for (std::int64_t j = 0; j < width_; ++j) {
        acc[j] = std::max(acc[j], row[j]);
      }
      break;
    case AggKind::kMin:
      for (std::int64_t j = 0; j < width_; ++j) {
        acc[j] = std::min(acc[j], row[j]);
      }
      break;
    case AggKind::kUnion:
      INFERTURBO_CHECK(false) << "unreachable";
  }
}

}  // namespace inferturbo

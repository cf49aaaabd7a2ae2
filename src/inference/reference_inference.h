#ifndef INFERTURBO_INFERENCE_REFERENCE_INFERENCE_H_
#define INFERTURBO_INFERENCE_REFERENCE_INFERENCE_H_

#include <cstdint>
#include <span>

#include "src/gas/signature.h"
#include "src/graph/graph.h"
#include "src/nn/model.h"
#include "src/tensor/tensor.h"

namespace inferturbo {

/// Single-machine layer-wise forward over an arbitrary edge list in
/// local index space: the mathematical definition of full-graph
/// inference that both distributed backends must match bit-for-bit
/// (their integration tests assert exactly this), and the per-batch
/// forward of the traditional-pipeline baseline.
///
/// Returns the final node states (num_nodes × embedding_dim).
/// `edge_features` (nullable) has one row per edge for layers whose
/// signature declares uses_edge_features.
Tensor LayerStackForward(const GnnModel& model, const Tensor& features,
                         std::span<const std::int64_t> src_index,
                         std::span<const std::int64_t> dst_index,
                         const Tensor* edge_features = nullptr);

/// LayerStackForward over a Graph's full edge set, plus the prediction
/// head: (num_nodes × num_classes) logits.
Tensor FullGraphReferenceLogits(const GnnModel& model, const Graph& graph);

/// The scalar pooled fold: the reference's own aggregate, and the one
/// per-row semantics every fast pooled gather and combine is held to.
/// For each i in ascending order, rows[i] (width floats) folds into
/// acc + segs[i] * stride with +, std::max or std::min (mean folds as
/// a sum), and seg_counts[segs[i]] grows by counts[i], or by 1 when
/// counts is empty. No init and no finalize: `acc` holds
/// seg_counts.size() rows of `stride` >= width floats, already filled.
/// Dies on a segment outside [0, seg_counts.size()) or a union kind.
void ScalarPooledFold(AggKind kind, std::int64_t width, std::int64_t stride,
                      std::span<const std::int64_t> segs,
                      std::span<const float* const> rows,
                      std::span<const std::int64_t> counts, float* acc,
                      std::span<std::int64_t> seg_counts);

}  // namespace inferturbo

#endif  // INFERTURBO_INFERENCE_REFERENCE_INFERENCE_H_

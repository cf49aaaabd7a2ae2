#ifndef INFERTURBO_GAS_GAS_CONV_H_
#define INFERTURBO_GAS_GAS_CONV_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/gas/message.h"
#include "src/gas/signature.h"
#include "src/tensor/autograd.h"
#include "src/tensor/tensor.h"

namespace inferturbo {

/// What the Gather stage hands to apply_node after vectorization.
///
/// For pooled aggregates (sum/mean/max/min) only `pooled`/`counts` are
/// populated: one finalized row per local node (zero / count 0 when a
/// node received no messages). For union aggregates (GAT) every raw
/// message row is handed over in place, by pointer, with its
/// destination segment id, so apply_node can run attention without a
/// per-edge copy.
struct GatherResult {
  AggKind kind = AggKind::kSum;
  /// (num_nodes × message_dim) finalized pooled values.
  Tensor pooled;
  /// Messages folded per node (0 = isolated node this round).
  std::vector<std::int64_t> counts;
  /// Union path: one pointer per message to its message_dim floats, in
  /// arrival order...
  std::vector<const float*> rows;
  /// ...and each row's local destination index in [0, num_nodes).
  std::vector<std::int64_t> dst_index;
  /// The storage `rows` point into when the result owns it
  /// (GatherIntoResult), shared so copies stay valid. Null when the
  /// rows live in the caller's inbox, records or message table, which
  /// must then outlive the result.
  std::shared_ptr<const Tensor> row_storage;
};

/// One GNN layer expressed in the paper's five-stage GAS-like
/// abstraction (§IV-B). The two *data-flow* stages (gather_nbrs,
/// scatter_nbrs) are built into the engines; subclasses override only
/// the three *computation-flow* stages:
///
///   aggregate   — implied by signature().agg_kind, executed by the
///                 engine (receiver-side, or sender-side under
///                 partial-gather when the kind is a lawful monoid);
///   apply_node  — ApplyNode(): new node state from the previous state
///                 and the gathered result;
///   apply_edge  — ComputeMessage() (the per-node part identical across
///                 out-edges) plus ApplyEdge() (the per-edge merge with
///                 edge features, identity by default).
///
/// The same object also exposes the training-side computation flow
/// (ForwardAg) over a local subgraph block, sharing the same parameter
/// tensors — this is the unification that lets a model trained
/// mini-batch run full-graph inference unchanged.
class GasConv {
 public:
  virtual ~GasConv() = default;

  virtual const LayerSignature& signature() const = 0;

  // --- inference computation flow (plain tensors) -------------------
  /// The outgoing message content per node: (n × message_dim) from
  /// (n × input_dim) states. Broadcastable layers compute this once per
  /// node regardless of out-degree.
  virtual Tensor ComputeMessage(const Tensor& node_states) const = 0;

  /// True when ComputeMessage returns its input unchanged, so a scatter
  /// may read message rows straight from the node states instead of a
  /// copy of them.
  virtual bool MessageIsState() const { return false; }

  /// Per-edge adjustment of message rows with edge features; default
  /// passes messages through (none of the bundled layers use edge
  /// features, but the hook completes the paper's apply_edge stage).
  virtual Tensor ApplyEdge(const Tensor& messages,
                           const Tensor* edge_features) const;

  /// New node states (n × output_dim) from previous states
  /// (n × input_dim) and the gathered aggregate.
  virtual Tensor ApplyNode(const Tensor& node_states,
                           const GatherResult& gathered) const = 0;

  // --- training computation flow (autograd) -------------------------
  /// Full message passing over a subgraph block: `h` is (num_nodes ×
  /// input_dim); (src_index, dst_index) are local edge endpoints;
  /// `edge_features` (nullable) has one row per edge when the layer's
  /// signature declares uses_edge_features. Returns (num_nodes ×
  /// output_dim). Gradients flow into the same parameters inference
  /// reads.
  virtual ag::VarPtr ForwardAg(const ag::VarPtr& h,
                               std::span<const std::int64_t> src_index,
                               std::span<const std::int64_t> dst_index,
                               std::int64_t num_nodes,
                               const Tensor* edge_features) const = 0;

  /// The layer's trainable parameters (shared with inference).
  virtual std::vector<ag::VarPtr> Parameters() const = 0;
};

/// The one pooled receive behind every sum/mean/max/min gather of both
/// backends and the in-memory fold: a GatherResult over
/// kernels::PooledSegmentFold. Row i is the pointer rows[i] (width
/// floats) and folds into segment segs[i] in ascending i; counts[i] is
/// the number of messages row i already folds (a partial aggregate),
/// empty meaning all 1. Segments must lie in [0, num_nodes). Isolated
/// segments read the neutral zero; mean divides by the folded count.
GatherResult GatherPooledRows(AggKind kind, std::int64_t width,
                              std::int64_t num_nodes,
                              std::span<const std::int64_t> segs,
                              std::span<const float* const> rows,
                              std::span<const std::int64_t> counts);

/// The one union receive: row i is the pointer rows[i] and belongs to
/// segment segs[i]. Nothing is copied; the result's rows keep arrival
/// order and point wherever the caller's do. Segments must lie in
/// [0, num_nodes), and rows and segs must have the same length.
GatherResult GatherUnionRows(std::int64_t num_nodes,
                             std::vector<std::int64_t> segs,
                             std::vector<const float*> rows);

/// Engine-side helper implementing the receiver half of Gather: folds a
/// vectorized message batch (with local destination indices) into a
/// GatherResult per `kind`. A union result owns a copy of `messages`
/// (row_storage), so it outlives the argument.
GatherResult GatherIntoResult(AggKind kind, const Tensor& messages,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes);

}  // namespace inferturbo

#endif  // INFERTURBO_GAS_GAS_CONV_H_

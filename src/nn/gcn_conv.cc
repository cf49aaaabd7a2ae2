#include "src/nn/gcn_conv.h"

#include "src/common/logging.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_ops.h"

namespace inferturbo {

GcnConv::GcnConv(std::int64_t input_dim, std::int64_t output_dim,
                 bool activation, Rng* rng)
    : activation_(activation),
      weight_(ag::Param(Tensor::GlorotUniform(input_dim, output_dim, rng))),
      bias_(ag::Param(Tensor::Zeros(1, output_dim))) {
  signature_.layer_type = "gcn";
  signature_.agg_kind = AggKind::kMean;
  signature_.input_dim = input_dim;
  signature_.output_dim = output_dim;
  signature_.message_dim = input_dim;
  signature_.partial_gather = true;
  signature_.broadcastable_messages = true;
}

Tensor GcnConv::ComputeMessage(const Tensor& node_states) const {
  return node_states;
}

Tensor GcnConv::ApplyNode(const Tensor& node_states,
                          const GatherResult& gathered) const {
  INFERTURBO_CHECK(gathered.kind == AggKind::kMean)
      << "GcnConv expects mean-gathered messages";
  // Closed-neighborhood mean: (sum_nbrs + h) / (count + 1), with the
  // neighbor sum reconstructed from the gathered mean.
  Tensor combined(node_states.rows(), node_states.cols());
  for (std::int64_t v = 0; v < node_states.rows(); ++v) {
    const auto count = static_cast<float>(
        gathered.counts[static_cast<std::size_t>(v)]);
    const float inv = 1.0f / (count + 1.0f);
    const float* ph = node_states.RowPtr(v);
    const float* pp = gathered.pooled.RowPtr(v);
    float* pc = combined.RowPtr(v);
    for (std::int64_t j = 0; j < node_states.cols(); ++j) {
      pc[j] = (pp[j] * count + ph[j]) * inv;
    }
  }
  Tensor out = MatMul(combined, weight_->value);
  AddRowBroadcastInPlace(&out, bias_->value);
  if (activation_) ReluInPlace(&out);
  return out;
}

ag::VarPtr GcnConv::ForwardAg(const ag::VarPtr& h,
                              std::span<const std::int64_t> src_index,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes,
                              const Tensor* edge_features) const {
  (void)edge_features;
  std::vector<std::int64_t> dst(dst_index.begin(), dst_index.end());
  ag::VarPtr messages = ag::GatherRows(
      h, std::vector<std::int64_t>(src_index.begin(), src_index.end()));
  ag::VarPtr nbr_sum = ag::SegmentSum(messages, dst, num_nodes);
  // 1/(deg+1) is adjacency-derived, so it enters the tape as a
  // constant scale.
  const std::vector<std::int64_t> counts = SegmentCounts(dst, num_nodes);
  Tensor inv(num_nodes, 1);
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    inv.At(v, 0) =
        1.0f / (static_cast<float>(counts[static_cast<std::size_t>(v)]) +
                1.0f);
  }
  ag::VarPtr combined = ag::MulColBroadcast(ag::Add(nbr_sum, h),
                                            ag::Constant(std::move(inv)));
  ag::VarPtr out =
      ag::AddRowBroadcast(ag::MatMul(combined, weight_), bias_);
  return activation_ ? ag::Relu(out) : out;
}

std::vector<ag::VarPtr> GcnConv::Parameters() const {
  return {weight_, bias_};
}

}  // namespace inferturbo

#include "src/nn/edge_sage_conv.h"

#include "src/common/logging.h"
#include "src/tensor/ops.h"

namespace inferturbo {

EdgeSageConv::EdgeSageConv(std::int64_t input_dim,
                           std::int64_t edge_feature_dim,
                           std::int64_t output_dim, bool activation,
                           Rng* rng)
    : activation_(activation),
      edge_feature_dim_(edge_feature_dim),
      w_self_(ag::Param(Tensor::GlorotUniform(input_dim, output_dim, rng))),
      w_nbr_(ag::Param(Tensor::GlorotUniform(input_dim + edge_feature_dim,
                                             output_dim, rng))),
      bias_(ag::Param(Tensor::Zeros(1, output_dim))) {
  INFERTURBO_CHECK(edge_feature_dim > 0)
      << "EdgeSageConv needs edge features; use SageConv otherwise";
  signature_.layer_type = "edge_sage";
  signature_.agg_kind = AggKind::kMean;
  signature_.input_dim = input_dim;
  signature_.output_dim = output_dim;
  signature_.message_dim = input_dim + edge_feature_dim;
  signature_.partial_gather = true;
  signature_.broadcastable_messages = false;  // varies per edge
  signature_.uses_edge_features = true;
}

Tensor EdgeSageConv::ComputeMessage(const Tensor& node_states) const {
  INFERTURBO_CHECK(node_states.cols() == signature_.input_dim)
      << "EdgeSageConv message input dim mismatch";
  return node_states;
}

Tensor EdgeSageConv::ApplyEdge(const Tensor& messages,
                               const Tensor* edge_features) const {
  INFERTURBO_CHECK(edge_features != nullptr &&
                   edge_features->rows() == messages.rows() &&
                   edge_features->cols() == edge_feature_dim_)
      << "EdgeSageConv::ApplyEdge needs aligned edge features";
  return ConcatCols(messages, *edge_features);
}

Tensor EdgeSageConv::ApplyNode(const Tensor& node_states,
                               const GatherResult& gathered) const {
  INFERTURBO_CHECK(gathered.kind == AggKind::kMean)
      << "EdgeSageConv expects mean-gathered messages";
  Tensor out = MatMul(node_states, w_self_->value);
  AddInPlace(&out, MatMul(gathered.pooled, w_nbr_->value));
  AddRowBroadcastInPlace(&out, bias_->value);
  if (activation_) ReluInPlace(&out);
  return out;
}

ag::VarPtr EdgeSageConv::ForwardAg(const ag::VarPtr& h,
                                   std::span<const std::int64_t> src_index,
                                   std::span<const std::int64_t> dst_index,
                                   std::int64_t num_nodes,
                                   const Tensor* edge_features) const {
  INFERTURBO_CHECK(edge_features != nullptr &&
                   edge_features->rows() ==
                       static_cast<std::int64_t>(src_index.size()))
      << "EdgeSageConv::ForwardAg needs per-edge features";
  ag::VarPtr messages = ag::GatherRows(
      h, std::vector<std::int64_t>(src_index.begin(), src_index.end()));
  messages = ag::ConcatCols(messages, ag::Constant(*edge_features));
  ag::VarPtr pooled = ag::SegmentMean(
      messages, std::vector<std::int64_t>(dst_index.begin(), dst_index.end()),
      num_nodes);
  ag::VarPtr out = ag::AddRowBroadcast(
      ag::Add(ag::MatMul(h, w_self_), ag::MatMul(pooled, w_nbr_)), bias_);
  return activation_ ? ag::Relu(out) : out;
}

std::vector<ag::VarPtr> EdgeSageConv::Parameters() const {
  return {w_self_, w_nbr_, bias_};
}

}  // namespace inferturbo

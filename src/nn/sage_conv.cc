#include "src/nn/sage_conv.h"

#include "src/common/logging.h"
#include "src/tensor/ops.h"

namespace inferturbo {

SageConv::SageConv(std::int64_t input_dim, std::int64_t output_dim,
                   bool activation, Rng* rng)
    : activation_(activation),
      w_self_(ag::Param(Tensor::GlorotUniform(input_dim, output_dim, rng))),
      w_nbr_(ag::Param(Tensor::GlorotUniform(input_dim, output_dim, rng))),
      bias_(ag::Param(Tensor::Zeros(1, output_dim))) {
  signature_.layer_type = "sage";
  signature_.agg_kind = AggKind::kMean;
  signature_.input_dim = input_dim;
  signature_.output_dim = output_dim;
  signature_.message_dim = input_dim;
  signature_.partial_gather = true;
  signature_.broadcastable_messages = true;
}

Tensor SageConv::ComputeMessage(const Tensor& node_states) const {
  INFERTURBO_CHECK(node_states.cols() == signature_.input_dim)
      << "SageConv message input dim " << node_states.cols() << " expected "
      << signature_.input_dim;
  return node_states;
}

Tensor SageConv::ApplyNode(const Tensor& node_states,
                           const GatherResult& gathered) const {
  INFERTURBO_CHECK(gathered.kind == AggKind::kMean)
      << "SageConv expects mean-gathered messages";
  Tensor out = MatMul(node_states, w_self_->value);
  AddInPlace(&out, MatMul(gathered.pooled, w_nbr_->value));
  AddRowBroadcastInPlace(&out, bias_->value);
  if (activation_) ReluInPlace(&out);
  return out;
}

ag::VarPtr SageConv::ForwardAg(const ag::VarPtr& h,
                               std::span<const std::int64_t> src_index,
                               std::span<const std::int64_t> dst_index,
                               std::int64_t num_nodes,
                               const Tensor* edge_features) const {
  (void)edge_features;
  // scatter_and_gather fused exactly as in the paper's Fig. 3: build
  // the (row-normalized) sparse adjacency once and mean-aggregate with
  // a single SpMM instead of materializing per-edge messages.
  CsrMatrix adjacency = CsrMatrix::FromEdges(num_nodes, dst_index,
                                             src_index);
  adjacency.NormalizeRows();  // sum -> mean
  ag::VarPtr pooled = ag::SparseMatMul(std::move(adjacency), h);
  ag::VarPtr out = ag::AddRowBroadcast(
      ag::Add(ag::MatMul(h, w_self_), ag::MatMul(pooled, w_nbr_)), bias_);
  return activation_ ? ag::Relu(out) : out;
}

std::vector<ag::VarPtr> SageConv::Parameters() const {
  return {w_self_, w_nbr_, bias_};
}

}  // namespace inferturbo

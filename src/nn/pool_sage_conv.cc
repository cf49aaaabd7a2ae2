#include "src/nn/pool_sage_conv.h"

#include "src/common/logging.h"
#include "src/tensor/ops.h"

namespace inferturbo {

PoolSageConv::PoolSageConv(std::int64_t input_dim, std::int64_t output_dim,
                           bool activation, Rng* rng)
    : activation_(activation),
      w_pool_(ag::Param(Tensor::GlorotUniform(input_dim, output_dim, rng))),
      b_pool_(ag::Param(Tensor::Zeros(1, output_dim))),
      w_self_(ag::Param(Tensor::GlorotUniform(input_dim, output_dim, rng))),
      w_nbr_(ag::Param(Tensor::GlorotUniform(output_dim, output_dim, rng))),
      bias_(ag::Param(Tensor::Zeros(1, output_dim))) {
  signature_.layer_type = "pool_sage";
  signature_.agg_kind = AggKind::kMax;
  signature_.input_dim = input_dim;
  signature_.output_dim = output_dim;
  // The pooled message is the *transformed* source state.
  signature_.message_dim = output_dim;
  signature_.partial_gather = true;
  signature_.broadcastable_messages = true;
}

Tensor PoolSageConv::ComputeMessage(const Tensor& node_states) const {
  INFERTURBO_CHECK(node_states.cols() == signature_.input_dim)
      << "PoolSageConv message input dim mismatch";
  Tensor messages = MatMul(node_states, w_pool_->value);
  AddRowBroadcastInPlace(&messages, b_pool_->value);
  ReluInPlace(&messages);
  return messages;
}

Tensor PoolSageConv::ApplyNode(const Tensor& node_states,
                               const GatherResult& gathered) const {
  INFERTURBO_CHECK(gathered.kind == AggKind::kMax)
      << "PoolSageConv expects max-gathered messages";
  Tensor out = MatMul(node_states, w_self_->value);
  AddInPlace(&out, MatMul(gathered.pooled, w_nbr_->value));
  AddRowBroadcastInPlace(&out, bias_->value);
  if (activation_) ReluInPlace(&out);
  return out;
}

ag::VarPtr PoolSageConv::ForwardAg(const ag::VarPtr& h,
                                   std::span<const std::int64_t> src_index,
                                   std::span<const std::int64_t> dst_index,
                                   std::int64_t num_nodes,
                                   const Tensor* edge_features) const {
  (void)edge_features;
  ag::VarPtr transformed = ag::Relu(
      ag::AddRowBroadcast(ag::MatMul(h, w_pool_), b_pool_));
  ag::VarPtr messages = ag::GatherRows(
      transformed,
      std::vector<std::int64_t>(src_index.begin(), src_index.end()));
  ag::VarPtr pooled = ag::SegmentMax(
      messages, std::vector<std::int64_t>(dst_index.begin(), dst_index.end()),
      num_nodes);
  ag::VarPtr out = ag::AddRowBroadcast(
      ag::Add(ag::MatMul(h, w_self_), ag::MatMul(pooled, w_nbr_)), bias_);
  return activation_ ? ag::Relu(out) : out;
}

std::vector<ag::VarPtr> PoolSageConv::Parameters() const {
  return {w_pool_, b_pool_, w_self_, w_nbr_, bias_};
}

}  // namespace inferturbo

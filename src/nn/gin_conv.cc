#include "src/nn/gin_conv.h"

#include "src/common/logging.h"
#include "src/tensor/ops.h"

namespace inferturbo {

GinConv::GinConv(std::int64_t input_dim, std::int64_t output_dim,
                 bool activation, Rng* rng)
    : activation_(activation),
      eps_(ag::Param(Tensor::Zeros(1, 1))),
      w1_(ag::Param(Tensor::GlorotUniform(input_dim, output_dim, rng))),
      b1_(ag::Param(Tensor::Zeros(1, output_dim))),
      w2_(ag::Param(Tensor::GlorotUniform(output_dim, output_dim, rng))),
      b2_(ag::Param(Tensor::Zeros(1, output_dim))) {
  signature_.layer_type = "gin";
  signature_.agg_kind = AggKind::kSum;
  signature_.input_dim = input_dim;
  signature_.output_dim = output_dim;
  signature_.message_dim = input_dim;
  signature_.partial_gather = true;
  signature_.broadcastable_messages = true;
}

Tensor GinConv::ComputeMessage(const Tensor& node_states) const {
  INFERTURBO_CHECK(node_states.cols() == signature_.input_dim)
      << "GinConv message input dim mismatch";
  return node_states;
}

Tensor GinConv::ApplyNode(const Tensor& node_states,
                          const GatherResult& gathered) const {
  INFERTURBO_CHECK(gathered.kind == AggKind::kSum)
      << "GinConv expects sum-gathered messages";
  const float scale = 1.0f + eps_->value.At(0, 0);
  Tensor combined = Scale(node_states, scale);
  AddInPlace(&combined, gathered.pooled);
  Tensor hidden = MatMul(combined, w1_->value);
  AddRowBroadcastInPlace(&hidden, b1_->value);
  ReluInPlace(&hidden);
  Tensor out = MatMul(hidden, w2_->value);
  AddRowBroadcastInPlace(&out, b2_->value);
  if (activation_) ReluInPlace(&out);
  return out;
}

ag::VarPtr GinConv::ForwardAg(const ag::VarPtr& h,
                              std::span<const std::int64_t> src_index,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes,
                              const Tensor* edge_features) const {
  (void)edge_features;
  ag::VarPtr messages = ag::GatherRows(
      h, std::vector<std::int64_t>(src_index.begin(), src_index.end()));
  ag::VarPtr pooled = ag::SegmentSum(
      messages, std::vector<std::int64_t>(dst_index.begin(), dst_index.end()),
      num_nodes);
  // (1 + eps) * h via a column-broadcast against a ones column scaled
  // by the trainable epsilon: h + MulColBroadcast(h, eps * ones).
  Tensor ones(h->value.rows(), 1);
  for (std::int64_t r = 0; r < ones.rows(); ++r) ones.At(r, 0) = 1.0f;
  ag::VarPtr eps_column = ag::MatMul(ag::Constant(std::move(ones)), eps_);
  ag::VarPtr combined =
      ag::Add(ag::Add(h, ag::MulColBroadcast(h, eps_column)), pooled);
  ag::VarPtr hidden = ag::Relu(
      ag::AddRowBroadcast(ag::MatMul(combined, w1_), b1_));
  ag::VarPtr out = ag::AddRowBroadcast(ag::MatMul(hidden, w2_), b2_);
  return activation_ ? ag::Relu(out) : out;
}

std::vector<ag::VarPtr> GinConv::Parameters() const {
  return {eps_, w1_, b1_, w2_, b2_};
}

}  // namespace inferturbo

#include "src/nn/gat_conv.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_ops.h"

namespace inferturbo {

GatConv::GatConv(std::int64_t input_dim, std::int64_t head_dim,
                 std::int64_t heads, bool activation, Rng* rng)
    : activation_(activation),
      heads_(heads),
      head_dim_(head_dim),
      weight_(
          ag::Param(Tensor::GlorotUniform(input_dim, heads * head_dim, rng))),
      bias_(ag::Param(Tensor::Zeros(1, heads * head_dim))) {
  for (std::int64_t h = 0; h < heads; ++h) {
    attn_src_.push_back(ag::Param(Tensor::GlorotUniform(head_dim, 1, rng)));
    attn_dst_.push_back(ag::Param(Tensor::GlorotUniform(head_dim, 1, rng)));
  }
  signature_.layer_type = "gat";
  signature_.agg_kind = AggKind::kUnion;
  signature_.input_dim = input_dim;
  signature_.output_dim = heads * head_dim;
  // Message = transformed state (heads*head_dim) plus one source-side
  // attention logit per head.
  signature_.message_dim = heads * head_dim + heads;
  signature_.partial_gather = false;  // @Gather(partial=False)
  signature_.broadcastable_messages = true;
}

Tensor GatConv::ComputeMessage(const Tensor& node_states) const {
  INFERTURBO_CHECK(node_states.cols() == signature_.input_dim)
      << "GatConv message input dim " << node_states.cols() << " expected "
      << signature_.input_dim;
  const Tensor z = MatMul(node_states, weight_->value);  // (n × H*D)
  Tensor message(node_states.rows(), signature_.message_dim);
  for (std::int64_t r = 0; r < z.rows(); ++r) {
    const float* pz = z.RowPtr(r);
    float* pm = message.RowPtr(r);
    for (std::int64_t j = 0; j < z.cols(); ++j) pm[j] = pz[j];
    for (std::int64_t h = 0; h < heads_; ++h) {
      const float* a = attn_src_[static_cast<std::size_t>(h)]->value.data();
      float s = 0.0f;
      for (std::int64_t d = 0; d < head_dim_; ++d) {
        s += pz[h * head_dim_ + d] * a[d];
      }
      pm[z.cols() + h] = s;
    }
  }
  return message;
}

Tensor GatConv::ApplyNode(const Tensor& node_states,
                          const GatherResult& gathered) const {
  INFERTURBO_CHECK(gathered.kind == AggKind::kUnion)
      << "GatConv expects union-gathered messages";
  const std::int64_t n = node_states.rows();
  const std::int64_t zcols = heads_ * head_dim_;
  // Message e is rows[e]: (H*D transformed source state, H logits).
  const std::vector<const float*>& rows = gathered.rows;
  const std::vector<std::int64_t>& dst = gathered.dst_index;
  const std::size_t num_msgs = rows.size();
  const auto heads = static_cast<std::size_t>(heads_);

  // Destination-side attention logits t[v,h] = a_dst_h · (W h_v)_h.
  const Tensor z_dst = MatMul(node_states, weight_->value);
  Tensor t(n, heads_);
  for (std::int64_t v = 0; v < n; ++v) {
    const float* pz = z_dst.RowPtr(v);
    float* pt = t.RowPtr(v);
    for (std::int64_t h = 0; h < heads_; ++h) {
      const float* a = attn_dst_[static_cast<std::size_t>(h)]->value.data();
      float s = 0.0f;
      for (std::int64_t d = 0; d < head_dim_; ++d) {
        s += pz[h * head_dim_ + d] * a[d];
      }
      pt[h] = s;
    }
  }

  // Per head: softmax(LeakyReLU(s_src + t_dst)) over each node's
  // in-messages, then the attention-weighted sum of the transformed
  // source states. Each pass walks the messages once and advances every
  // head; per (node, head) the float ops and their order are exactly
  // SegmentSoftmax's (running max, exp, double sum, divide) and then
  // the weighted sum's, so the bytes match a head-at-a-time evaluation.
  // score[e*H + h] holds the logit, then its exp.
  std::vector<float> score(num_msgs * heads);
  std::vector<float> seg_max(static_cast<std::size_t>(n) * heads,
                             -std::numeric_limits<float>::infinity());
  for (std::size_t e = 0; e < num_msgs; ++e) {
    const float* src_logit = rows[e] + zcols;
    const float* pt = t.RowPtr(dst[e]);
    float* ps = score.data() + e * heads;
    float* pmax = seg_max.data() + static_cast<std::size_t>(dst[e]) * heads;
    for (std::size_t h = 0; h < heads; ++h) {
      const float raw = src_logit[h] + pt[h];
      ps[h] = raw > 0.0f ? raw : kAttnSlope * raw;
      pmax[h] = std::max(pmax[h], ps[h]);
    }
  }
  std::vector<double> seg_sum(static_cast<std::size_t>(n) * heads, 0.0);
  for (std::size_t e = 0; e < num_msgs; ++e) {
    const std::size_t v = static_cast<std::size_t>(dst[e]) * heads;
    float* ps = score.data() + e * heads;
    for (std::size_t h = 0; h < heads; ++h) {
      ps[h] = std::exp(ps[h] - seg_max[v + h]);
      seg_sum[v + h] += ps[h];
    }
  }
  Tensor out(n, zcols);
  for (std::size_t e = 0; e < num_msgs; ++e) {
    const std::size_t v = static_cast<std::size_t>(dst[e]) * heads;
    const float* ps = score.data() + e * heads;
    float* po = out.RowPtr(dst[e]);
    for (std::size_t h = 0; h < heads; ++h) {
      const float w = ps[h] / static_cast<float>(seg_sum[v + h]);
      const float* pm = rows[e] + h * head_dim_;
      float* poh = po + h * head_dim_;
      for (std::int64_t d = 0; d < head_dim_; ++d) poh[d] += w * pm[d];
    }
  }
  // Nodes with no in-edges fall back to their own transformed state, so
  // isolated nodes still carry signal (standard self-attention escape).
  for (std::int64_t v = 0; v < n; ++v) {
    if (gathered.counts[static_cast<std::size_t>(v)] == 0) {
      out.SetRow(v, z_dst.RowPtr(v));
    }
  }
  AddRowBroadcastInPlace(&out, bias_->value);
  if (activation_) ReluInPlace(&out);
  return out;
}

ag::VarPtr GatConv::ForwardAg(const ag::VarPtr& h,
                              std::span<const std::int64_t> src_index,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes,
                              const Tensor* edge_features) const {
  (void)edge_features;
  std::vector<std::int64_t> src(src_index.begin(), src_index.end());
  std::vector<std::int64_t> dst(dst_index.begin(), dst_index.end());
  ag::VarPtr z = ag::MatMul(h, weight_);              // (n × H*D)
  ag::VarPtr z_src = ag::GatherRows(z, src);          // (E × H*D)
  ag::VarPtr z_dst = ag::GatherRows(z, dst);          // (E × H*D)

  // Per-node in-degree for the isolated-node fallback below.
  const std::vector<std::int64_t> counts = SegmentCounts(dst, num_nodes);
  Tensor isolated(num_nodes, 1);
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    isolated.At(v, 0) =
        counts[static_cast<std::size_t>(v)] == 0 ? 1.0f : 0.0f;
  }
  ag::VarPtr isolated_mask = ag::Constant(std::move(isolated));

  ag::VarPtr out;
  for (std::int64_t head = 0; head < heads_; ++head) {
    ag::VarPtr zh_src =
        ag::SliceCols(z_src, head * head_dim_, (head + 1) * head_dim_);
    ag::VarPtr zh_dst =
        ag::SliceCols(z_dst, head * head_dim_, (head + 1) * head_dim_);
    ag::VarPtr logits = ag::LeakyRelu(
        ag::Add(ag::MatMul(zh_src, attn_src_[static_cast<std::size_t>(head)]),
                ag::MatMul(zh_dst,
                           attn_dst_[static_cast<std::size_t>(head)])),
        kAttnSlope);
    ag::VarPtr alpha = ag::SegmentSoftmax(logits, dst, num_nodes);
    ag::VarPtr weighted = ag::MulColBroadcast(zh_src, alpha);
    ag::VarPtr pooled = ag::SegmentSum(weighted, dst, num_nodes);
    // Isolated nodes: pooled is zero there; add their own transformed
    // state masked in.
    ag::VarPtr zh =
        ag::SliceCols(z, head * head_dim_, (head + 1) * head_dim_);
    pooled = ag::Add(pooled, ag::MulColBroadcast(zh, isolated_mask));
    out = out ? ag::ConcatCols(out, pooled) : pooled;
  }
  out = ag::AddRowBroadcast(out, bias_);
  return activation_ ? ag::Relu(out) : out;
}

std::vector<ag::VarPtr> GatConv::Parameters() const {
  std::vector<ag::VarPtr> params{weight_, bias_};
  params.insert(params.end(), attn_src_.begin(), attn_src_.end());
  params.insert(params.end(), attn_dst_.begin(), attn_dst_.end());
  return params;
}

}  // namespace inferturbo

#ifndef INFERTURBO_NN_EDGE_SAGE_CONV_H_
#define INFERTURBO_NN_EDGE_SAGE_CONV_H_

#include "src/common/rng.h"
#include "src/gas/gas_conv.h"

namespace inferturbo {

/// GraphSAGE-style convolution whose messages carry *edge features* —
/// the paper's full message signature m = M(h_v, h_u, e_vu) (§II-B) and
/// its Fig. 3 `apply_edge = Merge(message, edge_state)`:
///
///   m_uv  = [h_u || e_uv]                (apply_edge: concat merge)
///   agg_v = mean_{u->v} m_uv             (aggregate: kMean, lawful)
///   h'_v  = act(W_self h_v + W_nbr agg_v + b)
///
/// Because the message differs per out-edge, broadcastable_messages is
/// false — the broadcast strategy cannot compress it (the situation the
/// paper built shadow-nodes for) — while partial-gather still applies.
class EdgeSageConv : public GasConv {
 public:
  EdgeSageConv(std::int64_t input_dim, std::int64_t edge_feature_dim,
               std::int64_t output_dim, bool activation, Rng* rng);

  const LayerSignature& signature() const override { return signature_; }

  Tensor ComputeMessage(const Tensor& node_states) const override;
  bool MessageIsState() const override { return true; }
  /// Concatenates each message row with its edge's feature row.
  Tensor ApplyEdge(const Tensor& messages,
                   const Tensor* edge_features) const override;
  Tensor ApplyNode(const Tensor& node_states,
                   const GatherResult& gathered) const override;

  ag::VarPtr ForwardAg(const ag::VarPtr& h,
                       std::span<const std::int64_t> src_index,
                       std::span<const std::int64_t> dst_index,
                       std::int64_t num_nodes,
                       const Tensor* edge_features) const override;
  std::vector<ag::VarPtr> Parameters() const override;

 private:
  LayerSignature signature_;
  bool activation_;
  std::int64_t edge_feature_dim_;
  ag::VarPtr w_self_;
  ag::VarPtr w_nbr_;  ///< ((input_dim + edge_feature_dim) × output_dim)
  ag::VarPtr bias_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_NN_EDGE_SAGE_CONV_H_

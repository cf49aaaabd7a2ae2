#ifndef INFERTURBO_NN_SAGE_CONV_H_
#define INFERTURBO_NN_SAGE_CONV_H_

#include "src/common/rng.h"
#include "src/gas/gas_conv.h"

namespace inferturbo {

/// GraphSAGE (mean aggregator) in the GAS-like abstraction, matching
/// the paper's Fig. 3 SAGEConv:
///
///   aggregate  = mean over in-messages          (commutative+assoc ->
///                eligible for partial-gather / combiners)
///   apply_node = act(W_self h + W_nbr mean + b)
///   apply_edge = identity (message is the source state, identical on
///                every out-edge -> broadcastable)
class SageConv : public GasConv {
 public:
  /// `activation`: apply ReLU to the output (off for a model's last
  /// GNN layer when logits feed a head directly).
  SageConv(std::int64_t input_dim, std::int64_t output_dim, bool activation,
           Rng* rng);

  const LayerSignature& signature() const override { return signature_; }

  Tensor ComputeMessage(const Tensor& node_states) const override;
  bool MessageIsState() const override { return true; }
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
  ag::VarPtr w_self_;
  ag::VarPtr w_nbr_;
  ag::VarPtr bias_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_NN_SAGE_CONV_H_

#ifndef INFERTURBO_NN_GIN_CONV_H_
#define INFERTURBO_NN_GIN_CONV_H_

#include "src/common/rng.h"
#include "src/gas/gas_conv.h"

namespace inferturbo {

/// Graph Isomorphism Network (GIN, Xu et al. 2019) convolution in the
/// GAS-like abstraction:
///
///   h'_v = MLP( (1 + eps) * h_v + Σ_{u->v} h_u )
///
/// The aggregate is a plain *sum* — the canonical lawful monoid — so
/// this layer exercises the kSum partial-gather/combiner path end to
/// end (SAGE/GCN use mean, GAT uses union). `eps` is a trainable
/// scalar, as in the original paper. The MLP is Linear-ReLU-Linear.
class GinConv : public GasConv {
 public:
  GinConv(std::int64_t input_dim, std::int64_t output_dim, bool activation,
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
  ag::VarPtr eps_;  ///< 1x1 trainable epsilon
  ag::VarPtr w1_;
  ag::VarPtr b1_;
  ag::VarPtr w2_;
  ag::VarPtr b2_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_NN_GIN_CONV_H_

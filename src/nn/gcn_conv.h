#ifndef INFERTURBO_NN_GCN_CONV_H_
#define INFERTURBO_NN_GCN_CONV_H_

#include "src/common/rng.h"
#include "src/gas/gas_conv.h"

namespace inferturbo {

/// GCN-style convolution in the GAS-like abstraction, using mean
/// normalization over the closed in-neighborhood:
///
///   h'_v = act( W · mean({h_u : u -> v} ∪ {h_v}) + b )
///
/// (The original GCN's symmetric sqrt-degree normalization needs both
/// endpoints' degrees on every edge; the mean form keeps the aggregate
/// a lawful monoid — the property the paper's aggregate stage requires —
/// and is the variant common in industrial full-batch deployments.)
class GcnConv : public GasConv {
 public:
  GcnConv(std::int64_t input_dim, std::int64_t output_dim, bool activation,
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
  ag::VarPtr weight_;
  ag::VarPtr bias_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_NN_GCN_CONV_H_

#include "src/nn/model.h"

#include <cstdio>
#include <fstream>

#include "src/common/logging.h"
#include "src/nn/edge_sage_conv.h"
#include "src/nn/gat_conv.h"
#include "src/nn/gcn_conv.h"
#include "src/nn/gin_conv.h"
#include "src/nn/pool_sage_conv.h"
#include "src/nn/sage_conv.h"
#include "src/tensor/ops.h"

namespace inferturbo {

GnnModel::GnnModel(std::vector<std::unique_ptr<GasConv>> layers,
                   std::int64_t num_classes, Rng* rng)
    : layers_(std::move(layers)), num_classes_(num_classes) {
  INFERTURBO_CHECK(!layers_.empty()) << "GnnModel needs at least one layer";
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    INFERTURBO_CHECK(layers_[i - 1]->signature().output_dim ==
                     layers_[i]->signature().input_dim)
        << "layer " << i << " input dim mismatch";
  }
  const std::int64_t emb = layers_.back()->signature().output_dim;
  head_weight_ = ag::Param(Tensor::GlorotUniform(emb, num_classes, rng));
  head_bias_ = ag::Param(Tensor::Zeros(1, num_classes));
}

Tensor GnnModel::PredictLogits(const Tensor& final_states) const {
  Tensor logits = MatMul(final_states, head_weight_->value);
  AddRowBroadcastInPlace(&logits, head_bias_->value);
  return logits;
}

ag::VarPtr GnnModel::PredictLogitsAg(const ag::VarPtr& final_states) const {
  return ag::AddRowBroadcast(ag::MatMul(final_states, head_weight_),
                             head_bias_);
}

std::vector<ag::VarPtr> GnnModel::Parameters() const {
  std::vector<ag::VarPtr> params;
  for (const auto& layer : layers_) {
    const std::vector<ag::VarPtr> lp = layer->Parameters();
    params.insert(params.end(), lp.begin(), lp.end());
  }
  params.push_back(head_weight_);
  params.push_back(head_bias_);
  return params;
}

Status GnnModel::SaveSignatures(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  for (const auto& layer : layers_) {
    out << layer->signature().Serialize() << "\n";
  }
  out << "head in=" << embedding_dim() << " out=" << num_classes_ << "\n";
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Status GnnModel::SaveParameters(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path);
  const std::vector<ag::VarPtr> params = Parameters();
  const std::int64_t count = static_cast<std::int64_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const ag::VarPtr& p : params) {
    const std::int64_t rows = p->value.rows();
    const std::int64_t cols = p->value.cols();
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.ByteSize()));
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Status GnnModel::LoadParameters(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<ag::VarPtr> params = Parameters();
  std::int64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count != static_cast<std::int64_t>(params.size())) {
    return Status::IoError("parameter count mismatch in " + path);
  }
  for (ag::VarPtr& p : params) {
    std::int64_t rows = 0, cols = 0;
    in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!in || rows != p->value.rows() || cols != p->value.cols()) {
      return Status::IoError("parameter shape mismatch in " + path);
    }
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.ByteSize()));
    if (!in) return Status::IoError("truncated parameter file " + path);
  }
  return Status::OK();
}

namespace {

std::vector<std::int64_t> LayerDims(const ModelConfig& config) {
  std::vector<std::int64_t> dims;
  dims.push_back(config.input_dim);
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    dims.push_back(config.hidden_dim);
  }
  return dims;
}

}  // namespace

std::unique_ptr<GnnModel> MakeSageModel(const ModelConfig& config) {
  Rng rng(config.seed);
  const std::vector<std::int64_t> dims = LayerDims(config);
  std::vector<std::unique_ptr<GasConv>> layers;
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers.push_back(std::make_unique<SageConv>(
        dims[static_cast<std::size_t>(i)],
        dims[static_cast<std::size_t>(i) + 1], /*activation=*/true, &rng));
  }
  return std::make_unique<GnnModel>(std::move(layers), config.num_classes,
                                    &rng);
}

std::unique_ptr<GnnModel> MakeGcnModel(const ModelConfig& config) {
  Rng rng(config.seed);
  const std::vector<std::int64_t> dims = LayerDims(config);
  std::vector<std::unique_ptr<GasConv>> layers;
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers.push_back(std::make_unique<GcnConv>(
        dims[static_cast<std::size_t>(i)],
        dims[static_cast<std::size_t>(i) + 1], /*activation=*/true, &rng));
  }
  return std::make_unique<GnnModel>(std::move(layers), config.num_classes,
                                    &rng);
}

std::unique_ptr<GnnModel> MakeGatModel(const ModelConfig& config) {
  Rng rng(config.seed);
  INFERTURBO_CHECK(config.hidden_dim % config.heads == 0)
      << "GAT hidden_dim must be divisible by heads";
  const std::int64_t head_dim = config.hidden_dim / config.heads;
  std::vector<std::unique_ptr<GasConv>> layers;
  std::int64_t in = config.input_dim;
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers.push_back(std::make_unique<GatConv>(in, head_dim, config.heads,
                                               /*activation=*/true, &rng));
    in = config.hidden_dim;
  }
  return std::make_unique<GnnModel>(std::move(layers), config.num_classes,
                                    &rng);
}

std::unique_ptr<GnnModel> MakeGinModel(const ModelConfig& config) {
  Rng rng(config.seed);
  const std::vector<std::int64_t> dims = LayerDims(config);
  std::vector<std::unique_ptr<GasConv>> layers;
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers.push_back(std::make_unique<GinConv>(
        dims[static_cast<std::size_t>(i)],
        dims[static_cast<std::size_t>(i) + 1], /*activation=*/true, &rng));
  }
  return std::make_unique<GnnModel>(std::move(layers), config.num_classes,
                                    &rng);
}

std::unique_ptr<GnnModel> MakePoolSageModel(const ModelConfig& config) {
  Rng rng(config.seed);
  const std::vector<std::int64_t> dims = LayerDims(config);
  std::vector<std::unique_ptr<GasConv>> layers;
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers.push_back(std::make_unique<PoolSageConv>(
        dims[static_cast<std::size_t>(i)],
        dims[static_cast<std::size_t>(i) + 1], /*activation=*/true, &rng));
  }
  return std::make_unique<GnnModel>(std::move(layers), config.num_classes,
                                    &rng);
}

std::unique_ptr<GnnModel> MakeEdgeSageModel(const ModelConfig& config) {
  Rng rng(config.seed);
  INFERTURBO_CHECK(config.edge_feature_dim > 0)
      << "edge_sage needs config.edge_feature_dim";
  const std::vector<std::int64_t> dims = LayerDims(config);
  std::vector<std::unique_ptr<GasConv>> layers;
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers.push_back(std::make_unique<EdgeSageConv>(
        dims[static_cast<std::size_t>(i)], config.edge_feature_dim,
        dims[static_cast<std::size_t>(i) + 1], /*activation=*/true, &rng));
  }
  return std::make_unique<GnnModel>(std::move(layers), config.num_classes,
                                    &rng);
}

Result<std::unique_ptr<GnnModel>> MakeModel(const std::string& kind,
                                            const ModelConfig& config) {
  if (kind == "sage") return MakeSageModel(config);
  if (kind == "gcn") return MakeGcnModel(config);
  if (kind == "gat") return MakeGatModel(config);
  if (kind == "gin") return MakeGinModel(config);
  if (kind == "pool_sage") return MakePoolSageModel(config);
  if (kind == "edge_sage") return MakeEdgeSageModel(config);
  return Status::InvalidArgument("unknown model kind: '" + kind + "'");
}

}  // namespace inferturbo

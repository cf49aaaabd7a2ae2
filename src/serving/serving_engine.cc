#include "src/serving/serving_engine.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "src/common/logging.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/tensor/ops.h"

namespace inferturbo {

namespace {

constexpr std::int64_t kChunkRows = ChunkedRows::kChunkRows;

std::int64_t ChunkCount(std::int64_t rows) {
  return (rows + kChunkRows - 1) / kChunkRows;
}

}  // namespace

/// kChunkRows cached logits rows and their valid flags. Cached bytes
/// are a pure function of (final state row, model), so concurrent
/// fills write identical rows.
struct ServingGeneration::LogitsChunk {
  explicit LogitsChunk(std::int64_t num_classes)
      : logits(static_cast<std::size_t>(kChunkRows * num_classes)) {}

  std::vector<float> logits;
  std::array<std::uint8_t, kChunkRows> valid{};  // 1 = row is live
};

std::shared_ptr<const Graph> ServingGeneration::Compacted() const {
  std::lock_guard<std::mutex> lock(compacted_mu_);
  if (!compacted_) {
    Result<Graph> graph = graph_.Compact(states_[0].ToTensor());
    INFERTURBO_CHECK(graph.ok()) << graph.status().ToString();
    compacted_ = std::make_shared<const Graph>(std::move(graph).ValueOrDie());
  }
  return compacted_;
}

ServingEngine::ServingEngine(const GnnModel* model, Graph graph,
                             const ServingOptions& options)
    : model_(model), options_(options) {
  auto base = std::make_shared<const Graph>(std::move(graph));
  LayerStates states = ComputeLayerStates(*model_, *base);
  Init(std::move(base), std::move(states));
}

ServingEngine::ServingEngine(const GnnModel* model, Graph graph,
                             LayerStates states,
                             const ServingOptions& options)
    : model_(model), options_(options) {
  Init(std::make_shared<const Graph>(std::move(graph)), std::move(states));
}

void ServingEngine::Init(std::shared_ptr<const Graph> base,
                         LayerStates states) {
  auto gen = std::make_shared<Generation>();
  gen->epoch_ = 0;
  gen->graph_ = OverlayGraph(base);
  // Layer 0 is the base graph's own feature matrix, not a copy.
  gen->states_.push_back(ChunkedRows::View(base->node_features(), base));
  for (std::size_t l = 1; l < states.states.size(); ++l) {
    auto owned = std::make_shared<const Tensor>(std::move(states.states[l]));
    gen->states_.push_back(ChunkedRows::View(*owned, owned));
  }
  if (options_.cache_logits) {
    gen->cache_.resize(static_cast<std::size_t>(ChunkCount(base->num_nodes())));
    for (auto& chunk : gen->cache_) {
      chunk = std::make_shared<Generation::LogitsChunk>(model_->num_classes());
    }
  }
  gen->compacted_ = std::move(base);
  generation_ = std::move(gen);

  MetricRegistry& registry = GlobalMetrics();
  query_seconds_ = registry.GetHistogram("serving/query_seconds");
  batch_occupancy_ = registry.GetHistogram("serving/batch_occupancy");
  batch_unique_nodes_ = registry.GetHistogram("serving/batch_unique_nodes");
  delta_seconds_ = registry.GetHistogram("serving/delta_seconds");
  delta_cone_nodes_ = registry.GetHistogram("serving/delta_cone_nodes");
  delta_cone_in_edges_ = registry.GetHistogram("serving.delta_cone_in_edges");

  RequestBatcher::Options batcher_options;
  batcher_options.window_seconds = options_.batch_window_seconds;
  batcher_options.max_batch = options_.max_batch;
  batcher_ = std::make_unique<RequestBatcher>(
      [this](const std::vector<BatchedQuery*>& batch) {
        ExecuteBatch(batch);
      },
      batcher_options);
}

std::shared_ptr<const ServingEngine::Generation> ServingEngine::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(generation_mu_);
  return generation_;
}

void ServingEngine::Publish(std::shared_ptr<const Generation> next) {
  RecordFlightEvent(FlightEventKind::kGenerationSwap, "serving/publish",
                    next->epoch());
  std::lock_guard<std::mutex> lock(generation_mu_);
  generation_ = std::move(next);
}

std::int64_t ServingEngine::epoch() const { return Snapshot()->epoch(); }

std::shared_ptr<const Graph> ServingEngine::graph_snapshot() const {
  return Snapshot()->Compacted();
}

std::shared_ptr<const ServingGeneration> ServingEngine::Pin() const {
  return Snapshot();
}

Result<QueryResponse> ServingEngine::Query(std::vector<NodeId> nodes) {
  WallTimer timer;
  Result<QueryResponse> response = batcher_->Submit(std::move(nodes));
  queries_.fetch_add(1, std::memory_order_relaxed);
  query_seconds_->Observe(timer.ElapsedSeconds());
  return response;
}

void ServingEngine::ExecuteBatch(const std::vector<BatchedQuery*>& batch) {
  const std::shared_ptr<const Generation> gen = Snapshot();
  const std::int64_t num_nodes = gen->num_nodes();
  const std::int64_t num_classes = model_->num_classes();

  // Validate per query; an out-of-range id fails only its own query.
  // The union of valid queries' nodes is the mini-superstep's frontier.
  std::vector<char> valid(batch.size(), 1);
  std::vector<std::int64_t> unique_nodes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (NodeId v : batch[i]->nodes) {
      if (v < 0 || v >= num_nodes) {
        batch[i]->response = Status::InvalidArgument(
            "queried node " + std::to_string(v) + " outside [0," +
            std::to_string(num_nodes) + ") at epoch " +
            std::to_string(gen->epoch()));
        valid[i] = 0;
        break;
      }
    }
    if (valid[i]) {
      unique_nodes.insert(unique_nodes.end(), batch[i]->nodes.begin(),
                          batch[i]->nodes.end());
    }
  }
  std::sort(unique_nodes.begin(), unique_nodes.end());
  unique_nodes.erase(std::unique(unique_nodes.begin(), unique_nodes.end()),
                     unique_nodes.end());

  batch_occupancy_->Observe(static_cast<double>(batch.size()));
  batch_unique_nodes_->Observe(static_cast<double>(unique_nodes.size()));

  const auto cached_row = [&gen, num_classes](std::int64_t v) {
    Generation::LogitsChunk& chunk =
        *gen->cache_[static_cast<std::size_t>(v / kChunkRows)];
    return std::pair<float*, std::uint8_t*>(
        chunk.logits.data() + (v % kChunkRows) * num_classes,
        &chunk.valid[static_cast<std::size_t>(v % kChunkRows)]);
  };

  // The head pass covers only the cache-missing frontier rows; each
  // logits row depends only on its own final-state row, so subset
  // computation stays bit-identical to a full-matrix pass.
  std::vector<std::int64_t> misses;
  if (options_.cache_logits) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (std::int64_t v : unique_nodes) {
      if (!*cached_row(v).second) misses.push_back(v);
    }
  } else {
    misses = unique_nodes;
  }
  Tensor computed;
  if (!misses.empty()) {
    computed = model_->PredictLogits(gen->states_.back().Gather(misses));
  }
  cache_hits_.fetch_add(
      static_cast<std::int64_t>(unique_nodes.size() - misses.size()),
      std::memory_order_relaxed);
  cache_misses_.fetch_add(static_cast<std::int64_t>(misses.size()),
                          std::memory_order_relaxed);

  const auto computed_row = [&](std::int64_t v) -> const float* {
    const auto it = std::lower_bound(misses.begin(), misses.end(), v);
    return computed.RowPtr(
        static_cast<std::int64_t>(it - misses.begin()));
  };

  const auto fill_response = [&](BatchedQuery* query,
                                 const auto& row_for_node) {
    QueryResponse response;
    response.epoch = gen->epoch();
    response.logits =
        Tensor(static_cast<std::int64_t>(query->nodes.size()), num_classes);
    for (std::size_t i = 0; i < query->nodes.size(); ++i) {
      response.logits.SetRow(static_cast<std::int64_t>(i),
                             row_for_node(query->nodes[i]));
    }
    query->response = std::move(response);
  };

  if (options_.cache_logits) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (std::size_t i = 0; i < misses.size(); ++i) {
      const auto [row, row_valid] = cached_row(misses[i]);
      std::memcpy(row, computed.RowPtr(static_cast<std::int64_t>(i)),
                  static_cast<std::size_t>(num_classes) * sizeof(float));
      *row_valid = 1;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!valid[i]) continue;
      fill_response(batch[i], [&](NodeId v) -> const float* {
        return cached_row(v).first;
      });
    }
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!valid[i]) continue;
      fill_response(batch[i], computed_row);
    }
  }
}

Result<DeltaApplied> ServingEngine::ApplyMutation(
    const GraphMutation& mutation) {
  // Deltas serialize: the overlay must extend the graph that is still
  // current when the new generation publishes.
  std::lock_guard<std::mutex> delta_lock(delta_mu_);
  const std::shared_ptr<const Generation> current = Snapshot();
  TraceSpan span("serving/delta");
  const WallTimer timer;

  const std::int64_t old_n = current->num_nodes();
  const std::int64_t dim = current->states(0).cols();
  const std::int64_t new_n =
      old_n + static_cast<std::int64_t>(mutation.new_node_features.size());
  for (const auto& [v, row] : mutation.feature_updates) {
    if (v < 0 || v >= old_n) {
      return Status::InvalidArgument("feature update for node " +
                                     std::to_string(v) + " outside [0," +
                                     std::to_string(old_n) + ")");
    }
    if (static_cast<std::int64_t>(row.size()) != dim) {
      return Status::InvalidArgument("feature update row has " +
                                     std::to_string(row.size()) +
                                     " entries; feature_dim is " +
                                     std::to_string(dim));
    }
  }
  for (const std::vector<float>& row : mutation.new_node_features) {
    if (static_cast<std::int64_t>(row.size()) != dim) {
      return Status::InvalidArgument("new node feature row has " +
                                     std::to_string(row.size()) +
                                     " entries; feature_dim is " +
                                     std::to_string(dim));
    }
  }
  for (const auto& [src, dst] : mutation.new_edges) {
    if (src < 0 || src >= new_n || dst < 0 || dst >= new_n) {
      return Status::InvalidArgument(
          "new edge " + std::to_string(src) + " -> " + std::to_string(dst) +
          " references a node outside [0," + std::to_string(new_n) + ")");
    }
  }
  const std::int64_t edge_dim = current->graph().edge_feature_dim();
  if (edge_dim > 0) {
    if (mutation.new_edge_features.rows() !=
            static_cast<std::int64_t>(mutation.new_edges.size()) ||
        mutation.new_edge_features.cols() != edge_dim) {
      return Status::InvalidArgument(
          "graph carries edge features; the mutation must supply one row "
          "per new edge with matching width");
    }
  } else if (!mutation.new_edge_features.empty()) {
    return Status::InvalidArgument(
        "edge features supplied for a graph without them");
  }

  OverlayGraph graph = current->graph().WithEdges(
      new_n, mutation.new_edges, mutation.new_edge_features);

  // The layer-0 patch: refreshed rows (the last one per node wins) and
  // the appended nodes' rows.
  std::vector<std::pair<NodeId, const float*>> rows;
  rows.reserve(mutation.feature_updates.size() +
               mutation.new_node_features.size());
  for (const auto& [v, row] : mutation.feature_updates) {
    rows.emplace_back(v, row.data());
  }
  for (std::size_t i = 0; i < mutation.new_node_features.size(); ++i) {
    rows.emplace_back(old_n + static_cast<std::int64_t>(i),
                      mutation.new_node_features[i].data());
  }
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  GraphDelta delta;
  std::vector<const float*> patch_rows;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i + 1 < rows.size() && rows[i + 1].first == rows[i].first) continue;
    delta.changed_nodes.push_back(rows[i].first);
    patch_rows.push_back(rows[i].second);
  }
  Tensor patch(static_cast<std::int64_t>(patch_rows.size()), dim);
  for (std::size_t i = 0; i < patch_rows.size(); ++i) {
    patch.SetRow(static_cast<std::int64_t>(i), patch_rows[i]);
  }
  ChunkedRows next_features =
      current->states(0).WithRows(new_n, delta.changed_nodes, patch);
  for (const auto& [src, dst] : mutation.new_edges) {
    delta.changed_in_edges.push_back(dst);
  }
  return ApplyDeltaLocked(current, std::move(graph), std::move(next_features),
                          delta, timer);
}

Result<DeltaApplied> ServingEngine::ApplyDeltaLocked(
    const std::shared_ptr<const Generation>& current, OverlayGraph graph,
    ChunkedRows features, const GraphDelta& delta, const WallTimer& timer) {
  const std::span<const ChunkedRows> history =
      std::span<const ChunkedRows>(current->states_).subspan(1);
  Result<DeltaPatches> patches =
      ComputeDeltaPatches(*model_, graph, features, history, delta);
  if (!patches.ok()) return patches.status();

  const std::int64_t new_n = graph.num_nodes();
  auto next = std::make_shared<Generation>();
  next->epoch_ = current->epoch() + 1;
  next->states_.reserve(current->states_.size());
  next->states_.push_back(std::move(features));
  for (std::size_t l = 0; l < history.size(); ++l) {
    const RowPatch& patch = patches->layers[l];
    next->states_.push_back(history[l].WithRows(new_n, patch.ids, patch.rows));
  }
  const std::vector<NodeId>& final_changed = patches->layers.back().ids;

  std::int64_t invalidated = 0;
  if (options_.cache_logits) {
    // Share every cache chunk the final-layer cone misses (unchanged
    // final states mean bit-identical logits); copy the ones it hits
    // and drop exactly the cone's rows (new nodes start invalid).
    next->cache_ = current->cache_;
    next->cache_.resize(static_cast<std::size_t>(ChunkCount(new_n)));
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    for (std::size_t i = 0; i < final_changed.size();) {
      const std::int64_t c = final_changed[i] / kChunkRows;
      std::shared_ptr<Generation::LogitsChunk>& chunk =
          next->cache_[static_cast<std::size_t>(c)];
      chunk = chunk ? std::make_shared<Generation::LogitsChunk>(*chunk)
                    : std::make_shared<Generation::LogitsChunk>(
                          model_->num_classes());
      for (; i < final_changed.size() && final_changed[i] / kChunkRows == c;
           ++i) {
        std::uint8_t& row_valid =
            chunk->valid[static_cast<std::size_t>(final_changed[i] %
                                                  kChunkRows)];
        invalidated += row_valid;
        row_valid = 0;
      }
    }
  }

  std::shared_ptr<const Graph> compacted;
  if (graph.NeedsCompaction()) {
    TraceSpan span("serving/compact");
    Result<Graph> rebuilt = graph.Compact(next->states_[0].ToTensor());
    if (!rebuilt.ok()) return rebuilt.status();
    compacted = std::make_shared<const Graph>(std::move(rebuilt).ValueOrDie());
    graph = OverlayGraph(compacted);
    next->states_[0] =
        ChunkedRows::View(compacted->node_features(), compacted);
  }
  next->graph_ = std::move(graph);
  next->compacted_ = std::move(compacted);

  DeltaApplied applied;
  applied.epoch = next->epoch();
  {
    TraceSpan span("serving/publish");
    Publish(std::move(next));
  }

  for (const RowPatch& patch : patches->layers) {
    applied.recomputed_per_layer.push_back(
        static_cast<std::int64_t>(patch.ids.size()));
    applied.recomputed_nodes += static_cast<std::int64_t>(patch.ids.size());
  }
  applied.cone_in_edges = patches->cone_in_edges;
  applied.invalidated_cache_rows = invalidated;
  applied.seconds = timer.ElapsedSeconds();

  deltas_.fetch_add(1, std::memory_order_relaxed);
  recomputed_nodes_.fetch_add(applied.recomputed_nodes,
                              std::memory_order_relaxed);
  invalidated_rows_.fetch_add(invalidated, std::memory_order_relaxed);
  delta_seconds_->Observe(applied.seconds);
  delta_cone_nodes_->Observe(static_cast<double>(applied.recomputed_nodes));
  delta_cone_in_edges_->Observe(static_cast<double>(applied.cone_in_edges));
  return applied;
}

ServingStats ServingEngine::stats() const {
  ServingStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.batches = batcher_->batches_executed();
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.deltas = deltas_.load(std::memory_order_relaxed);
  stats.epoch = epoch();
  stats.recomputed_nodes = recomputed_nodes_.load(std::memory_order_relaxed);
  stats.invalidated_cache_rows =
      invalidated_rows_.load(std::memory_order_relaxed);
  stats.query_p50_seconds = query_seconds_->Percentile(0.50);
  stats.query_p95_seconds = query_seconds_->Percentile(0.95);
  stats.query_p99_seconds = query_seconds_->Percentile(0.99);
  stats.mean_batch_occupancy =
      batch_occupancy_->count() > 0
          ? batch_occupancy_->sum() /
                static_cast<double>(batch_occupancy_->count())
          : 0.0;
  return stats;
}

}  // namespace inferturbo

#include "src/inference/inferturbo_mapreduce.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/checkpoint/checkpoint_store.h"
#include "src/common/binary_io.h"
#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/mapreduce/mapreduce_engine.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_pipeline.h"
#include "src/telemetry/flight_recorder.h"
#include "src/tensor/kernels/row_fold.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

/// The MR driver's only cross-round mutable state outside the dataflow
/// is the broadcast table. Keys are written sorted so the bytes are
/// deterministic (bit-identical resume contract).
std::string EncodeBroadcastTable(
    const std::unordered_map<NodeId, std::vector<float>>& table) {
  std::vector<NodeId> keys;
  keys.reserve(table.size());
  for (const auto& [key, row] : table) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  BinaryWriter out;
  out.PutU64(keys.size());
  for (const NodeId key : keys) {
    out.PutI64(key);
    out.PutFloats(table.at(key));
  }
  return out.Take();
}

Status DecodeBroadcastTable(
    std::string_view bytes,
    std::unordered_map<NodeId, std::vector<float>>* table) {
  BinaryReader in(bytes);
  std::uint64_t count = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetU64(&count));
  constexpr std::uint64_t kMinEntryBytes =
      sizeof(NodeId) + sizeof(std::uint64_t);
  if (count > bytes.size() / kMinEntryBytes + 1) {
    return Status::IoError("corrupt broadcast table count " +
                           std::to_string(count));
  }
  table->clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    NodeId key = 0;
    std::vector<float> row;
    INFERTURBO_RETURN_NOT_OK(in.GetI64(&key));
    INFERTURBO_RETURN_NOT_OK(in.GetFloats(&row));
    (*table)[key] = std::move(row);
  }
  if (!in.AtEnd()) {
    return Status::IoError("trailing bytes after broadcast table");
  }
  return Status::OK();
}

/// Record tags on the MapReduce dataflow.
enum RecordTag : std::int32_t {
  kSelfState = 1,   ///< floats = node's current embedding
  kOutEdges = 2,    ///< ids = out-neighbor node ids
  kInMessage = 3,   ///< floats = one in-edge message row, src = sender
  kPartialAgg = 4,  ///< floats = pooled sums, ids = {count}
  kRef = 5,         ///< broadcast reference, src = hub id
  kPrediction = 6,  ///< floats = logits row (final round output)
  kEmbedding = 7,   ///< floats = final-layer state (optional output)
};

/// Orchestrates the Map + k-Reduce pipeline. Reads the graph solely
/// through a GraphView, one partition per map instance — the driver
/// never needs the whole graph resident, which is what lets the same
/// code run in-memory and out-of-core with bit-identical output.
class MrInferenceDriver {
 public:
  MrInferenceDriver(const GraphView& view, const GnnModel& model,
                    const InferTurboOptions& options,
                    std::int64_t hub_threshold)
      : view_(view),
        model_(model),
        options_(options),
        hub_threshold_(hub_threshold) {
    for (std::int64_t l = 0; l < model.num_layers(); ++l) {
      ships_edge_features_ =
          ships_edge_features_ || model.layer(l).signature().uses_edge_features;
    }
    INFERTURBO_CHECK(!ships_edge_features_ || view.edge_feature_dim() > 0)
        << "model needs edge features the graph does not have";
    INFERTURBO_CHECK(view.num_partitions() == options.num_workers)
        << "view partitioning must match the worker count";
  }

  Result<Tensor> Run() {
    MapReduceJob::Options job_options;
    job_options.num_instances = options_.num_workers;
    job_options.cost_model = options_.cost_model;
    job_options.pool = options_.pool;
    job_options.spill_directory = options_.mr_spill_directory;
    job_options.fault_injector = options_.io_fault_injector;
    job_options.retry = options_.io_retry;
    // One supervisor for the whole job: quarantine decisions and
    // supervision counters span the map stage and every reduce round.
    TaskSupervisionOptions supervision = options_.supervision;
    supervision.pool = options_.pool;
    supervision.fault_plan = options_.fault_plan;
    TaskSupervisor supervisor(supervision);
    job_options.supervisor = &supervisor;
    MapReduceJob job(job_options);

    // Durable round checkpoints: stage 0 is the map, stage l+1 is
    // reduce round l; a checkpoint at stage s means stages <= s are
    // durable and a resumed process re-enters at stage s+1.
    std::optional<CheckpointStore> store;
    if (!options_.checkpoint_directory.empty()) {
      CheckpointStoreOptions store_options;
      store_options.directory = options_.checkpoint_directory;
      store_options.keep_last = options_.checkpoint_keep_last;
      store_options.fault_injector = options_.io_fault_injector;
      store_options.retry = options_.io_retry;
      Result<CheckpointStore> opened =
          CheckpointStore::Open(std::move(store_options));
      if (!opened.ok()) return opened.status();
      store.emplace(std::move(opened).ValueOrDie());
    }
    std::int64_t completed_stage = -1;  // nothing durable yet
    if (store && options_.resume_from) {
      Result<CheckpointData> latest = store->LoadLatest();
      if (latest.ok()) {
        RecordFlightEvent(FlightEventKind::kCheckpointRestore,
                          "mapreduce/resume", latest->step);
        INFERTURBO_RETURN_NOT_OK(job.RestoreDataflow(latest->engine_state));
        // The table is restored directly — not via FlushBroadcastStaging,
        // which would charge the side channel a second time (and touch
        // metrics steps a resumed job does not have yet).
        INFERTURBO_RETURN_NOT_OK(
            DecodeBroadcastTable(latest->driver_state, &broadcast_table_));
        completed_stage = latest->step;
      } else if (!latest.status().IsNotFound()) {
        return latest.status();
      }
      // NotFound: the job died before its first checkpoint — fresh run.
    }
    const auto save_checkpoint = [&](std::int64_t stage) {
      if (!store) return Status::OK();
      RecordFlightEvent(FlightEventKind::kCheckpointSave,
                        "mapreduce/checkpoint", stage);
      CheckpointData data;
      data.step = stage;
      data.engine_state = job.SerializeDataflow();
      data.driver_state = EncodeBroadcastTable(broadcast_table_);
      return store->Save(data);
    };
    const auto killed = [this](std::int64_t stage) {
      return options_.kill_switch && options_.kill_switch(stage)
                 ? Status::Aborted("job killed before stage " +
                                   std::to_string(stage) +
                                   " (simulated process death)")
                 : Status::OK();
    };

    if (completed_stage < 0) {
      INFERTURBO_RETURN_NOT_OK(killed(0));
      {
        // Double-buffered streaming for the map stage: the dedicated
        // loader thread fills partition p+1 while instance p computes,
        // handing off through an explicit ready-future (passthrough —
        // no thread — for in-memory views).
        ShardPipeline pipeline(
            view_, ShardPipelineOptions{options_.storage_pipeline_slots});
        pipeline_ = &pipeline;
        const Status map_status =
            job.RunMap([this](std::int64_t instance, MrEmitter* emitter) {
              MapStage(instance, emitter);
            });
        pipeline_ = nullptr;
        pipeline_stats_.Merge(pipeline.stats());
        INFERTURBO_RETURN_NOT_OK(map_status);
      }
      // MapFn cannot return a Status; partition-acquire failures (e.g.
      // a corrupt shard) land here instead of crashing the pool.
      {
        std::lock_guard<std::mutex> lock(map_error_mutex_);
        INFERTURBO_RETURN_NOT_OK(map_error_);
      }
      FlushBroadcastStaging(&job);
      INFERTURBO_RETURN_NOT_OK(save_checkpoint(0));
    }

    const std::int64_t num_layers = model_.num_layers();
    for (std::int64_t l = 0; l < num_layers; ++l) {
      const std::int64_t stage = l + 1;
      if (stage <= completed_stage) continue;  // already durable
      INFERTURBO_RETURN_NOT_OK(killed(stage));
      INFERTURBO_RETURN_NOT_OK(job.RunReduce(
          [this, l](const MrKeyGroups& groups, MrEmitter* emitter) {
            ReduceBlock(l, groups, emitter);
          }));
      FlushBroadcastStaging(&job);
      INFERTURBO_RETURN_NOT_OK(save_checkpoint(stage));
    }

    // Collect kPrediction (and optional kEmbedding) rows.
    const std::int64_t num_nodes = view_.num_nodes();
    Tensor logits(num_nodes, model_.num_classes());
    if (options_.export_embeddings) {
      embeddings_ = Tensor(num_nodes, model_.embedding_dim());
    }
    std::vector<bool> seen(static_cast<std::size_t>(num_nodes), false);
    for (const MrBlock& block : job.TakeOutputs()) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        const MrRecord record = block.record(i);
        const NodeId v = block.key(i);
        if (record.tag == kEmbedding) {
          embeddings_.SetRow(v, record.floats.data());
        } else if (record.tag == kPrediction) {
          logits.SetRow(v, record.floats.data());
          seen[static_cast<std::size_t>(v)] = true;
        }
      }
    }
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (!seen[static_cast<std::size_t>(v)]) {
        return Status::Internal("node " + std::to_string(v) +
                                " produced no prediction");
      }
    }
    metrics_ = job.metrics();
    metrics_.supervision = supervisor.metrics();
    return logits;
  }

  Tensor TakeEmbeddings() { return std::move(embeddings_); }

  JobMetrics TakeMetrics() { return std::move(metrics_); }
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

 private:
  /// A node's out-edges as the scatter reads them: destinations, plus
  /// their edge-feature rows when the model ships them.
  struct OutEdges {
    std::span<const std::int64_t> dst;
    std::span<const float> features;
  };

  /// The initialization stage: map instance p streams partition p of
  /// the view through the shard pipeline, whose loader thread is
  /// already filling p+1 while this instance computes. Raw features
  /// become layer-0 states; self-state, out-edge info, and layer-0
  /// messages enter the dataflow.
  void MapStage(std::int64_t instance, MrEmitter* emitter) {
    Result<PartitionSlice> acquired =
        pipeline_ != nullptr ? pipeline_->Acquire(instance)
                             : view_.AcquirePartition(instance);
    if (!acquired.ok()) {
      RecordMapError(acquired.status());
      return;
    }
    const PartitionSlice& slice = *acquired;
    const std::size_t n = slice.nodes.size();
    if (n == 0) return;
    const std::size_t fd =
        static_cast<std::size_t>(view_.feature_dim());
    const std::size_t efd =
        ships_edge_features_ ? static_cast<std::size_t>(view_.edge_feature_dim())
                             : 0;
    Tensor states(static_cast<std::int64_t>(n),
                  static_cast<std::int64_t>(fd));
    std::vector<OutEdges> out_edges(n);
    for (std::size_t i = 0; i < n; ++i) {
      states.SetRow(static_cast<std::int64_t>(i),
                    slice.node_features + i * fd);
      const std::size_t begin = static_cast<std::size_t>(slice.out_offsets[i]);
      const std::size_t degree =
          static_cast<std::size_t>(slice.out_offsets[i + 1]) - begin;
      out_edges[i].dst = slice.out_dst.subspan(begin, degree);
      if (efd > 0) {
        out_edges[i].features = std::span<const float>(
            slice.edge_features + begin * efd, degree * efd);
      }
      const NodeId v = slice.nodes[i];
      emitter->Emit(v, kSelfState, -1,
                    std::span<const float>(states.RowPtr(
                                               static_cast<std::int64_t>(i)),
                                           fd));
      emitter->Emit(v, kOutEdges, -1, out_edges[i].features,
                    out_edges[i].dst);
    }
    ScatterMessages(/*layer_index=*/0, slice.nodes, states, out_edges,
                    emitter);
  }

  void RecordMapError(const Status& status) {
    std::lock_guard<std::mutex> lock(map_error_mutex_);
    if (map_error_.ok()) map_error_ = status;
  }

  /// One GNN layer for a block of consecutive keys. Each key's values
  /// hold the node's previous state, its out-edges, and its gathered
  /// in-messages; the whole block runs through one reduce, one
  /// ApplyNode and one message (or logits) kernel call.
  void ReduceBlock(std::int64_t layer_index, const MrKeyGroups& groups,
                   MrEmitter* emitter) {
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    const AggKind kind = sig.agg_kind;
    const std::int64_t msg_dim = sig.message_dim;
    const std::size_t num_keys = groups.size();

    // First pass: locate each key's state and out-edges, count message
    // rows.
    std::vector<MrRecord> self(num_keys);
    std::vector<OutEdges> out_edges(num_keys);
    std::vector<NodeId> keys(num_keys);
    std::int64_t msg_rows = 0;
    bool any_partial = false;
    for (std::size_t g = 0; g < num_keys; ++g) {
      keys[g] = groups.key(g);
      for (const MrRecord v : groups.values(g)) {
        switch (v.tag) {
          case kSelfState:
            self[g] = v;
            break;
          case kOutEdges:
            out_edges[g] = OutEdges{v.ids, v.floats};
            break;
          case kInMessage:
          case kRef:
          case kPartialAgg:
            ++msg_rows;
            any_partial = any_partial || v.tag == kPartialAgg;
            break;
          case kPrediction:
            INFERTURBO_CHECK(false) << "prediction record in a reduce round";
        }
      }
      INFERTURBO_CHECK(self[g].tag == kSelfState)
          << "node " << keys[g] << " lost its self-state record";
    }
    INFERTURBO_CHECK(kind != AggKind::kUnion || !any_partial)
        << "union layer received a partial aggregate";

    // Segment g holds key g's message rows in ARRIVAL order, the fold
    // order both backends' bit-identity contract pins. Every kind reads
    // the records in place through the same builders the Pregel gather
    // uses: pooled kinds fold them, union hands their pointers on.
    const std::int64_t state_dim =
        static_cast<std::int64_t>(self[0].floats.size());
    Tensor states(static_cast<std::int64_t>(num_keys), state_dim);
    std::vector<std::int64_t> segs(static_cast<std::size_t>(msg_rows));
    std::vector<const float*> rows(static_cast<std::size_t>(msg_rows));
    std::vector<std::int64_t> counts;  // stays empty without partials
    if (any_partial) counts.assign(static_cast<std::size_t>(msg_rows), 1);
    std::size_t row_cursor = 0;
    for (std::size_t g = 0; g < num_keys; ++g) {
      INFERTURBO_CHECK(static_cast<std::int64_t>(self[g].floats.size()) ==
                       state_dim)
          << "node " << keys[g] << " state width differs within a block";
      states.SetRow(static_cast<std::int64_t>(g), self[g].floats.data());
      for (const MrRecord v : groups.values(g)) {
        if (v.tag != kInMessage && v.tag != kRef && v.tag != kPartialAgg) {
          continue;
        }
        std::span<const float> row = v.floats;
        if (v.tag == kRef) {
          const std::vector<float>* value = LookupBroadcast(v.src);
          INFERTURBO_CHECK(value != nullptr)
              << "missing broadcast value for hub " << v.src;
          row = *value;
        } else if (v.tag == kPartialAgg) {
          counts[row_cursor] = v.ids[0];
        }
        INFERTURBO_CHECK(static_cast<std::int64_t>(row.size()) == msg_dim)
            << "message record for node " << keys[g] << " has " << row.size()
            << " floats, not the message dim " << msg_dim;
        segs[row_cursor] = static_cast<std::int64_t>(g);
        rows[row_cursor] = row.data();
        ++row_cursor;
      }
    }

    const GatherResult gathered =
        kind == AggKind::kUnion
            ? GatherUnionRows(static_cast<std::int64_t>(num_keys),
                              std::move(segs), std::move(rows))
            : GatherPooledRows(kind, msg_dim,
                               static_cast<std::int64_t>(num_keys), segs,
                               rows, counts);
    const Tensor new_states = layer.ApplyNode(states, gathered);
    const std::size_t new_dim = static_cast<std::size_t>(new_states.cols());
    const auto state_row = [&](std::size_t g) {
      return std::span<const float>(
          new_states.RowPtr(static_cast<std::int64_t>(g)), new_dim);
    };

    if (layer_index + 1 == model_.num_layers()) {
      const Tensor logits = model_.PredictLogits(new_states);
      const std::size_t classes = static_cast<std::size_t>(logits.cols());
      for (std::size_t g = 0; g < num_keys; ++g) {
        emitter->Emit(keys[g], kPrediction, -1,
                      std::span<const float>(
                          logits.RowPtr(static_cast<std::int64_t>(g)),
                          classes));
        if (options_.export_embeddings) {
          emitter->Emit(keys[g], kEmbedding, -1, state_row(g));
        }
      }
      return;
    }

    // Re-emit persistent records and the next layer's messages.
    for (std::size_t g = 0; g < num_keys; ++g) {
      emitter->Emit(keys[g], kSelfState, -1, state_row(g));
      emitter->Emit(keys[g], kOutEdges, -1, out_edges[g].features,
                    out_edges[g].dst);
    }
    ScatterMessages(layer_index + 1, keys, new_states, out_edges, emitter);
  }

  /// Scatter for a batch of nodes: one ComputeMessage (and, for
  /// edge-featured layers, one ApplyEdge) call, then dense rows or
  /// broadcast refs for hubs. Identity messages are read from the
  /// states in place. Under partial gather each dense row folds into
  /// its destination's one kPartialAgg record as it is emitted, so the
  /// producer never holds a per-edge record; hub refs stay per edge.
  void ScatterMessages(std::int64_t layer_index,
                       std::span<const NodeId> nodes, const Tensor& states,
                       std::span<const OutEdges> out_edges,
                       MrEmitter* emitter) {
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    MrFoldFn fold = nullptr;
    if (options_.strategies.partial_gather && sig.partial_gather &&
        PartialGatherReduces(sig.agg_kind)) {
      fold = sig.agg_kind == AggKind::kMax   ? kernels::detail::RowMax()
             : sig.agg_kind == AggKind::kMin ? kernels::detail::RowMin()
                                             : kernels::detail::RowAdd();
    }
    const auto emit_row = [fold, emitter](NodeId d, NodeId src,
                                          std::span<const float> row) {
      fold != nullptr ? emitter->EmitFolded(d, kPartialAgg, row, fold)
                      : emitter->Emit(d, kInMessage, src, row);
    };
    Tensor computed;
    if (!layer.MessageIsState()) computed = layer.ComputeMessage(states);
    const Tensor& messages = layer.MessageIsState() ? states : computed;
    const std::size_t msg_cols = static_cast<std::size_t>(messages.cols());
    if (sig.uses_edge_features) {
      // apply_edge varies per out-edge: materialize every merged row of
      // the batch in one call, then emit each.
      std::int64_t total = 0;
      for (const OutEdges& edges : out_edges) {
        total += static_cast<std::int64_t>(edges.dst.size());
      }
      if (total == 0) return;
      const std::int64_t edge_dim = view_.edge_feature_dim();
      Tensor base(total, messages.cols());
      Tensor feats(total, edge_dim);
      std::int64_t row = 0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (std::size_t k = 0; k < out_edges[i].dst.size(); ++k, ++row) {
          base.SetRow(row, messages.RowPtr(static_cast<std::int64_t>(i)));
          feats.SetRow(row, out_edges[i].features.data() +
                                k * static_cast<std::size_t>(edge_dim));
        }
      }
      const Tensor merged = layer.ApplyEdge(base, &feats);
      const std::size_t merged_cols = static_cast<std::size_t>(merged.cols());
      row = 0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (const NodeId d : out_edges[i].dst) {
          emit_row(d, nodes[i],
                   std::span<const float>(merged.RowPtr(row++), merged_cols));
        }
      }
      return;
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      const std::span<const float> row(
          messages.RowPtr(static_cast<std::int64_t>(i)), msg_cols);
      const std::span<const std::int64_t> dst = out_edges[i].dst;
      const bool hub = options_.strategies.broadcast &&
                       sig.broadcastable_messages && hub_threshold_ > 0 &&
                       static_cast<std::int64_t>(dst.size()) > hub_threshold_;
      if (hub) {
        {
          // Idempotent under supervised duplicate attempts: both write
          // the same deterministic bytes for v, so last-write-wins is
          // byte-identical to exactly-once.
          std::lock_guard<std::mutex> lock(broadcast_mutex_);
          broadcast_staging_[v].assign(row.begin(), row.end());
        }
        for (const NodeId d : dst) emitter->Emit(d, kRef, v);
        continue;
      }
      for (const NodeId d : dst) emit_row(d, v, row);
    }
  }

  const std::vector<float>* LookupBroadcast(NodeId key) const {
    const auto it = broadcast_table_.find(key);
    return it == broadcast_table_.end() ? nullptr : &it->second;
  }

  /// Promotes this round's staged hub payloads to the readable table
  /// and charges the side channel: one copy to every other instance
  /// (the Spark-broadcast cost model).
  void FlushBroadcastStaging(MapReduceJob* job) {
    broadcast_table_ = std::move(broadcast_staging_);
    broadcast_staging_.clear();
    if (broadcast_table_.empty()) return;
    JobMetrics* metrics = job->mutable_metrics();
    const std::int64_t instances = job->num_instances();
    for (const auto& [key, row] : broadcast_table_) {
      const std::uint64_t wire = MessageBytes(row.size());
      const std::int64_t owner =
          MapReduceJob::InstanceForKey(key, instances);
      WorkerMetrics& w = metrics->workers[static_cast<std::size_t>(owner)];
      w.steps.back().bytes_out +=
          wire * static_cast<std::uint64_t>(instances - 1);
      w.steps.back().records_out += instances - 1;
      for (std::int64_t d = 0; d < instances; ++d) {
        if (d == owner) continue;
        WorkerMetrics& r = metrics->workers[static_cast<std::size_t>(d)];
        r.steps.back().bytes_in += wire;
        ++r.steps.back().records_in;
      }
    }
  }

  const GraphView& view_;
  const GnnModel& model_;
  const InferTurboOptions& options_;
  std::int64_t hub_threshold_;
  /// True when some layer's apply_edge consumes edge features, so the
  /// out-edge records must ship them between rounds.
  bool ships_edge_features_ = false;
  std::mutex map_error_mutex_;
  /// First failure from a map instance (MapFn cannot return Status).
  Status map_error_ = Status::OK();
  /// Live only while RunMap executes; MapStage acquires through it.
  ShardPipeline* pipeline_ = nullptr;
  PipelineStats pipeline_stats_;
  JobMetrics metrics_;
  Tensor embeddings_;

  std::mutex broadcast_mutex_;
  std::unordered_map<NodeId, std::vector<float>> broadcast_staging_;
  std::unordered_map<NodeId, std::vector<float>> broadcast_table_;
};

/// Runs the driver over `view` and packages the raw outputs (no
/// shadow-node remapping — callers that rewrote the graph trim after).
Result<InferenceResult> DriveView(const GraphView& view,
                                  const GnnModel& model,
                                  const InferTurboOptions& options,
                                  std::int64_t hub_threshold,
                                  PipelineStats* pipeline_stats = nullptr) {
  MrInferenceDriver driver(view, model, options, hub_threshold);
  Result<Tensor> logits = driver.Run();
  if (!logits.ok()) {
    // Unrecoverable dataflow failure: freeze the flight ring now, while
    // the retry/restore events leading here are still in it.
    DumpFlightRecordOnError("mapreduce: " + logits.status().ToString());
    return logits.status();
  }
  Tensor all_logits = std::move(*logits);
  InferenceResult result;
  result.logits = std::move(all_logits);
  result.embeddings = driver.TakeEmbeddings();
  result.predictions = ArgmaxRows(result.logits);
  result.metrics = driver.TakeMetrics();
  if (pipeline_stats != nullptr) {
    pipeline_stats->Merge(driver.pipeline_stats());
  }
  return result;
}

}  // namespace

Result<InferenceResult> RunInferTurboMapReduce(
    const Graph& graph, const GnnModel& model,
    const InferTurboOptions& options) {
  if (graph.feature_dim() != model.input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }

  const Graph* active = &graph;
  ShadowGraph shadow;
  const std::int64_t threshold = options.strategies.HubThreshold(
      graph.num_edges(), options.num_workers);
  if (options.strategies.shadow_nodes) {
    INFERTURBO_ASSIGN_OR_RETURN(shadow, ApplyShadowNodes(graph, threshold));
    active = &shadow.graph;
  }

  InMemoryGraphView view(*active, options.num_workers);
  INFERTURBO_ASSIGN_OR_RETURN(InferenceResult result,
                              DriveView(view, model, options, threshold));

  if (options.strategies.shadow_nodes) {
    // Shadow nodes are appended past the original id range: trim their
    // rows off the outputs.
    Tensor trimmed(graph.num_nodes(), result.logits.cols());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      trimmed.SetRow(v, result.logits.RowPtr(v));
    }
    result.logits = std::move(trimmed);
    if (!result.embeddings.empty()) {
      Tensor emb(graph.num_nodes(), result.embeddings.cols());
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        emb.SetRow(v, result.embeddings.RowPtr(v));
      }
      result.embeddings = std::move(emb);
    }
    result.predictions = ArgmaxRows(result.logits);
  }
  return result;
}

Result<InferenceResult> RunInferTurboMapReduce(
    const GraphView& view, const GnnModel& model,
    const InferTurboOptions& options) {
  // A view that is just a window onto a resident graph gains nothing
  // from the streaming path; reuse the Graph entry (which also keeps
  // shadow_nodes free of a materialize round trip).
  if (const Graph* resident = view.resident_graph()) {
    return RunInferTurboMapReduce(*resident, model, options);
  }
  if (view.feature_dim() != model.input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.num_workers != view.num_partitions()) {
    return Status::InvalidArgument(
        "num_workers (" + std::to_string(options.num_workers) +
        ") must equal the view's partition count (" +
        std::to_string(view.num_partitions()) +
        "): the shard partitioning is the worker assignment");
  }
  if (options.strategies.shadow_nodes) {
    // The shadow rewrite restructures topology globally; rebuild the
    // graph (bounded mapped bytes while building, pipelined so shard
    // I/O overlaps the rebuild), run the resident path, and still
    // report the storage work done.
    PipelineStats stats;
    MaterializeOptions materialize;
    materialize.pipeline_slots = options.storage_pipeline_slots;
    materialize.stats = &stats;
    INFERTURBO_ASSIGN_OR_RETURN(Graph graph,
                                MaterializeGraph(view, materialize));
    INFERTURBO_ASSIGN_OR_RETURN(
        InferenceResult result,
        RunInferTurboMapReduce(graph, model, options));
    result.metrics.storage = view.storage_metrics();
    stats.FoldInto(&result.metrics.storage);
    return result;
  }
  const std::int64_t threshold = options.strategies.HubThreshold(
      view.num_edges(), options.num_workers);
  PipelineStats stats;
  INFERTURBO_ASSIGN_OR_RETURN(
      InferenceResult result,
      DriveView(view, model, options, threshold, &stats));
  result.metrics.storage = view.storage_metrics();
  stats.FoldInto(&result.metrics.storage);
  return result;
}

}  // namespace inferturbo

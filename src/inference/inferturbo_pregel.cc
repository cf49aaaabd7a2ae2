#include "src/inference/inferturbo_pregel.h"

#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "src/checkpoint/checkpoint_store.h"
#include "src/common/binary_io.h"
#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/gas/superstep_gather.h"
#include "src/pregel/pregel_engine.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_pipeline.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/trace.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

/// Bit-exact tensor framing for durable checkpoints: shape + raw IEEE
/// float bytes.
void PutTensor(BinaryWriter* out, const Tensor& t) {
  out->PutI64(t.rows());
  out->PutI64(t.cols());
  out->PutBytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float));
}

Status GetTensor(BinaryReader* in, Tensor* t) {
  std::int64_t rows = 0, cols = 0;
  INFERTURBO_RETURN_NOT_OK(in->GetI64(&rows));
  INFERTURBO_RETURN_NOT_OK(in->GetI64(&cols));
  // Division bounds the payload without a product that could wrap.
  if (rows < 0 || cols < 0 ||
      (cols > 0 && static_cast<std::uint64_t>(rows) >
                       in->remaining() / sizeof(float) /
                           static_cast<std::uint64_t>(cols))) {
    return Status::IoError("corrupt tensor shape in checkpoint: " +
                           std::to_string(rows) + "x" + std::to_string(cols));
  }
  Tensor loaded(rows, cols);
  INFERTURBO_RETURN_NOT_OK(in->GetBytes(
      loaded.data(), static_cast<std::size_t>(loaded.size()) * sizeof(float)));
  *t = std::move(loaded);
  return Status::OK();
}

/// Per-worker resident state: the partition's node ids, their current
/// embeddings, and scratch for the gather stage.
struct WorkerState {
  std::vector<NodeId> nodes;  // global ids owned, ascending
  Tensor states;              // (nodes.size() × current_dim)
};

/// Sender-side partial gather for one scatter. Edges arrive in (node,
/// edge) order, each carrying a message row to node d; Send combines
/// each destination worker's edges with one CombineRows call, which
/// reads the rows in place and folds them straight into the partial
/// batch it sends. A slot is resolved without hashing, from d's worker
/// and local index through a dense table for that worker, so
/// first-seen destination order — and the partial batches' wire bytes
/// — match per-edge Add calls.
class PartialScatter {
 public:
  explicit PartialScatter(const PartitionAssignment& assignment)
      : assignment_(assignment), buckets_(assignment.members.size()) {
    for (std::size_t w = 0; w < buckets_.size(); ++w) {
      const std::size_t nodes = assignment.members[w].size();
      INFERTURBO_CHECK(nodes <= static_cast<std::size_t>(
                                    std::numeric_limits<std::int32_t>::max()))
          << "worker " << w << " owns too many nodes for an int32 slot";
      buckets_[w].slot_of.assign(nodes, -1);
    }
  }

  void Add(NodeId d, const float* row) {
    Bucket& b = buckets_[static_cast<std::size_t>(
        assignment_.partition_of[static_cast<std::size_t>(d)])];
    std::int32_t& slot = b.slot_of[static_cast<std::size_t>(
        assignment_.local_index[static_cast<std::size_t>(d)])];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(b.dst.size());
      b.dst.push_back(d);
    }
    b.slot.push_back(slot);
    b.row.push_back(row);
  }

  /// Sends the scatter's partial batches of `width`-float rows; call
  /// once, after every Add.
  void Send(PregelContext* ctx, AggKind kind, std::int64_t width) const {
    for (const Bucket& b : buckets_) {
      if (b.dst.empty()) continue;
      ctx->SendPartialBatch(
          CombineRows(kind, width, b.dst, b.slot, b.row, ctx->worker_id()));
    }
  }

 private:
  /// One destination worker's share of the scatter. slot_of[local
  /// index] is that node's slot among the scatter's destinations, -1
  /// when unseen, so the table is bounded by the worker's node count.
  struct Bucket {
    std::vector<std::int32_t> slot_of;
    std::vector<NodeId> dst;
    std::vector<std::int64_t> slot;
    std::vector<const float*> row;
  };

  const PartitionAssignment& assignment_;
  std::vector<Bucket> buckets_;
};

/// The vertex program closure. One instance shared by all workers; all
/// mutable state lives in per-worker slots.
class PregelInferenceDriver {
 public:
  PregelInferenceDriver(const Graph& graph, const GnnModel& model,
                        const InferTurboOptions& options,
                        const PartitionAssignment& assignment,
                        std::int64_t hub_threshold)
      : graph_(graph),
        model_(model),
        options_(options),
        assignment_(assignment),
        hub_threshold_(hub_threshold),
        logits_(graph.num_nodes(), model.num_classes()) {
    if (options.export_embeddings) {
      embeddings_ = Tensor(graph.num_nodes(), model.embedding_dim());
    }
    workers_.resize(static_cast<std::size_t>(options.num_workers));
    for (std::int64_t w = 0; w < options.num_workers; ++w) {
      workers_[static_cast<std::size_t>(w)].nodes =
          assignment.members[static_cast<std::size_t>(w)];
    }
  }

  void Compute(PregelContext* ctx) {
    WorkerState& worker = workers_[static_cast<std::size_t>(
        ctx->worker_id())];
    const std::int64_t step = ctx->superstep();
    const std::int64_t num_layers = model_.num_layers();

    // Deferred-commit contract: the compute below reads the superstep's
    // immutable inputs (inbox, board, worker.states as left by the
    // previous superstep) and computes into attempt-local tensors; the
    // writes into shared driver state (worker.states, logits_,
    // embeddings_) happen inside DeferToCommit callbacks, which the
    // engine runs only once the whole superstep's stage has committed.
    // That makes duplicate (speculative) attempts and superstep
    // re-execution safe: no attempt ever mutates what another reads.
    if (step == 0) {
      // Initialization superstep: raw features become layer-0 input
      // states, then scatter layer 0's messages.
      TraceSpan span("pregel/scatter", ctx->worker_id());
      auto states = std::make_shared<Tensor>(
          GatherRows(graph_.node_features(), worker.nodes));
      ctx->ChargeResidentBytes(states->ByteSize());
      ScatterLayer(ctx, worker.nodes, *states, 0);
      ctx->DeferToCommit(
          [&worker, states] { worker.states = std::move(*states); });
      return;
    }

    const std::int64_t layer_index = step - 1;
    const GasConv& layer = model_.layer(layer_index);
    GatherResult gathered;
    {
      TraceSpan span("pregel/gather", ctx->worker_id());
      gathered = GatherInbox(ctx, worker, layer);
    }
    // A union result's rows stay in the inbox and on the board; the
    // gather itself holds only its pointer, segment and count arrays.
    const std::uint64_t gathered_bytes =
        gathered.kind == AggKind::kUnion
            ? gathered.rows.size() * sizeof(const float*) +
                  (gathered.dst_index.size() + gathered.counts.size()) *
                      sizeof(std::int64_t)
            : gathered.pooled.ByteSize();
    const std::uint64_t old_state_bytes = worker.states.ByteSize();
    auto new_states = std::make_shared<Tensor>();
    {
      TraceSpan span("pregel/apply", ctx->worker_id());
      *new_states = layer.ApplyNode(worker.states, gathered);
    }
    // Old state, vectorized gather result, and new state coexist at
    // the apply_node boundary — the Pregel backend's resident cost.
    ctx->ChargeResidentBytes(old_state_bytes + gathered_bytes +
                             new_states->ByteSize());

    if (layer_index + 1 < num_layers) {
      TraceSpan span("pregel/scatter", ctx->worker_id());
      ScatterLayer(ctx, worker.nodes, *new_states, layer_index + 1);
      ctx->DeferToCommit(
          [&worker, new_states] { worker.states = std::move(*new_states); });
    } else {
      // Last superstep: fuse the prediction slice and emit results.
      TraceSpan span("pregel/scatter", ctx->worker_id());
      auto logits = std::make_shared<Tensor>(
          model_.PredictLogits(*new_states));
      ctx->DeferToCommit([this, &worker, new_states, logits] {
        for (std::size_t i = 0; i < worker.nodes.size(); ++i) {
          logits_.SetRow(worker.nodes[i],
                         logits->RowPtr(static_cast<std::int64_t>(i)));
          if (!embeddings_.empty()) {
            embeddings_.SetRow(
                worker.nodes[i],
                new_states->RowPtr(static_cast<std::int64_t>(i)));
          }
        }
        worker.states = std::move(*new_states);
      });
      ctx->VoteToHalt();
    }
  }

  Tensor TakeLogits() { return std::move(logits_); }
  Tensor TakeEmbeddings() { return std::move(embeddings_); }

  /// Checkpoint hooks: the driver's entire mutable state is the
  /// per-worker embeddings plus the result buffer.
  struct Snapshot {
    std::vector<WorkerState> workers;
    Tensor logits;
    Tensor embeddings;
  };
  std::shared_ptr<const void> SnapshotState() const {
    auto snap = std::make_shared<Snapshot>();
    snap->workers = workers_;
    snap->logits = logits_;
    snap->embeddings = embeddings_;
    return snap;
  }
  void RestoreState(const std::shared_ptr<const void>& state) {
    const auto* snap = static_cast<const Snapshot*>(state.get());
    workers_ = snap->workers;
    logits_ = snap->logits;
    embeddings_ = snap->embeddings;
  }

  /// Durable variants of the hooks above: the same mutable state,
  /// serialized bit-exactly for the checkpoint store.
  std::string SerializeState() const {
    BinaryWriter out;
    out.PutI64(static_cast<std::int64_t>(workers_.size()));
    for (const WorkerState& w : workers_) {
      out.PutI64s(w.nodes);
      PutTensor(&out, w.states);
    }
    PutTensor(&out, logits_);
    PutTensor(&out, embeddings_);
    return out.Take();
  }
  Status DeserializeState(const std::string& bytes) {
    BinaryReader in(bytes);
    std::int64_t num_workers = 0;
    INFERTURBO_RETURN_NOT_OK(in.GetI64(&num_workers));
    if (num_workers != static_cast<std::int64_t>(workers_.size())) {
      return Status::IoError(
          "checkpointed driver state has " + std::to_string(num_workers) +
          " workers, job has " + std::to_string(workers_.size()));
    }
    for (WorkerState& w : workers_) {
      INFERTURBO_RETURN_NOT_OK(in.GetI64s(&w.nodes));
      INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &w.states));
    }
    INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &logits_));
    INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &embeddings_));
    if (!in.AtEnd()) {
      return Status::IoError("trailing bytes after driver checkpoint state");
    }
    return Status::OK();
  }

 private:
  /// Local index of a global node id owned by this worker.
  std::int64_t LocalIndex(NodeId v) const {
    return assignment_.local_index[static_cast<std::size_t>(v)];
  }

  /// The worker owning edge e's destination.
  std::size_t WorkerOf(EdgeId e) const {
    return static_cast<std::size_t>(assignment_.partition_of[
        static_cast<std::size_t>(graph_.EdgeDst(e))]);
  }

  /// gather_nbrs + aggregate: fold the inbox into a GatherResult in
  /// this worker's local index space via the shared kernel-backed data
  /// plane (GatherPooledRows over the delivered rows; union points at
  /// them). Id-only rows (broadcast references) read their board rows
  /// in place. Bit-identical to the retained scalar oracle
  /// (GatherSuperstepInboxScalar) at any thread count.
  GatherResult GatherInbox(PregelContext* ctx, const WorkerState& worker,
                           const GasConv& layer) const {
    const std::int64_t local_n =
        static_cast<std::int64_t>(worker.nodes.size());
    std::vector<bool> partial(ctx->inbox().size());
    for (std::size_t bi = 0; bi < partial.size(); ++bi) {
      partial[bi] = ctx->IsPartialBatch(bi);
    }
    return GatherSuperstepInbox(
        layer.signature().agg_kind, layer.signature().message_dim,
        ctx->inbox(), partial, assignment_.local_index, local_n,
        [ctx](NodeId key) { return ctx->LookupBroadcast(key); });
  }

  /// apply_edge + scatter_nbrs for `layer_index`, from the worker's
  /// freshly-computed states (passed explicitly — under the
  /// deferred-commit contract they are attempt-local, not yet published
  /// to WorkerState). Routes per strategy:
  ///   - hubs (out-degree > threshold, broadcast on, broadcastable
  ///     messages): one payload on the board + id-only rows per edge;
  ///   - lawful aggregates with partial-gather on: fold into per-worker
  ///     accumulators, send one partial row per (worker, destination);
  ///   - otherwise: one dense row per out-edge.
  void ScatterLayer(PregelContext* ctx, const std::vector<NodeId>& nodes,
                    const Tensor& states, std::int64_t layer_index) const {
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    const Tensor messages = layer.ComputeMessage(states);
    const std::int64_t msg_dim = sig.message_dim;

    const bool use_partial = options_.strategies.partial_gather &&
                             sig.partial_gather &&
                             PartialGatherReduces(sig.agg_kind);
    const bool use_broadcast = options_.strategies.broadcast &&
                               sig.broadcastable_messages &&
                               hub_threshold_ > 0;

    if (sig.uses_edge_features) {
      ScatterWithEdgeFeatures(ctx, nodes, layer, messages, use_partial);
      return;
    }

    std::optional<PartialScatter> partial;
    if (use_partial) partial.emplace(assignment_);
    // Dense per-edge rows (non-partial path): one batch per destination
    // worker, sized in a first pass, so each row is written once, into
    // the batch its receiver reads, and routing moves batches whole.
    std::vector<MessageBatch> dense(assignment_.members.size());
    // Id-only rows for hub out-edges.
    MessageBatch refs;
    refs.payload = Tensor(0, 0);

    std::vector<std::int64_t> dense_rows(dense.size(), 0);
    std::vector<bool> is_hub(nodes.size(), false);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      if (use_broadcast && graph_.OutDegree(v) > hub_threshold_) {
        is_hub[i] = true;
      } else if (!use_partial) {
        for (EdgeId e : graph_.OutEdges(v)) ++dense_rows[WorkerOf(e)];
      }
    }
    for (std::size_t w = 0; w < dense.size(); ++w) {
      if (dense_rows[w] > 0) {
        dense[w].Reserve(static_cast<std::size_t>(dense_rows[w]), msg_dim);
      }
    }

    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      const float* row = messages.RowPtr(static_cast<std::int64_t>(i));
      if (is_hub[i]) {
        ctx->PublishBroadcast(v, row, msg_dim);
        for (EdgeId e : graph_.OutEdges(v)) {
          refs.dst.push_back(graph_.EdgeDst(e));
          refs.src.push_back(v);
        }
        continue;
      }
      if (use_partial) {
        for (EdgeId e : graph_.OutEdges(v)) {
          partial->Add(graph_.EdgeDst(e), row);
        }
      } else {
        for (EdgeId e : graph_.OutEdges(v)) {
          MessageBatch& b = dense[WorkerOf(e)];
          b.dst.push_back(graph_.EdgeDst(e));
          b.src.push_back(v);
          b.payload.AppendRow(row);
        }
      }
    }

    // Per destination worker the inbox order is unchanged: dense rows
    // in emission order, then references.
    for (MessageBatch& b : dense) {
      if (!b.empty()) ctx->SendBatch(std::move(b));
    }
    if (!refs.dst.empty()) ctx->SendBatch(std::move(refs));
    if (use_partial) partial->Send(ctx, sig.agg_kind, messages.cols());
  }

  /// Scatter for layers whose apply_edge consumes edge features: the
  /// per-edge rows genuinely differ, so they are materialized (in one
  /// batched ApplyEdge call), then either folded into partial
  /// accumulators or sent dense. Broadcast never applies here — the
  /// messages are not identical across out-edges.
  void ScatterWithEdgeFeatures(PregelContext* ctx,
                               const std::vector<NodeId>& nodes,
                               const GasConv& layer, const Tensor& messages,
                               bool use_partial) const {
    INFERTURBO_CHECK(graph_.has_edge_features())
        << "layer " << layer.signature().layer_type
        << " needs edge features the graph does not have";
    std::int64_t total = 0;
    for (NodeId v : nodes) total += graph_.OutDegree(v);
    Tensor base_rows(total, messages.cols());
    Tensor edge_feats(total, graph_.edge_features().cols());
    std::vector<NodeId> dst(static_cast<std::size_t>(total));
    std::vector<NodeId> src(static_cast<std::size_t>(total));
    std::int64_t cursor = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      const float* row = messages.RowPtr(static_cast<std::int64_t>(i));
      for (EdgeId e : graph_.OutEdges(v)) {
        base_rows.SetRow(cursor, row);
        edge_feats.SetRow(cursor, graph_.edge_features().RowPtr(e));
        dst[static_cast<std::size_t>(cursor)] = graph_.EdgeDst(e);
        src[static_cast<std::size_t>(cursor)] = v;
        ++cursor;
      }
    }
    Tensor final_rows = layer.ApplyEdge(base_rows, &edge_feats);
    if (use_partial) {
      // Edge k carries its own row k of final_rows.
      PartialScatter partial(assignment_);
      for (std::int64_t k = 0; k < total; ++k) {
        partial.Add(dst[static_cast<std::size_t>(k)], final_rows.RowPtr(k));
      }
      partial.Send(ctx, layer.signature().agg_kind, final_rows.cols());
      return;
    }
    MessageBatch batch;
    batch.dst = std::move(dst);
    batch.src = std::move(src);
    batch.payload = std::move(final_rows);
    ctx->SendBatch(std::move(batch));
  }

 private:
  const Graph& graph_;
  const GnnModel& model_;
  const InferTurboOptions& options_;
  const PartitionAssignment& assignment_;
  std::int64_t hub_threshold_;
  Tensor logits_;
  Tensor embeddings_;
  std::vector<WorkerState> workers_;
};

}  // namespace

Result<InferenceResult> RunInferTurboPregel(const Graph& graph,
                                            const GnnModel& model,
                                            const InferTurboOptions& options) {
  if (graph.feature_dim() != model.input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }

  // Shadow-nodes preprocessing rewrites the graph; everything below
  // runs on the (possibly augmented) graph.
  const Graph* active = &graph;
  ShadowGraph shadow;
  const std::int64_t threshold = options.strategies.HubThreshold(
      graph.num_edges(), options.num_workers);
  if (options.strategies.shadow_nodes) {
    INFERTURBO_ASSIGN_OR_RETURN(shadow, ApplyShadowNodes(graph, threshold));
    active = &shadow.graph;
  }

  HashPartitioner partitioner(options.num_workers);
  const PartitionAssignment assignment =
      AssignPartitions(active->num_nodes(), partitioner);

  PregelInferenceDriver driver(*active, model, options, assignment,
                               threshold);

  PregelEngine::Options engine_options;
  engine_options.num_workers = options.num_workers;
  engine_options.max_supersteps = model.num_layers() + 1;
  engine_options.cost_model = options.cost_model;
  engine_options.pool = options.pool;
  engine_options.checkpoint_interval = options.checkpoint_interval;
  engine_options.failure_injector = options.failure_injector;

  // Durable store: opened when a checkpoint directory is configured.
  // Durable mode implies checkpointing, so an unset interval means
  // "every superstep".
  std::optional<CheckpointStore> store;
  if (!options.checkpoint_directory.empty()) {
    if (engine_options.checkpoint_interval <= 0) {
      engine_options.checkpoint_interval = 1;
    }
    CheckpointStoreOptions store_options;
    store_options.directory = options.checkpoint_directory;
    store_options.keep_last = options.checkpoint_keep_last;
    store_options.fault_injector = options.io_fault_injector;
    store_options.retry = options.io_retry;
    Result<CheckpointStore> opened =
        CheckpointStore::Open(std::move(store_options));
    if (!opened.ok()) return opened.status();
    store.emplace(std::move(opened).ValueOrDie());
    engine_options.checkpoint_store = &*store;
    engine_options.serialize_driver = [&driver] {
      return driver.SerializeState();
    };
    engine_options.deserialize_driver = [&driver](const std::string& bytes) {
      return driver.DeserializeState(bytes);
    };
    engine_options.resume = options.resume_from;
    engine_options.kill_switch = options.kill_switch;
  }
  if (engine_options.checkpoint_interval > 0) {
    engine_options.snapshot_state = [&driver] {
      return driver.SnapshotState();
    };
    engine_options.restore_state =
        [&driver](const std::shared_ptr<const void>& state) {
          driver.RestoreState(state);
        };
  }
  // Task supervision: deadlines, retry, speculation, quarantine around
  // every superstep compute task. The driver's deferred-commit Compute
  // makes duplicate attempts and superstep re-execution safe.
  std::optional<TaskSupervisor> supervisor;
  if (options.supervise_tasks || options.fault_plan != nullptr) {
    TaskSupervisionOptions supervision = options.supervision;
    supervision.pool = options.pool;
    supervision.fault_plan = options.fault_plan;
    supervisor.emplace(supervision);
    engine_options.supervisor = &*supervisor;
  }

  PregelEngine engine(engine_options, partitioner);

  Result<JobMetrics> run =
      engine.Run([&driver](PregelContext* ctx) { driver.Compute(ctx); });
  if (!run.ok()) {
    // Unrecoverable engine failure: freeze the flight ring now, while
    // the retry/reexec/restore events leading here are still in it.
    DumpFlightRecordOnError("pregel: " + run.status().ToString());
    return run.status();
  }
  JobMetrics metrics = std::move(*run);
  options.failures_recovered = engine.failures_recovered();

  InferenceResult result;
  Tensor all_logits = driver.TakeLogits();
  Tensor all_embeddings = driver.TakeEmbeddings();
  if (options.strategies.shadow_nodes) {
    // Keep the original id range; mirror rows are duplicates by
    // construction.
    result.logits = Tensor(graph.num_nodes(), all_logits.cols());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      result.logits.SetRow(v, all_logits.RowPtr(v));
    }
    if (!all_embeddings.empty()) {
      result.embeddings = Tensor(graph.num_nodes(), all_embeddings.cols());
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        result.embeddings.SetRow(v, all_embeddings.RowPtr(v));
      }
    }
  } else {
    result.logits = std::move(all_logits);
    result.embeddings = std::move(all_embeddings);
  }
  result.predictions = ArgmaxRows(result.logits);
  result.metrics = std::move(metrics);
  return result;
}

Result<InferenceResult> RunInferTurboPregel(const GraphView& view,
                                            const GnnModel& model,
                                            const InferTurboOptions& options) {
  if (const Graph* resident = view.resident_graph()) {
    return RunInferTurboPregel(*resident, model, options);
  }
  // Out-of-core view: Pregel holds all node state resident anyway, so
  // rebuild the graph and run the resident path on the exact original
  // structure. The rebuild streams through the shard pipeline — I/O
  // for partition p+1 overlaps reconstruction of partition p — after
  // optionally pinning the hub hot-set.
  if (options.pin_hub_shards) {
    const std::int64_t threshold = options.strategies.HubThreshold(
        view.num_edges(), options.num_workers);
    INFERTURBO_RETURN_NOT_OK(view.PinHotSet(threshold).status());
  }
  PipelineStats stats;
  MaterializeOptions materialize;
  materialize.pipeline_slots = options.storage_pipeline_slots;
  materialize.stats = &stats;
  INFERTURBO_ASSIGN_OR_RETURN(Graph graph,
                              MaterializeGraph(view, materialize));
  INFERTURBO_ASSIGN_OR_RETURN(InferenceResult result,
                              RunInferTurboPregel(graph, model, options));
  result.metrics.storage = view.storage_metrics();
  stats.FoldInto(&result.metrics.storage);
  return result;
}

}  // namespace inferturbo

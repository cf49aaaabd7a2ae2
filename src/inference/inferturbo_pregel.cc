#include "src/inference/inferturbo_pregel.h"

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
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

/// Which out-edges a scatter plan routes, and what its rows index.
enum class PlanKind {
  kAllEdges,     // every out-edge; rows are local node indices
  kNonHubEdges,  // out-edges of non-hub nodes (broadcast on); node rows
  kEdgeRows,     // every out-edge; row k is the worker's k-th out-edge
  kAllEdgeCounts,     // kAllEdges' row counts only (dense scatter)
  kNonHubEdgeCounts,  // kNonHubEdges' row counts only (dense scatter)
};
constexpr std::size_t kNumPlanKinds = 5;

/// One worker's routing for the Pregel scatter, built once per job from
/// the graph and the partition assignment and only read after that.
/// For each destination worker it holds the destinations in the order
/// the scatter first reaches them (the partial batches' wire order) and,
/// slot-sorted as CSR, each destination slot's source rows in edge
/// order. A partial scatter folds it slot by slot through CombineRows,
/// with no per-edge slot lookup. A dense scatter sizes its batches from
/// a count-only plan, which holds each destination worker's row count
/// and no routes.
struct ScatterPlan {
  struct Route {
    std::vector<NodeId> dst;          // slot -> destination id
    std::vector<std::int32_t> begin;  // slot s: row[begin[s], begin[s + 1])
    std::vector<std::int32_t> row;    // source rows, slot-sorted
  };
  std::vector<Route> routes;  // one per destination worker
  std::vector<std::size_t> rows;  // count-only: rows per destination worker

  std::uint64_t ByteSize() const {
    std::uint64_t bytes = routes.size() * sizeof(Route) +
                          rows.size() * sizeof(std::size_t);
    for (const Route& r : routes) {
      bytes += r.dst.size() * sizeof(NodeId) +
               (r.begin.size() + r.row.size()) * sizeof(std::int32_t);
    }
    return bytes;
  }
};

/// Builds `nodes`' plan in two passes over their out-edges: the first
/// counts each destination's edges, the second gives destinations their
/// slots in first-seen order and writes each edge's source row at its
/// slot's cursor. Both tables are indexed by a destination's local index
/// on its worker, so nothing is hashed. A count-only plan is one pass
/// that counts each destination worker's edges.
ScatterPlan BuildScatterPlan(const Graph& graph,
                             const PartitionAssignment& assignment,
                             const std::vector<NodeId>& nodes,
                             std::int64_t hub_threshold, PlanKind kind) {
  // Rows are node indices or edge ordinals, both int32.
  std::int64_t total = static_cast<std::int64_t>(nodes.size());
  for (NodeId v : nodes) total += graph.OutDegree(v);
  INFERTURBO_CHECK(total <= std::numeric_limits<std::int32_t>::max())
      << "a worker's " << nodes.size() << " nodes and their out-edges "
      << "overflow an int32 plan row";
  const auto for_each_edge = [&](auto&& fn) {
    std::int32_t edge = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      if ((kind == PlanKind::kNonHubEdges ||
           kind == PlanKind::kNonHubEdgeCounts) &&
          graph.OutDegree(v) > hub_threshold) {
        continue;
      }
      for (EdgeId e : graph.OutEdges(v)) {
        const NodeId d = graph.EdgeDst(e);
        fn(d,
           static_cast<std::size_t>(
               assignment.partition_of[static_cast<std::size_t>(d)]),
           static_cast<std::size_t>(
               assignment.local_index[static_cast<std::size_t>(d)]),
           kind == PlanKind::kEdgeRows ? edge : static_cast<std::int32_t>(i));
        ++edge;
      }
    }
  };

  const std::size_t num_workers = assignment.members.size();
  ScatterPlan plan;
  if (kind == PlanKind::kAllEdgeCounts ||
      kind == PlanKind::kNonHubEdgeCounts) {
    plan.rows.assign(num_workers, 0);
    for_each_edge([&](NodeId, std::size_t w, std::size_t, std::int32_t) {
      ++plan.rows[w];
    });
    return plan;
  }
  std::vector<std::vector<std::int32_t>> hits(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    hits[w].assign(assignment.members[w].size(), 0);
  }
  for_each_edge([&](NodeId, std::size_t w, std::size_t local, std::int32_t) {
    ++hits[w][local];
  });

  plan.routes.resize(num_workers);
  // cursor[w][local]: where that destination's next row goes, -1 until
  // its slot is given; next[w]: the first row no slot has claimed.
  std::vector<std::vector<std::int32_t>> cursor(num_workers);
  std::vector<std::int32_t> next(num_workers, 0);
  for (std::size_t w = 0; w < num_workers; ++w) {
    std::size_t slots = 0;
    std::size_t rows = 0;
    for (const std::int32_t h : hits[w]) {
      slots += h > 0 ? 1 : 0;
      rows += static_cast<std::size_t>(h);
    }
    ScatterPlan::Route& route = plan.routes[w];
    route.dst.reserve(slots);
    route.begin.reserve(slots + 1);
    route.row.resize(rows);
    cursor[w].assign(hits[w].size(), -1);
  }
  for_each_edge([&](NodeId d, std::size_t w, std::size_t local,
                    std::int32_t row) {
    ScatterPlan::Route& route = plan.routes[w];
    std::int32_t& at = cursor[w][local];
    if (at < 0) {
      at = next[w];
      next[w] += hits[w][local];
      route.dst.push_back(d);
      route.begin.push_back(at);
    }
    route.row[static_cast<std::size_t>(at++)] = row;
  });
  for (ScatterPlan::Route& route : plan.routes) {
    route.begin.push_back(static_cast<std::int32_t>(route.row.size()));
  }
  return plan;
}

/// The partial scatter of one layer: for each destination worker, rows
/// messages[route.row[k]] fold slot by slot, in edge order within a
/// slot, through one CombineRows call into the partial batch it sends —
/// the bytes of combining the same edges in emission order. Each slot's
/// output row is finished while it is hot.
void SendPartials(PregelContext* ctx, const ScatterPlan& plan, AggKind kind,
                  const Tensor& messages) {
  std::vector<std::int64_t> slots;
  std::vector<const float*> rows;
  for (const ScatterPlan::Route& route : plan.routes) {
    if (route.dst.empty()) continue;
    slots.resize(route.row.size());
    rows.resize(route.row.size());
    for (std::size_t s = 0; s < route.dst.size(); ++s) {
      for (std::int32_t k = route.begin[s]; k < route.begin[s + 1]; ++k) {
        const auto at = static_cast<std::size_t>(k);
        slots[at] = static_cast<std::int64_t>(s);
        rows[at] = messages.RowPtr(route.row[at]);
      }
    }
    ctx->SendPartialBatch(CombineRows(kind, messages.cols(), route.dst, slots,
                                      rows, ctx->worker_id()));
  }
}

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
        logits_(graph.num_nodes(), model.num_classes()),
        plans_(static_cast<std::size_t>(options.num_workers)) {
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
      ScatterLayer(ctx, worker.nodes, *states, 0);
      ctx->ChargeResidentBytes(states->ByteSize() +
                               PlanBytes(ctx->worker_id()));
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
    const std::uint64_t apply_bytes =
        old_state_bytes + gathered_bytes + new_states->ByteSize();
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
    // Old state, vectorized gather result, and new state coexist at
    // the apply_node boundary, beside the worker's scatter plans — the
    // Pregel backend's resident cost.
    ctx->ChargeResidentBytes(apply_bytes + PlanBytes(ctx->worker_id()));
  }

  Tensor TakeLogits() { return std::move(logits_); }
  Tensor TakeEmbeddings() { return std::move(embeddings_); }

  /// Checkpoint hooks: the driver's entire mutable state is the
  /// per-worker states plus the result buffers, serialized bit-exactly.
  std::string SerializeState() const {
    std::size_t bytes = 40 + logits_.ByteSize() + embeddings_.ByteSize();
    for (const WorkerState& w : workers_) {
      bytes += 24 + w.nodes.size() * sizeof(NodeId) + w.states.ByteSize();
    }
    BinaryWriter out;
    out.Reserve(bytes);
    out.PutI64(static_cast<std::int64_t>(workers_.size()));
    for (const WorkerState& w : workers_) {
      out.PutI64s(w.nodes);
      PutTensor(&out, w.states);
    }
    PutTensor(&out, logits_);
    PutTensor(&out, embeddings_);
    return out.Take();
  }
  /// Decodes SerializeState's bytes as checkpointed before superstep
  /// `step`, rejecting any shape the job could not have written there:
  /// a worker must own exactly its assigned members (its state rows and
  /// scatter plans are indexed by them), its states must be 0 × 0
  /// before superstep 0 and one row per node, as wide as superstep
  /// `step`'s layer input, after it, and the result buffers keep the
  /// job's shapes.
  Status DeserializeState(const std::string& bytes, std::int64_t step) {
    if (step < 0 || step > model_.num_layers()) {
      return Status::IoError("driver checkpoint taken before superstep " +
                             std::to_string(step) + " of a " +
                             std::to_string(model_.num_layers() + 1) +
                             "-superstep job");
    }
    const std::int64_t width =
        step == 0 ? 0 : model_.layer(step - 1).signature().input_dim;
    BinaryReader in(bytes);
    std::int64_t num_workers = 0;
    INFERTURBO_RETURN_NOT_OK(in.GetI64(&num_workers));
    if (num_workers != static_cast<std::int64_t>(workers_.size())) {
      return Status::IoError(
          "checkpointed driver state has " + std::to_string(num_workers) +
          " workers, job has " + std::to_string(workers_.size()));
    }
    std::vector<WorkerState> workers(workers_.size());
    for (std::size_t w = 0; w < workers.size(); ++w) {
      INFERTURBO_RETURN_NOT_OK(in.GetI64s(&workers[w].nodes));
      if (workers[w].nodes != assignment_.members[w]) {
        return Status::IoError("checkpointed worker " + std::to_string(w) +
                               " owns other nodes than the job assigns it");
      }
      INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &workers[w].states));
      const Tensor& states = workers[w].states;
      const std::int64_t rows =
          step == 0 ? 0 : static_cast<std::int64_t>(workers[w].nodes.size());
      if (states.rows() != rows || states.cols() != width) {
        return Status::IoError(
            "checkpointed worker " + std::to_string(w) + " has " +
            std::to_string(states.rows()) + "x" +
            std::to_string(states.cols()) + " states before superstep " +
            std::to_string(step) + ", expected " + std::to_string(rows) +
            "x" + std::to_string(width));
      }
    }
    Tensor logits;
    Tensor embeddings;
    INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &logits));
    INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &embeddings));
    const std::int64_t n = graph_.num_nodes();
    const std::int64_t embedding_rows = options_.export_embeddings ? n : 0;
    const std::int64_t embedding_cols =
        options_.export_embeddings ? model_.embedding_dim() : 0;
    if (logits.rows() != n || logits.cols() != model_.num_classes() ||
        embeddings.rows() != embedding_rows ||
        embeddings.cols() != embedding_cols) {
      return Status::IoError(
          "checkpointed logits or embeddings have the wrong shape");
    }
    if (!in.AtEnd()) {
      return Status::IoError("trailing bytes after driver checkpoint state");
    }
    workers_ = std::move(workers);
    logits_ = std::move(logits);
    embeddings_ = std::move(embeddings);
    return Status::OK();
  }

 private:
  /// The worker owning edge e's destination.
  std::size_t WorkerOf(EdgeId e) const {
    return static_cast<std::size_t>(assignment_.partition_of[
        static_cast<std::size_t>(graph_.EdgeDst(e))]);
  }

  /// gather_nbrs + aggregate: fold the inbox into a GatherResult in
  /// this worker's local index space via the shared kernel-backed data
  /// plane (GatherPooledRows over the delivered rows; union points at
  /// them). Id-only rows (broadcast references) read their board rows
  /// in place. Bit-identical to the per-row scalar fold at any thread
  /// count.
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

  /// `worker`'s plan of `kind`, built by the worker's first scatter
  /// that needs it. Duplicate attempts, superstep re-execution and
  /// checkpoint restores share the one build: a plan depends only on
  /// the graph and the assignment, and `nodes` are the worker's members.
  const ScatterPlan& PlanFor(std::int64_t worker, PlanKind kind,
                             const std::vector<NodeId>& nodes) const {
    WorkerPlans& plans = plans_[static_cast<std::size_t>(worker)];
    const auto k = static_cast<std::size_t>(kind);
    std::call_once(plans.once[k], [&] {
      plans.plan[k] =
          BuildScatterPlan(graph_, assignment_, nodes, hub_threshold_, kind);
      plans.bytes += plans.plan[k].ByteSize();
    });
    return plans.plan[k];
  }

  /// Bytes of the plans `worker` has built so far.
  std::uint64_t PlanBytes(std::int64_t worker) const {
    return plans_[static_cast<std::size_t>(worker)].bytes;
  }

  /// apply_edge + scatter_nbrs for `layer_index`, from the worker's
  /// freshly-computed states (passed explicitly — under the
  /// deferred-commit contract they are attempt-local, not yet published
  /// to WorkerState). Identity messages are read from the states in
  /// place. Routes per strategy:
  ///   - hubs (out-degree > threshold, broadcast on, broadcastable
  ///     messages): one payload on the board + id-only rows per edge;
  ///   - lawful aggregates with partial-gather on: fold through the
  ///     worker's plan, one partial row per (worker, destination);
  ///   - otherwise: one dense row per out-edge.
  void ScatterLayer(PregelContext* ctx, const std::vector<NodeId>& nodes,
                    const Tensor& states, std::int64_t layer_index) const {
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    Tensor computed;
    if (!layer.MessageIsState()) computed = layer.ComputeMessage(states);
    const Tensor& messages = layer.MessageIsState() ? states : computed;
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

    const PlanKind kind =
        use_broadcast
            ? (use_partial ? PlanKind::kNonHubEdges
                           : PlanKind::kNonHubEdgeCounts)
            : (use_partial ? PlanKind::kAllEdges : PlanKind::kAllEdgeCounts);
    const ScatterPlan& plan = PlanFor(ctx->worker_id(), kind, nodes);
    // Dense per-edge rows (non-partial path): one batch per destination
    // worker, sized from the plan's counts, so each row is written once,
    // into the batch its receiver reads, and routing moves batches whole.
    std::vector<MessageBatch> dense(plan.rows.size());
    for (std::size_t w = 0; w < dense.size(); ++w) {
      if (plan.rows[w] > 0) dense[w].Reserve(plan.rows[w], msg_dim);
    }
    // Id-only rows for hub out-edges.
    MessageBatch refs;
    refs.payload = Tensor(0, 0);

    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      const float* row = messages.RowPtr(static_cast<std::int64_t>(i));
      if (use_broadcast && graph_.OutDegree(v) > hub_threshold_) {
        ctx->PublishBroadcast(v, row, msg_dim);
        for (EdgeId e : graph_.OutEdges(v)) {
          refs.dst.push_back(graph_.EdgeDst(e));
          refs.src.push_back(v);
        }
        continue;
      }
      if (use_partial) continue;
      for (EdgeId e : graph_.OutEdges(v)) {
        MessageBatch& b = dense[WorkerOf(e)];
        b.dst.push_back(graph_.EdgeDst(e));
        b.src.push_back(v);
        b.payload.AppendRow(row);
      }
    }

    // Per destination worker the inbox order is unchanged: dense rows
    // in emission order, then references, then partial rows.
    for (MessageBatch& b : dense) {
      if (!b.empty()) ctx->SendBatch(std::move(b));
    }
    if (!refs.dst.empty()) ctx->SendBatch(std::move(refs));
    if (use_partial) SendPartials(ctx, plan, sig.agg_kind, messages);
  }

  /// Scatter for layers whose apply_edge consumes edge features: the
  /// per-edge rows genuinely differ, so they are materialized (in one
  /// batched ApplyEdge call), then either folded through the worker's
  /// edge-row plan or sent dense. Broadcast never applies here — the
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
    // Ids only for the dense batch; the plan routes partial rows.
    const std::size_t ids = use_partial ? 0 : static_cast<std::size_t>(total);
    std::vector<NodeId> dst(ids);
    std::vector<NodeId> src(ids);
    std::int64_t cursor = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      const float* row = messages.RowPtr(static_cast<std::int64_t>(i));
      for (EdgeId e : graph_.OutEdges(v)) {
        base_rows.SetRow(cursor, row);
        edge_feats.SetRow(cursor, graph_.edge_features().RowPtr(e));
        if (!use_partial) {
          dst[static_cast<std::size_t>(cursor)] = graph_.EdgeDst(e);
          src[static_cast<std::size_t>(cursor)] = v;
        }
        ++cursor;
      }
    }
    Tensor final_rows = layer.ApplyEdge(base_rows, &edge_feats);
    if (use_partial) {
      // Edge k carries its own row k of final_rows.
      SendPartials(ctx, PlanFor(ctx->worker_id(), PlanKind::kEdgeRows, nodes),
                   layer.signature().agg_kind, final_rows);
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
  /// A worker's scatter plans, one slot per PlanKind. Checkpoints leave
  /// them out: they derive from the graph alone.
  struct WorkerPlans {
    std::once_flag once[kNumPlanKinds];
    ScatterPlan plan[kNumPlanKinds];
    std::atomic<std::uint64_t> bytes{0};
  };
  mutable std::vector<WorkerPlans> plans_;
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
    engine_options.resume = options.resume_from;
    engine_options.kill_switch = options.kill_switch;
  }
  if (engine_options.checkpoint_interval > 0) {
    engine_options.serialize_driver = [&driver] {
      return driver.SerializeState();
    };
    engine_options.deserialize_driver = [&driver](const std::string& bytes,
                                                  std::int64_t step) {
      return driver.DeserializeState(bytes, step);
    };
  }
  // Task supervision: deadlines, retry, speculation, quarantine around
  // every superstep compute task. The driver's deferred-commit Compute
  // makes duplicate attempts and superstep re-execution safe.
  TaskSupervisionOptions supervision = options.supervision;
  supervision.pool = options.pool;
  supervision.fault_plan = options.fault_plan;
  TaskSupervisor supervisor(supervision);
  engine_options.supervisor = &supervisor;

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
  // for partition p+1 overlaps reconstruction of partition p.
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

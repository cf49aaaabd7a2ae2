#include "src/storage/shard_pipeline.h"

#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/graph/graph_builder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {

ShardPipeline::ShardPipeline(const GraphView& view,
                             ShardPipelineOptions options)
    : view_(view),
      options_(options),
      num_partitions_(view.num_partitions()) {
  // Passthrough for resident graphs (their AcquirePartition is a
  // memory gather, not I/O worth a thread), single-partition views
  // (nothing to run ahead of), and explicitly disabled pipelines.
  if (options_.slots > 0 && view_.resident_graph() == nullptr &&
      num_partitions_ > 1) {
    loader_ = std::thread([this] { LoaderLoop(); });
  }
}

ShardPipeline::~ShardPipeline() {
  if (!loader_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  loader_cv_.notify_all();
  loader_.join();
}

std::int64_t ShardPipeline::PickTargetLocked() {
  // Demanded partitions first: a consumer is blocked on each of them,
  // so they load even when the ahead window is full.
  std::int64_t best = -1;
  for (const std::int64_t p : demanded_) {
    if (slots_.count(p) != 0 || consumed_.count(p) != 0) continue;
    if (best < 0 || p < best) best = p;
  }
  if (best >= 0) return best;
  // Ahead scheduling: the cursor walks 0..P-1 once, skipping partitions
  // already scheduled or consumed, and never runs past the last
  // partition.
  while (next_ahead_ < num_partitions_ &&
         (slots_.count(next_ahead_) != 0 ||
          consumed_.count(next_ahead_) != 0)) {
    ++next_ahead_;
  }
  if (next_ahead_ < num_partitions_ &&
      static_cast<std::int64_t>(slots_.size()) <
          static_cast<std::int64_t>(options_.slots)) {
    return next_ahead_;
  }
  return -1;
}

void ShardPipeline::LoaderLoop() {
  for (;;) {
    std::int64_t target = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      loader_cv_.wait(lock, [&] {
        if (stop_) return true;
        target = PickTargetLocked();
        return target >= 0;
      });
      if (stop_) return;
      if (demanded_.erase(target) != 0) {
        ++stats_.loads_demand;
      } else {
        ++stats_.loads_ahead;
      }
      slots_.emplace(target, Slot());
    }
    WallTimer timer;
    Result<PartitionSlice> result = [&] {
      TraceSpan span("pipeline/load", target);
      return view_.AcquirePartition(target);
    }();
    const double io_seconds = timer.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The slot cannot have vanished: consumers erase only ready ones.
      Slot& slot = slots_.find(target)->second;
      slot.result = std::move(result);
      slot.io_seconds = io_seconds;
      slot.ready = true;
    }
    ready_cv_.notify_all();
  }
}

Result<PartitionSlice> ShardPipeline::Acquire(std::int64_t partition) {
  if (!active() || partition < 0 || partition >= num_partitions_) {
    // Passthrough, or let the view report the range error verbatim.
    return view_.AcquirePartition(partition);
  }
  double waited = 0.0;
  double io_seconds = 0.0;
  Result<PartitionSlice> out = Status::OK();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (consumed_.count(partition) != 0) {
      // Second acquisition of a partition is outside the one-sweep
      // contract; serve it as a plain demand load (the store's cache
      // usually still has it).
      lock.unlock();
      return view_.AcquirePartition(partition);
    }
    auto it = slots_.find(partition);
    if (it == slots_.end()) {
      demanded_.insert(partition);
      loader_cv_.notify_one();
    }
    if (it == slots_.end() || !it->second.ready) {
      TraceSpan span("pipeline/wait", partition);
      WallTimer wait_timer;
      bool lost_race = false;
      ready_cv_.wait(lock, [&] {
        // A concurrent Acquire of the same partition (speculative
        // duplicate attempts under task supervision) may consume the
        // slot while we wait; detect that and fall back rather than
        // waiting on a slot that will never reappear.
        if (consumed_.count(partition) != 0) {
          lost_race = true;
          return true;
        }
        it = slots_.find(partition);
        return it != slots_.end() && it->second.ready;
      });
      waited = wait_timer.ElapsedSeconds();
      if (lost_race) {
        stats_.wait_seconds += waited;
        lock.unlock();
        return view_.AcquirePartition(partition);
      }
    }
    out = std::move(it->second.result);
    io_seconds = it->second.io_seconds;
    slots_.erase(it);
    consumed_.insert(partition);
    ready_cv_.notify_all();  // wake duplicate waiters on this partition
    stats_.wait_seconds += waited;
    const double hidden = io_seconds - waited;
    if (hidden > 0.0) stats_.overlap_seconds += hidden;
    // The freed slot lets the loader start the next ahead load while
    // the caller computes on this one — the whole point.
    loader_cv_.notify_one();
  }
  if (MetricsEnabled()) {
    GlobalMetrics()
        .GetCounter("storage.pipeline_wait_micros")
        ->Add(static_cast<std::int64_t>(waited * 1e6));
    const double hidden = io_seconds - waited;
    if (hidden > 0.0) {
      GlobalMetrics()
          .GetCounter("storage.overlap_micros")
          ->Add(static_cast<std::int64_t>(hidden * 1e6));
    }
  }
  return out;
}

PipelineStats ShardPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<Graph> MaterializeGraph(const GraphView& view,
                               const MaterializeOptions& options) {
  if (const Graph* resident = view.resident_graph()) {
    return *resident;  // already whole; copy rather than re-gather
  }
  ShardPipeline pipeline(view,
                         ShardPipelineOptions{options.pipeline_slots});
  const std::int64_t num_nodes = view.num_nodes();
  const std::int64_t num_edges = view.num_edges();
  const std::int64_t fd = view.feature_dim();
  const std::int64_t efd = view.edge_feature_dim();
  const bool labeled = view.has_labels();

  // Fill edge-id-indexed arrays so AddEdge can run in original edge-id
  // order — the ordering the CSC in-edge index (and every fold over it)
  // is derived from.
  std::vector<NodeId> edge_src(static_cast<std::size_t>(num_edges), -1);
  std::vector<NodeId> edge_dst(static_cast<std::size_t>(num_edges), -1);
  Tensor node_features(num_nodes, fd);
  Tensor edge_features =
      efd > 0 ? Tensor(num_edges, efd) : Tensor();
  std::vector<std::int64_t> labels(
      labeled ? static_cast<std::size_t>(num_nodes) : 0, 0);
  std::vector<bool> node_seen(static_cast<std::size_t>(num_nodes), false);

  for (std::int64_t p = 0; p < view.num_partitions(); ++p) {
    INFERTURBO_ASSIGN_OR_RETURN(PartitionSlice slice, pipeline.Acquire(p));
    if (slice.out_offsets.size() != slice.nodes.size() + 1) {
      return Status::IoError("partition " + std::to_string(p) +
                             " slice has inconsistent CSR offsets");
    }
    for (std::size_t i = 0; i < slice.nodes.size(); ++i) {
      const std::int64_t v = slice.nodes[i];
      if (v < 0 || v >= num_nodes || node_seen[static_cast<std::size_t>(v)]) {
        return Status::IoError("partition " + std::to_string(p) +
                               " names node " + std::to_string(v) +
                               " out of range or twice");
      }
      node_seen[static_cast<std::size_t>(v)] = true;
      node_features.SetRow(v, slice.node_features +
                                  i * static_cast<std::size_t>(fd));
      if (labeled) {
        labels[static_cast<std::size_t>(v)] = slice.labels[i];
      }
      for (std::int64_t k = slice.out_offsets[i];
           k < slice.out_offsets[i + 1]; ++k) {
        const std::int64_t e = slice.out_edge_ids[static_cast<std::size_t>(k)];
        if (e < 0 || e >= num_edges ||
            edge_src[static_cast<std::size_t>(e)] != -1) {
          return Status::IoError("partition " + std::to_string(p) +
                                 " names edge id " + std::to_string(e) +
                                 " out of range or twice");
        }
        edge_src[static_cast<std::size_t>(e)] = v;
        edge_dst[static_cast<std::size_t>(e)] =
            slice.out_dst[static_cast<std::size_t>(k)];
        if (efd > 0) {
          edge_features.SetRow(
              e, slice.edge_features + static_cast<std::size_t>(k) *
                                           static_cast<std::size_t>(efd));
        }
      }
    }
  }
  if (options.stats != nullptr) options.stats->Merge(pipeline.stats());
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    if (!node_seen[static_cast<std::size_t>(v)]) {
      return Status::IoError("node " + std::to_string(v) +
                             " is missing from every partition");
    }
  }
  for (std::int64_t e = 0; e < num_edges; ++e) {
    if (edge_src[static_cast<std::size_t>(e)] < 0) {
      return Status::IoError("edge id " + std::to_string(e) +
                             " is missing from every partition");
    }
  }

  GraphBuilder builder(num_nodes);
  builder.ReserveEdges(static_cast<std::size_t>(num_edges));
  for (std::int64_t e = 0; e < num_edges; ++e) {
    builder.AddEdge(edge_src[static_cast<std::size_t>(e)],
                    edge_dst[static_cast<std::size_t>(e)]);
  }
  builder.SetNodeFeatures(std::move(node_features));
  if (efd > 0) builder.SetEdgeFeatures(std::move(edge_features));
  if (labeled) builder.SetLabels(std::move(labels), view.num_classes());
  return std::move(builder).Finish();
}


}  // namespace inferturbo

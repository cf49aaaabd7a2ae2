#include "src/pregel/pregel_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/binary_io.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {

std::int64_t PregelContext::num_workers() const {
  return engine_->num_workers();
}

void PregelContext::SendBatch(MessageBatch batch) {
  if (batch.empty()) return;
  std::vector<MessageBatch> slices = SplitByWorker(
      std::move(batch), engine_->partitioner(), num_workers());
  for (std::int64_t w = 0; w < num_workers(); ++w) {
    if (!slices[static_cast<std::size_t>(w)].empty()) {
      outbox_[static_cast<std::size_t>(w)].push_back(
          {std::move(slices[static_cast<std::size_t>(w)]), false});
    }
  }
}

void PregelContext::SendPartialBatch(MessageBatch batch) {
  if (batch.empty()) return;
  // Partial batches are produced per destination worker by the caller,
  // so this usually takes SplitByWorker's whole-batch move fast path.
  std::vector<MessageBatch> slices = SplitByWorker(
      std::move(batch), engine_->partitioner(), num_workers());
  for (std::int64_t w = 0; w < num_workers(); ++w) {
    if (!slices[static_cast<std::size_t>(w)].empty()) {
      outbox_[static_cast<std::size_t>(w)].push_back(
          {std::move(slices[static_cast<std::size_t>(w)]), true});
    }
  }
}

void PregelContext::PublishBroadcast(NodeId key, const float* row,
                                     std::int64_t width) {
  broadcast_out_.emplace_back(key, std::vector<float>(row, row + width));
}

const std::vector<float>* PregelContext::LookupBroadcast(NodeId key) const {
  const auto it = engine_->board_current_.find(key);
  return it == engine_->board_current_.end() ? nullptr : &it->second;
}

bool PregelContext::IsPartialBatch(std::size_t batch_index) const {
  return inbox_partial_[batch_index];
}

void PregelContext::VoteToHalt() { halt_vote_ = true; }

void PregelContext::DeferToCommit(std::function<void()> fn) {
  commit_callbacks_.push_back(std::move(fn));
}

void PregelContext::ChargeBusySeconds(double seconds) {
  extra_busy_seconds_ += seconds;
}

void PregelContext::ChargeResidentBytes(std::uint64_t bytes) {
  resident_bytes_ = std::max(resident_bytes_, bytes);
}

namespace {

void EncodeBatch(const MessageBatch& batch, BinaryWriter* out) {
  out->PutI64s(batch.dst);
  out->PutI64s(batch.src);
  out->PutI64(batch.payload.rows());
  out->PutI64(batch.payload.cols());
  out->PutBytes(batch.payload.data(),
                static_cast<std::size_t>(batch.payload.size()) *
                    sizeof(float));
}

Status DecodeBatch(BinaryReader* in, MessageBatch* batch) {
  INFERTURBO_RETURN_NOT_OK(in->GetI64s(&batch->dst));
  INFERTURBO_RETURN_NOT_OK(in->GetI64s(&batch->src));
  std::int64_t rows = 0, cols = 0;
  INFERTURBO_RETURN_NOT_OK(in->GetI64(&rows));
  INFERTURBO_RETURN_NOT_OK(in->GetI64(&cols));
  // Division bounds the payload without a product that could wrap. A
  // payload row per message, except that an id-only batch (zero width)
  // may also carry no rows at all.
  const auto messages = static_cast<std::int64_t>(batch->dst.size());
  if (rows < 0 || cols < 0 ||
      (cols > 0 && static_cast<std::uint64_t>(rows) >
                       in->remaining() / sizeof(float) /
                           static_cast<std::uint64_t>(cols)) ||
      batch->src.size() != batch->dst.size() ||
      !(rows == messages || (cols == 0 && rows == 0))) {
    return Status::IoError("corrupt message batch shape in checkpoint");
  }
  batch->payload = Tensor(rows, cols);
  return in->GetBytes(batch->payload.data(),
                      static_cast<std::size_t>(rows * cols) * sizeof(float));
}

}  // namespace

std::string EncodePregelEngineState(
    const std::vector<std::vector<MessageBatch>>& inboxes,
    const std::vector<std::vector<bool>>& inbox_partial,
    const std::unordered_map<NodeId, std::vector<float>>& board) {
  // The exact encoded size: counts, then per batch its flag, two id
  // vectors, shape and payload, then per board entry key, length, row.
  std::size_t bytes = 16 + 8 * inboxes.size();
  for (const std::vector<MessageBatch>& inbox : inboxes) {
    for (const MessageBatch& b : inbox) {
      bytes += 36 + 16 * b.dst.size() + b.payload.ByteSize();
    }
  }
  for (const auto& [key, row] : board) bytes += 16 + row.size() * sizeof(float);
  BinaryWriter out;
  out.Reserve(bytes);
  out.PutU64(inboxes.size());
  for (std::size_t w = 0; w < inboxes.size(); ++w) {
    out.PutU64(inboxes[w].size());
    for (std::size_t b = 0; b < inboxes[w].size(); ++b) {
      out.PutU32(inbox_partial[w][b] ? 1 : 0);
      EncodeBatch(inboxes[w][b], &out);
    }
  }
  // Board entries sorted by key: a deterministic byte stream regardless
  // of hash-map iteration order.
  std::vector<NodeId> keys;
  keys.reserve(board.size());
  for (const auto& [key, row] : board) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  out.PutU64(keys.size());
  for (NodeId key : keys) {
    out.PutI64(key);
    out.PutFloats(board.at(key));
  }
  return out.Take();
}

Status DecodePregelEngineState(
    std::string_view bytes, std::int64_t num_workers,
    std::vector<std::vector<MessageBatch>>* inboxes,
    std::vector<std::vector<bool>>* inbox_partial,
    std::unordered_map<NodeId, std::vector<float>>* board) {
  BinaryReader in(bytes);
  std::uint64_t workers = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetU64(&workers));
  if (workers != static_cast<std::uint64_t>(num_workers)) {
    return Status::IoError(
        "checkpoint worker count " + std::to_string(workers) +
        " does not match engine worker count " +
        std::to_string(num_workers));
  }
  inboxes->assign(static_cast<std::size_t>(num_workers), {});
  inbox_partial->assign(static_cast<std::size_t>(num_workers), {});
  for (std::size_t w = 0; w < workers; ++w) {
    std::uint64_t batches = 0;
    INFERTURBO_RETURN_NOT_OK(in.GetU64(&batches));
    for (std::uint64_t b = 0; b < batches; ++b) {
      std::uint32_t partial = 0;
      INFERTURBO_RETURN_NOT_OK(in.GetU32(&partial));
      MessageBatch batch;
      INFERTURBO_RETURN_NOT_OK(DecodeBatch(&in, &batch));
      (*inboxes)[w].push_back(std::move(batch));
      (*inbox_partial)[w].push_back(partial != 0);
    }
  }
  board->clear();
  std::uint64_t entries = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetU64(&entries));
  for (std::uint64_t i = 0; i < entries; ++i) {
    NodeId key = 0;
    std::vector<float> row;
    INFERTURBO_RETURN_NOT_OK(in.GetI64(&key));
    INFERTURBO_RETURN_NOT_OK(in.GetFloats(&row));
    (*board)[key] = std::move(row);
  }
  if (!in.AtEnd()) {
    return Status::IoError("trailing bytes after engine checkpoint state");
  }
  return Status::OK();
}

PregelEngine::PregelEngine(Options options, HashPartitioner partitioner)
    : options_(options), partitioner_(partitioner) {
  INFERTURBO_CHECK(options_.num_workers == partitioner_.num_partitions())
      << "worker count must match partitioner";
}

Result<JobMetrics> PregelEngine::Run(const ComputeFn& compute) {
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : DefaultThreadPool();
  const std::int64_t num_workers = options_.num_workers;
  std::optional<TaskSupervisor> default_supervisor;
  TaskSupervisor* supervisor = options_.supervisor;
  if (supervisor == nullptr) {
    TaskSupervisionOptions supervision;
    supervision.pool = &pool;
    supervisor = &default_supervisor.emplace(supervision);
  }

  JobMetrics metrics;
  metrics.cost_model = options_.cost_model;
  metrics.workers.resize(static_cast<std::size_t>(num_workers));

  // inboxes[w] = batches delivered this superstep, with partial flags.
  std::vector<std::vector<MessageBatch>> inboxes(
      static_cast<std::size_t>(num_workers));
  std::vector<std::vector<bool>> inbox_partial(
      static_cast<std::size_t>(num_workers));
  board_current_.clear();

  // The one restore routine: decodes a checkpoint's engine and driver
  // bytes through the checked decoders, for both the cross-process
  // resume and rung 3 of the ladder.
  const auto restore = [&](const CheckpointData& data) -> Status {
    INFERTURBO_RETURN_NOT_OK(DecodePregelEngineState(
        data.engine_state, num_workers, &inboxes, &inbox_partial,
        &board_current_));
    return options_.deserialize_driver
               ? options_.deserialize_driver(data.driver_state, data.step)
               : Status::OK();
  };

  // Cross-process resume: rebuild in-flight state from the newest valid
  // durable checkpoint and continue at its superstep. A store with no
  // loadable checkpoint means the job died before its first one — start
  // fresh.
  std::int64_t start_step = 0;
  if (options_.resume && options_.checkpoint_store != nullptr) {
    Result<CheckpointData> latest = options_.checkpoint_store->LoadLatest();
    if (latest.ok()) {
      RecordFlightEvent(FlightEventKind::kCheckpointRestore,
                        "pregel/resume", latest->step);
      INFERTURBO_RETURN_NOT_OK(restore(*latest));
      start_step = latest->step;
    } else if (!latest.status().IsNotFound()) {
      return latest.status();
    }
  }

  // Checkpointing: every checkpoint_interval supersteps the in-flight
  // messages, the board and the driver state are encoded once. The
  // bytes stay in memory for a rollback and, with a store configured,
  // are saved there too; a rollback decodes them like a resume does.
  CheckpointData checkpoint;
  bool has_checkpoint = false;
  std::int64_t attempts = 0;
  const std::int64_t max_attempts = options_.max_supersteps * 10 + 10;

  // Degradation-ladder bookkeeping.
  std::int64_t reexec_step = -1;
  std::int64_t reexecs_this_step = 0;
  std::int64_t superstep_reexecutions_total = 0;
  std::int64_t supervised_restores = 0;

  for (std::int64_t step = start_step; step < options_.max_supersteps;
       ++step) {
    if (++attempts > max_attempts) {
      return Status::Aborted(
          "gave up after " + std::to_string(max_attempts) +
          " superstep attempts: a stage kept failing after every "
          "checkpoint restore");
    }
    if (options_.checkpoint_interval > 0 &&
        step % options_.checkpoint_interval == 0) {
      TraceSpan span("pregel/checkpoint");
      checkpoint = {};  // free the previous bytes before encoding anew
      checkpoint.step = step;
      checkpoint.engine_state =
          EncodePregelEngineState(inboxes, inbox_partial, board_current_);
      checkpoint.driver_state =
          options_.serialize_driver ? options_.serialize_driver() : "";
      if (options_.checkpoint_store != nullptr) {
        INFERTURBO_RETURN_NOT_OK(options_.checkpoint_store->Save(checkpoint));
      }
      has_checkpoint = true;
      RecordFlightEvent(FlightEventKind::kCheckpointSave, "pregel/checkpoint",
                        step);
    }
    if (options_.kill_switch && options_.kill_switch(step)) {
      return Status::Aborted("job killed at superstep " +
                             std::to_string(step) +
                             " (simulated process death)");
    }
    std::vector<PregelContext> contexts(
        static_cast<std::size_t>(num_workers));
    std::vector<WorkerStepMetrics> step_metrics(
        static_cast<std::size_t>(num_workers));

    // --- compute phase (parallel over logical workers) --------------
    // Each worker's compute runs as one supervised task with
    // deadlines/retry/speculation. An attempt writes into its own
    // context and metrics, so duplicate attempts never share state. The
    // compute is read-only against the superstep's inputs (inboxes,
    // board, driver state via DeferToCommit), so any attempt — first,
    // retry, or speculative backup — produces identical bytes, and a
    // failed stage can re-execute the whole superstep from those same
    // inputs.
    const auto compute_task = [&](TaskAttempt* attempt) -> Status {
      const std::size_t w = attempt->task();
      PregelContext ctx;
      WorkerStepMetrics m;
      ctx.engine_ = this;
      ctx.worker_id_ = static_cast<std::int64_t>(w);
      ctx.superstep_ = step;
      ctx.inbox_ = &inboxes[w];
      ctx.inbox_partial_ = inbox_partial[w];
      ctx.outbox_.resize(static_cast<std::size_t>(num_workers));
      std::uint64_t inbox_bytes = 0;
      for (const MessageBatch& b : inboxes[w]) {
        m.records_in += b.size();
        inbox_bytes += b.WireBytes();
      }
      WallTimer timer;
      {
        TraceSpan span("pregel/compute", static_cast<std::int64_t>(w));
        compute(&ctx);
      }
      m.busy_seconds = timer.ElapsedSeconds() + ctx.extra_busy_seconds_;
      if (MetricsEnabled()) {
        static Histogram* hist =
            GlobalMetrics().GetHistogram("pregel.compute_seconds");
        hist->Observe(m.busy_seconds);
      }
      // The whole vectorized inbox is resident during compute, plus
      // whatever state the driver reported.
      m.peak_resident_bytes = inbox_bytes + ctx.resident_bytes_;
      if (attempt->TryCommit()) {
        // Winner owns the slot; losers discard their copies.
        contexts[w] = std::move(ctx);
        step_metrics[w] = m;
      }
      return Status::OK();
    };
    const TaskStage task_stage{TaskStageKind::kPregelCompute, step};
    const Result<StageResult> stage = supervisor->RunStage(
        task_stage, static_cast<std::size_t>(num_workers), compute_task);
    if (!stage.ok()) {
      // The attempted work is still real cost, and appending one row
      // per worker keeps the per-worker step vectors aligned.
      for (std::int64_t w = 0; w < num_workers; ++w) {
        metrics.workers[static_cast<std::size_t>(w)].steps.push_back(
            step_metrics[static_cast<std::size_t>(w)]);
      }
      if (reexec_step != step) {
        reexec_step = step;
        reexecs_this_step = 0;
      }
      const int max_reexecs = supervisor->options().max_superstep_reexecutions;
      if (reexecs_this_step < max_reexecs) {
        // Rung 2 of the ladder: nothing was published (commit
        // callbacks never ran, next inboxes were never built), so
        // the superstep's inputs are intact — just run it again.
        ++reexecs_this_step;
        ++superstep_reexecutions_total;
        RecordFlightEvent(FlightEventKind::kSuperstepReexec,
                          "pregel/reexec", step, reexecs_this_step);
        INFERTURBO_LOG(Warning)
            << "re-executing superstep " << step << " ("
            << reexecs_this_step << "/" << max_reexecs
            << ") after stage failure: " << stage.status().ToString();
        --step;  // loop increment replays it
        continue;
      }
      if (has_checkpoint) {
        // Rung 3: roll back to the last checkpoint.
        ++supervised_restores;
        RecordFlightEvent(FlightEventKind::kCheckpointRestore,
                          "pregel/restore", step, checkpoint.step);
        INFERTURBO_LOG(Warning)
            << "superstep " << step
            << " re-execution budget exhausted; restoring checkpoint of "
            << "step " << checkpoint.step;
        INFERTURBO_RETURN_NOT_OK(restore(checkpoint));
        step = checkpoint.step - 1;  // loop increment replays it
        continue;
      }
      // Rung 4: no checkpoint to fall back to — surface the stage
      // error as a clean Status, saying why it was final.
      return stage.status().WithMessage(
          stage.status().message() +
          "; no checkpoint to restore (set checkpoint_interval)");
    }

    // Commit point: publish every worker's deferred state mutations,
    // in worker order — deterministic regardless of which attempt of
    // each task won, and only reached when the whole stage committed.
    for (PregelContext& ctx : contexts) ctx.RunCommitCallbacks();

    // --- combiner phase (charged to the sending worker) -------------
    if (options_.combiner) {
      pool.ParallelFor(static_cast<std::size_t>(num_workers),
                       [&](std::size_t w) {
        TraceSpan span("pregel/combine", static_cast<std::int64_t>(w));
        WallTimer timer;
        for (std::int64_t d = 0; d < num_workers; ++d) {
          auto& outgoing = contexts[w].outbox_[static_cast<std::size_t>(d)];
          for (auto& out : outgoing) {
            if (out.partial) continue;  // already pooled by the driver
            auto [combined, partial] =
                options_.combiner(d, std::move(out.batch));
            out.batch = std::move(combined);
            out.partial = partial;
          }
        }
        step_metrics[w].busy_seconds += timer.ElapsedSeconds();
      });
    }

    // --- routing + accounting barrier (parallel over destinations) --
    // Each destination worker exclusively owns its next inbox, its
    // bytes_in/records_in counters, and one column of the sender-side
    // scratch, so the fan-out is data-race-free. A task scans source
    // workers in ascending order, preserving the deterministic (source
    // worker, emission) inbox order of the old serial loop; sender-side
    // totals are folded from the scratch afterwards (integer sums, so
    // the fold order cannot change them).
    const auto W = static_cast<std::size_t>(num_workers);
    std::vector<std::vector<MessageBatch>> next_inboxes(W);
    std::vector<std::vector<bool>> next_partial(W);
    std::vector<std::uint64_t> route_bytes_out(W * W, 0);
    std::vector<std::int64_t> route_records_out(W * W, 0);
    std::vector<std::uint8_t> dest_any(W, 0);
    pool.ParallelFor(W, [&](std::size_t d) {
      TraceSpan span("pregel/route", static_cast<std::int64_t>(d));
      WallTimer route_timer;
      WorkerStepMetrics& dm = step_metrics[d];
      for (std::size_t w = 0; w < W; ++w) {
        for (auto& out : contexts[w].outbox_[d]) {
          if (out.batch.empty()) continue;
          dest_any[d] = 1;
          const std::uint64_t wire = out.batch.WireBytes();
          route_records_out[d * W + w] += out.batch.size();
          if (w != d) {
            // Only cross-worker traffic pays network bytes.
            route_bytes_out[d * W + w] += wire;
            dm.bytes_in += wire;
          }
          next_partial[d].push_back(out.partial);
          next_inboxes[d].push_back(std::move(out.batch));
        }
      }
      // Receive side of the broadcast board: one copy of every other
      // worker's published rows arrives here.
      for (std::size_t w = 0; w < W; ++w) {
        if (w == d) continue;
        for (const auto& entry : contexts[w].broadcast_out_) {
          dm.bytes_in += MessageBytes(entry.second.size());
          ++dm.records_in;
        }
      }
      dm.route_seconds += route_timer.ElapsedSeconds();
    });
    TraceSpan barrier_span("pregel/barrier");
    if (MetricsEnabled()) {
      GlobalMetrics().GetCounter("pregel.supersteps")->Increment();
      static Histogram* hist =
          GlobalMetrics().GetHistogram("pregel.route_seconds");
      for (std::size_t d = 0; d < W; ++d) {
        hist->Observe(step_metrics[d].route_seconds);
      }
    }
    bool any_messages = false;
    for (std::size_t d = 0; d < W; ++d) {
      any_messages = any_messages || dest_any[d] != 0;
      for (std::size_t w = 0; w < W; ++w) {
        step_metrics[w].records_out += route_records_out[d * W + w];
        step_metrics[w].bytes_out += route_bytes_out[d * W + w];
      }
    }

    // --- broadcast board: sender accounting + last-writer merge ------
    std::unordered_map<NodeId, std::vector<float>> board_next;
    for (std::size_t w = 0; w < W; ++w) {
      for (auto& [key, row] : contexts[w].broadcast_out_) {
        const std::uint64_t wire = MessageBytes(row.size());
        // One copy to every other machine.
        step_metrics[w].bytes_out +=
            wire * static_cast<std::uint64_t>(num_workers - 1);
        step_metrics[w].records_out += num_workers - 1;
        any_messages = true;
        board_next[key] = std::move(row);
      }
    }

    bool all_halted = true;
    for (const PregelContext& ctx : contexts) {
      all_halted = all_halted && ctx.halt_vote_;
    }

    for (std::int64_t w = 0; w < num_workers; ++w) {
      metrics.workers[static_cast<std::size_t>(w)].steps.push_back(
          step_metrics[static_cast<std::size_t>(w)]);
    }

    inboxes = std::move(next_inboxes);
    inbox_partial = std::move(next_partial);
    board_current_ = std::move(board_next);

    // Classic Pregel termination: messages in flight reactivate halted
    // vertices, so votes alone never end the job while anything is in
    // transit — and with no messages in transit no future superstep
    // can observe new input, so the job is done either way. (The
    // all_halted flag is tracked for documentation/debugging; the
    // message condition subsumes it.)
    (void)all_halted;
    if (!any_messages) break;
  }
  metrics.supervision = supervisor->metrics();
  metrics.supervision.superstep_reexecutions = superstep_reexecutions_total;
  metrics.supervision.checkpoint_restores = supervised_restores;
  return metrics;
}

}  // namespace inferturbo

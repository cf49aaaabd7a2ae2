// The Pregel engine is model-agnostic; these tests drive it with
// classic graph-processing programs (PageRank) and probe the
// mechanisms InferTurbo builds on: combiners, the broadcast board,
// halting, and byte accounting.
#include "src/pregel/pregel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/checkpoint/checkpoint_store.h"
#include "src/common/binary_io.h"
#include "src/common/crc32.h"
#include "src/common/thread_pool.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_builder.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"

namespace inferturbo {
namespace {

Graph MakeChain(std::int64_t n) {
  GraphBuilder builder(n);
  for (std::int64_t i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  builder.SetNodeFeatures(Tensor(n, 1));
  return std::move(builder).Finish().ValueOrDie();
}

TEST(PregelEngineTest, MessagesFlowAlongChain) {
  // Forward a token along 0 -> 1 -> 2 -> 3; after 4 supersteps node 3
  // holds the value.
  const Graph g = MakeChain(4);
  HashPartitioner partitioner(3);
  const PartitionAssignment assignment = AssignPartitions(4, partitioner);
  PregelEngine::Options options;
  options.num_workers = 3;
  options.max_supersteps = 4;
  PregelEngine engine(options, partitioner);

  std::vector<float> value(4, 0.0f);
  value[0] = 42.0f;
  std::mutex mu;

  engine.Run([&](PregelContext* ctx) {
    const auto& mine =
        assignment.members[static_cast<std::size_t>(ctx->worker_id())];
    // Deliver incoming tokens.
    for (const MessageBatch& b : ctx->inbox()) {
      for (std::int64_t i = 0; i < b.size(); ++i) {
        std::lock_guard<std::mutex> lock(mu);
        value[static_cast<std::size_t>(b.dst[static_cast<std::size_t>(i)])] =
            b.payload.At(i, 0);
      }
    }
    // Pass tokens on.
    MessageBatch out;
    for (NodeId v : mine) {
      float current;
      {
        std::lock_guard<std::mutex> lock(mu);
        current = value[static_cast<std::size_t>(v)];
      }
      if (current == 0.0f) continue;
      for (EdgeId e : g.OutEdges(v)) {
        out.Push(g.EdgeDst(e), v, &current, 1);
      }
    }
    ctx->SendBatch(std::move(out));
  });
  EXPECT_EQ(value[3], 42.0f);
}

TEST(PregelEngineTest, PageRankConverges) {
  const Dataset d = MakeProductsLike(0.02, /*seed=*/3);
  const Graph& g = d.graph;
  const std::int64_t n = g.num_nodes();
  const std::int64_t workers = 4;
  HashPartitioner partitioner(workers);
  const PartitionAssignment assignment = AssignPartitions(n, partitioner);

  std::vector<double> rank(static_cast<std::size_t>(n), 1.0 /
                                                            static_cast<double>(n));
  std::vector<double> incoming(static_cast<std::size_t>(n), 0.0);
  std::mutex mu;

  PregelEngine::Options options;
  options.num_workers = workers;
  options.max_supersteps = 25;
  PregelEngine engine(options, partitioner);

  const double damping = 0.85;
  engine.Run([&](PregelContext* ctx) {
    const auto& mine =
        assignment.members[static_cast<std::size_t>(ctx->worker_id())];
    // Fold incoming contributions, update ranks.
    if (ctx->superstep() > 0) {
      std::lock_guard<std::mutex> lock(mu);
      for (const MessageBatch& b : ctx->inbox()) {
        for (std::int64_t i = 0; i < b.size(); ++i) {
          incoming[static_cast<std::size_t>(
              b.dst[static_cast<std::size_t>(i)])] += b.payload.At(i, 0);
        }
      }
      for (NodeId v : mine) {
        rank[static_cast<std::size_t>(v)] =
            (1.0 - damping) / static_cast<double>(n) +
            damping * incoming[static_cast<std::size_t>(v)];
        incoming[static_cast<std::size_t>(v)] = 0.0;
      }
    }
    MessageBatch out;
    for (NodeId v : mine) {
      const std::int64_t degree = g.OutDegree(v);
      if (degree == 0) continue;
      const float share = static_cast<float>(
          rank[static_cast<std::size_t>(v)] / static_cast<double>(degree));
      for (EdgeId e : g.OutEdges(v)) out.Push(g.EdgeDst(e), v, &share, 1);
    }
    ctx->SendBatch(std::move(out));
  });

  // Ranks form (roughly) a probability distribution and correlate with
  // in-degree.
  double total = 0.0;
  for (double r : rank) total += r;
  EXPECT_NEAR(total, 1.0, 0.1);
  NodeId max_in = 0, max_rank = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (g.InDegree(v) > g.InDegree(max_in)) max_in = v;
    if (rank[static_cast<std::size_t>(v)] >
        rank[static_cast<std::size_t>(max_rank)]) {
      max_rank = v;
    }
  }
  EXPECT_GT(g.InDegree(max_rank), g.InDegree(max_in) / 4);
}

TEST(PregelEngineTest, MessagesReactivateHaltedWorkers) {
  // Classic Pregel semantics: a vote to halt does not end the job while
  // messages are in flight; the job ends once no messages were sent.
  HashPartitioner partitioner(2);
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 100;
  PregelEngine engine(options, partitioner);
  std::atomic<int> steps{0};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->worker_id() == 0) steps.fetch_add(1);
    // Everyone votes every step, but messages keep flowing until
    // superstep 2 — the job must run through superstep 3 (which
    // receives the last batch and sends nothing).
    ctx->VoteToHalt();
    if (ctx->superstep() <= 2 && ctx->worker_id() == 0) {
      const float zero = 0.0f;
      MessageBatch b;
      b.Push(0, 0, &zero, 1);
      ctx->SendBatch(std::move(b));
    }
  }).ValueOrDie();
  EXPECT_EQ(steps.load(), 4);  // supersteps 0, 1, 2, 3
  EXPECT_EQ(metrics.num_steps(), 4);
}

TEST(PregelEngineTest, StopsWhenNoMessages) {
  HashPartitioner partitioner(2);
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 100;
  PregelEngine engine(options, partitioner);
  const JobMetrics metrics =
      engine.Run([](PregelContext*) {}).ValueOrDie();
  EXPECT_EQ(metrics.num_steps(), 1);
}

TEST(PregelEngineTest, CrossWorkerBytesAreCharged) {
  // Two workers; node ids chosen so worker 0 sends to worker 1.
  HashPartitioner partitioner(2);
  NodeId on_zero = -1, on_one = -1;
  for (NodeId v = 0; v < 100 && (on_zero < 0 || on_one < 0); ++v) {
    (partitioner.PartitionOf(v) == 0 ? on_zero : on_one) = v;
  }
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 1;
  PregelEngine engine(options, partitioner);
  const float payload[4] = {1, 2, 3, 4};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->worker_id() == 0) {
      MessageBatch remote;
      remote.Push(on_one, on_zero, payload, 4);  // cross-worker
      ctx->SendBatch(std::move(remote));
      MessageBatch local;
      local.Push(on_zero, on_zero, payload, 4);  // local: free
      ctx->SendBatch(std::move(local));
    }
  }).ValueOrDie();
  const WorkerStepMetrics w0 = metrics.workers[0].Total();
  const WorkerStepMetrics w1 = metrics.workers[1].Total();
  EXPECT_EQ(w0.bytes_out, MessageBytes(4));
  EXPECT_EQ(w1.bytes_in, MessageBytes(4));
  EXPECT_EQ(w0.records_out, 2);  // both messages count as records
}

TEST(PregelEngineTest, BroadcastBoardIsReadableNextStep) {
  HashPartitioner partitioner(3);
  PregelEngine::Options options;
  options.num_workers = 3;
  options.max_supersteps = 2;
  PregelEngine engine(options, partitioner);
  std::atomic<int> found{0};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->superstep() == 0) {
      if (ctx->worker_id() == 0) {
        const float row[2] = {3.5f, 4.5f};
        ctx->PublishBroadcast(123, row, 2);
      }
      return;
    }
    const std::vector<float>* row = ctx->LookupBroadcast(123);
    if (row != nullptr && (*row)[1] == 4.5f) found.fetch_add(1);
    ctx->VoteToHalt();
  }).ValueOrDie();
  EXPECT_EQ(found.load(), 3);  // visible on every worker
  // Publisher paid num_workers-1 copies.
  EXPECT_EQ(metrics.workers[0].Total().bytes_out, 2 * MessageBytes(2));
}

TEST(PregelEngineTest, CombinerShrinksTrafficWithoutChangingDelivery) {
  HashPartitioner partitioner(2);
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 2;
  // Sum-combine everything addressed to the same destination node.
  options.combiner = [](std::int64_t, MessageBatch batch) {
    return std::make_pair(CombineBatch(AggKind::kSum, batch, -1), true);
  };
  PregelEngine engine(options, partitioner);

  NodeId on_one = -1;
  for (NodeId v = 0; v < 100 && on_one < 0; ++v) {
    if (partitioner.PartitionOf(v) == 1) on_one = v;
  }
  std::atomic<float> delivered{0.0f};
  std::atomic<std::int64_t> delivered_count{0};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->superstep() == 0 && ctx->worker_id() == 0) {
      MessageBatch out;
      for (int i = 0; i < 10; ++i) {
        const float one = 1.0f;
        out.Push(on_one, 0, &one, 1);
      }
      ctx->SendBatch(std::move(out));
      return;
    }
    for (std::size_t bi = 0; bi < ctx->inbox().size(); ++bi) {
      const MessageBatch& b = ctx->inbox()[bi];
      EXPECT_TRUE(ctx->IsPartialBatch(bi));
      for (std::int64_t i = 0; i < b.size(); ++i) {
        delivered = delivered + b.payload.At(i, 0);
        delivered_count += static_cast<std::int64_t>(
            b.payload.At(i, b.payload.cols() - 1));
      }
    }
    ctx->VoteToHalt();
  }).ValueOrDie();
  EXPECT_EQ(delivered.load(), 10.0f);       // sum preserved
  EXPECT_EQ(delivered_count.load(), 10);    // count column preserved
  // One combined record crossed instead of ten.
  EXPECT_EQ(metrics.workers[0].Total().records_out, 1);
}

TEST(PregelEngineTest, DeterministicAcrossRuns) {
  const Dataset d = MakeProductsLike(0.02, /*seed=*/5);
  const Graph& g = d.graph;
  HashPartitioner partitioner(4);
  const PartitionAssignment assignment =
      AssignPartitions(g.num_nodes(), partitioner);
  const auto run_once = [&] {
    PregelEngine::Options options;
    options.num_workers = 4;
    options.max_supersteps = 3;
    PregelEngine engine(options, partitioner);
    std::vector<float> sums(static_cast<std::size_t>(g.num_nodes()), 0.0f);
    std::mutex mu;
    engine.Run([&](PregelContext* ctx) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const MessageBatch& b : ctx->inbox()) {
          for (std::int64_t i = 0; i < b.size(); ++i) {
            sums[static_cast<std::size_t>(
                b.dst[static_cast<std::size_t>(i)])] += b.payload.At(i, 0);
          }
        }
      }
      MessageBatch out;
      for (NodeId v :
           assignment.members[static_cast<std::size_t>(ctx->worker_id())]) {
        const float x = g.node_features().At(v, 0);
        for (EdgeId e : g.OutEdges(v)) out.Push(g.EdgeDst(e), v, &x, 1);
      }
      ctx->SendBatch(std::move(out));
    });
    return sums;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Golden CRCs of the Pregel backend's logits with partial gather on:
// the sender-side combine of a mean (sage), max (pool_sage) and sum
// (gin) layer, and the edge-feature partial path (edge_sage); the
// broadcast sage case mixes partial and id-only batches in one inbox.
// gat cannot combine: its union receive hands every raw per-edge row to
// the attention apply, and with broadcast on, hub rows arrive as id-only
// references to the board. Every fold order and the partial batches'
// bytes feed these digests, so a change that reorders a fold fails
// here, at 1 and 8 pool threads.
TEST(PregelGoldenTest, InferenceLogitsArePinned) {
  PlantedGraphConfig config;
  config.num_nodes = 500;
  config.avg_degree = 6.0;
  config.feature_dim = 12;
  config.num_classes = 4;
  config.in_skew_alpha = 1.0;
  config.edge_feature_dim = 3;
  config.seed = 11;
  const Dataset dataset = MakePlantedDataset("golden", config);
  struct Case {
    const char* model;
    bool broadcast;
    std::uint32_t crc;
  };
  const Case cases[] = {
      {"sage", false, 0xb3c391f9u},
      {"pool_sage", false, 0x3ae9227cu},
      {"gin", false, 0x3f0a9bcbu},
      {"edge_sage", false, 0x34c344cfu},
      {"sage", true, 0xd052b0e4u},
      {"gat", false, 0x2fa42168u},
      {"gat", true, 0xb6f16a79u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.model) + (c.broadcast ? " broadcast" : ""));
    ModelConfig mc;
    mc.input_dim = config.feature_dim;
    mc.hidden_dim = 16;
    mc.num_classes = config.num_classes;
    mc.num_layers = 2;
    mc.edge_feature_dim = config.edge_feature_dim;
    mc.seed = 3;
    Result<std::unique_ptr<GnnModel>> model = MakeModel(c.model, mc);
    ASSERT_TRUE(model.ok());
    for (const std::size_t threads : {1, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      InferTurboOptions options;
      options.num_workers = 4;
      options.pool = &pool;
      options.strategies.partial_gather = true;
      options.strategies.broadcast = c.broadcast;
      options.strategies.threshold_override = c.broadcast ? 8 : -1;
      const Result<InferenceResult> result =
          RunInferTurboPregel(dataset.graph, **model, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const Tensor& logits = result->logits;
      EXPECT_EQ(Crc32(logits.data(), static_cast<std::size_t>(
                                         logits.rows() * logits.cols()) *
                                         sizeof(float)),
                c.crc);
    }
  }
}

// One-worker engine checkpoint frame holding a single message batch
// with the given ids and payload header, followed by `payload_floats`
// payload floats and an empty broadcast board.
std::string EngineStateFrame(const std::vector<NodeId>& dst,
                             const std::vector<NodeId>& src,
                             std::int64_t rows, std::int64_t cols,
                             std::size_t payload_floats) {
  BinaryWriter out;
  out.PutU64(1);  // workers
  out.PutU64(1);  // batches
  out.PutU32(0);  // not partial
  out.PutI64s(dst);
  out.PutI64s(src);
  out.PutI64(rows);
  out.PutI64(cols);
  for (std::size_t i = 0; i < payload_floats; ++i) out.PutFloat(1.0f);
  out.PutU64(0);  // board entries
  return out.Take();
}

Status DecodeOneWorker(const std::string& frame) {
  std::vector<std::vector<MessageBatch>> inboxes;
  std::vector<std::vector<bool>> partial;
  std::unordered_map<NodeId, std::vector<float>> board;
  return DecodePregelEngineState(frame, 1, &inboxes, &partial, &board);
}

// A payload shape whose byte count wraps a uint64 (2^62 rows x 4 cols
// x 4 bytes) must not pass the bound with no payload bytes behind it.
TEST(PregelEngineStateTest, WrappingPayloadShapeIsRejected) {
  const std::int64_t rows = std::int64_t{1} << 62;
  EXPECT_FALSE(DecodeOneWorker(EngineStateFrame({}, {}, rows, 4, 0)).ok());
  EXPECT_FALSE(DecodeOneWorker(EngineStateFrame({0}, {0}, rows, 4, 0)).ok());
}

// Every message has one src and, unless the batch is id-only, one
// payload row.
TEST(PregelEngineStateTest, BatchWhoseLengthsDisagreeIsRejected) {
  // 3 dst, 1 src, 1 payload row.
  EXPECT_FALSE(DecodeOneWorker(EngineStateFrame({0, 1, 2}, {5}, 1, 2, 2)).ok());
  // 2 messages, 1 payload row.
  EXPECT_FALSE(DecodeOneWorker(EngineStateFrame({0, 1}, {5, 5}, 1, 2, 2)).ok());
  // 1 message, 2 payload rows.
  EXPECT_FALSE(DecodeOneWorker(EngineStateFrame({0}, {5}, 2, 2, 4)).ok());
  // An id-only batch with a row count that is neither 0 nor its size.
  EXPECT_FALSE(DecodeOneWorker(EngineStateFrame({0, 1}, {5, 5}, 1, 0, 0)).ok());
}

// The shapes the engine itself writes still decode: a dense batch, and
// an id-only batch with either no payload rows or one per message.
TEST(PregelEngineStateTest, WellFormedBatchesDecode) {
  EXPECT_TRUE(DecodeOneWorker(EngineStateFrame({0, 1}, {5, 5}, 2, 2, 4)).ok());
  EXPECT_TRUE(DecodeOneWorker(EngineStateFrame({0, 1}, {5, 5}, 0, 0, 0)).ok());
  EXPECT_TRUE(DecodeOneWorker(EngineStateFrame({0, 1}, {5, 5}, 2, 0, 0)).ok());
  EXPECT_TRUE(DecodeOneWorker(EngineStateFrame({}, {}, 0, 3, 0)).ok());
}

// A Pregel inference driver frame as the checkpoint store holds it:
// per worker its node ids and a zero-filled state tensor, then the
// logits and embeddings tensors.
struct DriverFrame {
  std::vector<std::vector<NodeId>> nodes;
  std::vector<std::pair<std::int64_t, std::int64_t>> states;
  std::pair<std::int64_t, std::int64_t> logits;
  std::pair<std::int64_t, std::int64_t> embeddings = {0, 0};

  std::string Encode() const {
    BinaryWriter out;
    out.PutI64(static_cast<std::int64_t>(nodes.size()));
    for (std::size_t w = 0; w < nodes.size(); ++w) {
      out.PutI64s(nodes[w]);
      PutZeros(&out, states[w]);
    }
    PutZeros(&out, logits);
    PutZeros(&out, embeddings);
    return out.Take();
  }

  static void PutZeros(BinaryWriter* out,
                       std::pair<std::int64_t, std::int64_t> shape) {
    out->PutI64(shape.first);
    out->PutI64(shape.second);
    for (std::int64_t i = 0; i < shape.first * shape.second; ++i) {
      out->PutFloat(0.0f);
    }
  }
};

constexpr std::int64_t kFrameStep = 2;

// A damaged driver frame in the newest checkpoint fails the resume with
// a clean IoError instead of restoring shapes the apply stage or the
// scatter plans would index out of bounds; the well-formed frame
// resumes.
TEST(PregelDriverStateTest, DamagedDriverFramesFailResumeCleanly) {
  PlantedGraphConfig config;
  config.num_nodes = 60;
  config.avg_degree = 4.0;
  config.feature_dim = 5;
  config.num_classes = 3;
  config.seed = 5;
  const Dataset dataset = MakePlantedDataset("frames", config);
  ModelConfig mc;
  mc.input_dim = config.feature_dim;
  mc.hidden_dim = 7;
  mc.num_classes = config.num_classes;
  mc.num_layers = 2;
  const std::unique_ptr<GnnModel> model = MakeSageModel(mc);
  constexpr std::int64_t kWorkers = 3;
  const PartitionAssignment assignment = AssignPartitions(
      dataset.graph.num_nodes(), HashPartitioner(kWorkers));
  const std::int64_t n = dataset.graph.num_nodes();

  // Taken before superstep 2, once layer 0 has committed: states are
  // (members x hidden), and the engine's inboxes are empty.
  DriverFrame good;
  good.nodes = assignment.members;
  for (const std::vector<NodeId>& members : assignment.members) {
    good.states.emplace_back(static_cast<std::int64_t>(members.size()),
                             mc.hidden_dim);
  }
  good.logits = {n, mc.num_classes};
  const std::string engine_state = EncodePregelEngineState(
      std::vector<std::vector<MessageBatch>>(kWorkers),
      std::vector<std::vector<bool>>(kWorkers), {});

  const auto resume = [&](const std::string& name, const std::string& frame,
                          std::int64_t step) {
    const std::string dir = testing::TempDir() + "/driver_frame_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CheckpointStoreOptions store_options;
    store_options.directory = dir;
    Result<CheckpointStore> store = CheckpointStore::Open(store_options);
    EXPECT_TRUE(store.ok());
    CheckpointData data;
    data.step = step;
    data.engine_state = engine_state;
    data.driver_state = frame;
    EXPECT_TRUE(store->Save(data).ok());
    InferTurboOptions options;
    options.num_workers = kWorkers;
    options.strategies.partial_gather = true;
    options.checkpoint_directory = dir;
    options.resume_from = true;
    return RunInferTurboPregel(dataset.graph, *model, options).status();
  };
  const auto expect_io_error = [&](const std::string& name,
                                   const DriverFrame& frame,
                                   std::int64_t step = kFrameStep) {
    const Status status = resume(name, frame.Encode(), step);
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << name << ": " << status.ToString();
  };

  EXPECT_TRUE(resume("good", good.Encode(), kFrameStep).ok());

  DriverFrame swapped = good;
  std::swap(swapped.nodes[0], swapped.nodes[1]);
  std::swap(swapped.states[0], swapped.states[1]);
  expect_io_error("swapped_members", swapped);

  DriverFrame reordered = good;
  std::reverse(reordered.nodes[0].begin(), reordered.nodes[0].end());
  expect_io_error("reordered_members", reordered);

  DriverFrame short_rows = good;
  short_rows.states[1].first -= 1;
  expect_io_error("short_state_rows", short_rows);

  // The width of layer 0's input is a layer width, but not the one a
  // checkpoint before superstep 2 holds.
  DriverFrame wrong_width = good;
  for (auto& shape : wrong_width.states) shape.second = mc.input_dim;
  expect_io_error("wrong_state_width", wrong_width);

  // Zero wide, 2^62 rows: no payload bytes stand behind it.
  DriverFrame huge = good;
  huge.states[2] = {std::int64_t{1} << 62, 0};
  expect_io_error("zero_width_huge_rows", huge);

  // Before superstep 0 every worker still holds 0 x 0 states.
  expect_io_error("states_before_first_superstep", good, 0);

  DriverFrame logits = good;
  logits.logits = {n - 1, mc.num_classes};
  expect_io_error("logits_rows", logits);
  logits.logits = {n, mc.num_classes + 1};
  expect_io_error("logits_cols", logits);

  DriverFrame embeddings = good;
  embeddings.embeddings = {n, mc.hidden_dim};
  expect_io_error("unexpected_embeddings", embeddings);

  expect_io_error("step_past_the_job", good, mc.num_layers + 1);
}

}  // namespace
}  // namespace inferturbo

// Sharded-training tests: one shard on the calling thread with the bare
// snapshot path and fault site, run-to-run bitwise determinism under real
// threading, degradation past a dead shard (scoped fault injection), and
// drain-on-stop with bitwise resume — including a shard parked at the
// averaging barrier and a real SIGTERM.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/nn/supervisor.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/util/io_file.h"
#include "src/util/robust.h"
#include "src/util/serialize.h"
#include "src/util/stop_token.h"
#include "src/util/sync.h"
#include "tests/state_dir.h"

namespace advtext {
namespace {

struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().configure(""); }
  ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
};

/// Snapshot base in a per-process directory that goes with the test, with
/// the bare path's and every shard's generations inside it.
struct ShardSnapshotFiles {
  explicit ShardSnapshotFiles(const std::string& name)
      : file("advtext_sharded_", name), base(file.path()) {}
  std::string shard_generation(std::size_t k, std::size_t gen) const {
    return SnapshotRotation::generation_path(
        base + ".shard" + std::to_string(k), gen);
  }
  ScopedTempFile file;
  std::string base;
};

void expect_params_bitwise_equal(TrainableClassifier& a,
                                 TrainableClassifier& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    ASSERT_EQ(pa[p].size, pb[p].size);
    EXPECT_EQ(std::memcmp(pa[p].value, pb[p].value,
                          pa[p].size * sizeof(float)),
              0)
        << "parameter tensor " << p << " differs";
  }
}

SynthTask make_small_task(std::uint64_t seed, std::size_t num_train) {
  SynthConfig config = make_yelp(seed).config;
  config.seed = seed;
  config.num_train = num_train;
  config.num_test = 20;
  config.min_sentences = 3;
  config.max_sentences = 5;
  config.min_words_per_sentence = 5;
  config.max_words_per_sentence = 9;
  return make_task(config);
}

class ShardedFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // 180 train docs: round-robin over 3 shards gives 60 docs each, so all
    // shards run the same number of optimizer steps per epoch.
    task_ = new SynthTask(make_small_task(61, 180));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
  }

  static WCnnConfig model_config() {
    WCnnConfig config;
    config.embed_dim = task_->config.embedding_dim;
    config.num_filters = 8;
    return config;
  }

  static WCnn make_model() {
    return WCnn(model_config(), Matrix(task_->paragram));
  }

  static std::unique_ptr<TrainableClassifier> make_replica() {
    return std::make_unique<WCnn>(model_config(), Matrix(task_->paragram));
  }

  static TrainConfig train_config() {
    TrainConfig config;
    config.epochs = 3;
    return config;
  }

  static ShardConfig three_shards() { return ShardConfig{3, make_replica}; }

  /// Optimizer steps per epoch on one of the three 60-doc shards (mirrors
  /// the trainer's validation-split arithmetic).
  static std::size_t shard_steps_per_epoch() {
    const TrainConfig config = train_config();
    const std::size_t docs = task_->train.docs.size() / 3;
    const std::size_t num_val = static_cast<std::size_t>(
        config.validation_fraction * static_cast<double>(docs));
    return (docs - num_val + kTrainBatchSize - 1) / kTrainBatchSize;
  }

  static SynthTask* task_;
};

SynthTask* ShardedFixture::task_ = nullptr;

// One shard keeps the names a lone trainer always had: the bare snapshot
// path, and the bare "train.loss" fault site (FaultInjector draws per
// effective site, so a "@shard0" suffix would change which steps a
// "train.loss" rule poisons).
TEST_F(ShardedFixture, OneShardKeepsTheBareSnapshotPathAndLossSite) {
  InjectorGuard guard;
  ShardSnapshotFiles files("one_shard");
  ResilienceConfig resilience;
  resilience.snapshot_path = files.base;
  resilience.max_rollbacks = 1;

  FaultInjector::instance().configure("train.loss@shard0:nan:1.0");
  WCnn scoped = make_model();
  const TrainReport unpoisoned =
      train_classifier(scoped, task_->train, train_config(), resilience);
  EXPECT_EQ(unpoisoned.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(unpoisoned.rollbacks, 0u) << "a @shard0 rule fired on one shard";
  ASSERT_EQ(unpoisoned.shards.size(), 1u);
  EXPECT_TRUE(unpoisoned.dead_shards.empty());
  EXPECT_TRUE(file_exists(SnapshotRotation::generation_path(files.base, 1)));
  EXPECT_FALSE(file_exists(files.shard_generation(0, 1)));

  FaultInjector::instance().configure("train.loss:nan:1.0");
  WCnn poisoned_model = make_model();
  const TrainReport poisoned = train_classifier(
      poisoned_model, task_->train, train_config(), ResilienceConfig{});
  EXPECT_EQ(poisoned.termination, TerminationReason::kError);
  EXPECT_GT(poisoned.rollbacks, 0u) << "the bare train.loss rule never fired";
}

// A test-local loop: four steps, a boundary every two, and a tally of the
// steps that ran on a pool worker and on the calling thread.
class ThreadProbeLoop final : public ResumableTraining {
 public:
  bool done() const override { return steps_ >= 4; }
  double step() override {
    ++steps_;
    ++(ThreadPool::current() == nullptr ? caller_steps : pool_steps);
    return 1.0;
  }
  bool at_boundary() const override { return steps_ % 2 == 0; }
  void save_state(std::ostream& out) const override {
    io::write_u64(out, steps_);
  }
  void load_state(std::istream& in) override { steps_ = io::read_u64(in); }
  void on_rollback(double) override {}

  std::size_t caller_steps = 0;
  std::size_t pool_steps = 0;

 private:
  std::size_t steps_ = 0;
};

TEST(SuperviseThreads, OneShardStepsOnTheCallingThreadAndTwoDoNot) {
  ThreadProbeLoop lone;
  std::vector<ShardSpec> one(1);
  one[0].loop = &lone;
  const SupervisorReport single = supervise(one);
  EXPECT_EQ(single.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(lone.caller_steps, 4u);
  EXPECT_EQ(lone.pool_steps, 0u);
  // Its barrier released at once, at both boundaries.
  EXPECT_EQ(single.averaging_rounds, 2u);

  ThreadProbeLoop first;
  ThreadProbeLoop second;
  std::vector<ShardSpec> two(2);
  two[0].loop = &first;
  two[1].loop = &second;
  const SupervisorReport pair = supervise(two);
  EXPECT_EQ(pair.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(pair.averaging_rounds, 2u);
  for (const ThreadProbeLoop* loop : {&first, &second}) {
    EXPECT_EQ(loop->caller_steps, 0u);
    EXPECT_EQ(loop->pool_steps, 4u);
  }
}

TEST_F(ShardedFixture, FixedShardCountIsRunToRunDeterministic) {
  InjectorGuard guard;
  auto run = [](WCnn& model) {
    return train_classifier(model, task_->train, train_config(),
                            ResilienceConfig{}, three_shards());
  };
  WCnn first = make_model();
  const TrainReport a = run(first);
  WCnn second = make_model();
  const TrainReport b = run(second);

  EXPECT_EQ(a.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(b.termination, TerminationReason::kSucceeded);
  EXPECT_GT(a.averaging_rounds, 0u);
  EXPECT_EQ(a.averaging_rounds, b.averaging_rounds);
  EXPECT_EQ(a.result_shard, b.result_shard);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);
  ASSERT_EQ(a.shards.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(a.shards[k].steps, b.shards[k].steps) << "shard " << k;
  }
  // Thread scheduling varies between the runs; the parameters must not.
  expect_params_bitwise_equal(first, second);
}

TEST_F(ShardedFixture, DeadShardDegradesToSurvivors) {
  InjectorGuard guard;
  auto run = [](WCnn& model) {
    // Kill exactly shard 1: the '@'-scoped rule leaves the other shards'
    // sites unmatched, so they never draw from the injector RNG and the
    // run stays deterministic.
    FaultInjector::instance().configure("train.loss@shard1:nan:1.0");
    ResilienceConfig resilience;
    resilience.max_rollbacks = 2;
    return train_classifier(model, task_->train, train_config(), resilience,
                            three_shards());
  };
  WCnn first = make_model();
  const TrainReport a = run(first);

  EXPECT_EQ(a.termination, TerminationReason::kSucceeded);
  ASSERT_EQ(a.dead_shards.size(), 1u);
  EXPECT_EQ(a.dead_shards[0], 1u);
  EXPECT_NE(a.result_shard, 1u);
  EXPECT_EQ(a.shards[1].termination, TerminationReason::kError);
  EXPECT_EQ(a.shards[1].rollbacks, 2u);
  bool degraded_named = false;
  for (const std::string& warning : a.warnings) {
    if (warning.find("degraded") != std::string::npos) degraded_named = true;
  }
  EXPECT_TRUE(degraded_named) << "no warning names the degradation";

  // Degradation is itself deterministic.
  WCnn second = make_model();
  const TrainReport b = run(second);
  EXPECT_EQ(b.dead_shards, a.dead_shards);
  EXPECT_EQ(b.result_shard, a.result_shard);
  expect_params_bitwise_equal(first, second);
}

TEST_F(ShardedFixture, AllShardsDeadReportsError) {
  InjectorGuard guard;
  FaultInjector::instance().configure("train.loss:nan:1.0");
  ResilienceConfig resilience;
  resilience.max_rollbacks = 1;
  WCnn model = make_model();
  const TrainReport report = train_classifier(
      model, task_->train, train_config(), resilience, three_shards());
  EXPECT_EQ(report.termination, TerminationReason::kError);
  EXPECT_EQ(report.dead_shards.size(), 3u);
}

TEST_F(ShardedFixture, StopMidRunThenResumeReplaysBitwise) {
  InjectorGuard guard;
  ShardSnapshotFiles files("budget_stop");

  WCnn reference = make_model();
  const TrainReport full = train_classifier(
      reference, task_->train, train_config(), ResilienceConfig{},
      three_shards());
  EXPECT_EQ(full.termination, TerminationReason::kSucceeded);

  // Per-shard step budget lands mid-epoch 2 (after the first averaging
  // barrier): the first shard over budget drains the whole group and every
  // shard flushes its own snapshot.
  ResilienceConfig stopping;
  stopping.snapshot_path = files.base;
  stopping.max_steps = shard_steps_per_epoch() + 2;
  WCnn interrupted = make_model();
  const TrainReport partial = train_classifier(
      interrupted, task_->train, train_config(), stopping, three_shards());
  EXPECT_EQ(partial.termination, TerminationReason::kStopped);
  EXPECT_EQ(partial.averaging_rounds, 1u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_GE(partial.shards[k].snapshots_written, 1u)
        << "shard " << k << " flushed no snapshot";
    std::FILE* probe =
        std::fopen(files.shard_generation(k, 1).c_str(), "rb");
    EXPECT_NE(probe, nullptr)
        << "missing per-shard snapshot " << files.shard_generation(k, 1);
    if (probe != nullptr) std::fclose(probe);
  }

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming, three_shards());
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.epoch_losses, full.epoch_losses);
  expect_params_bitwise_equal(reference, resumed);
}

TEST_F(ShardedFixture, SigtermDrainsAllShardsAndResumesBitwise) {
  InjectorGuard guard;
  ShardSnapshotFiles files("sigterm");

  // Child process: install the handlers, deliver a real SIGTERM, then start
  // sharded training. Every shard must observe the token, flush, and the
  // run must report kStopped without dying.
  EXPECT_EXIT(
      {
        StopToken::instance().install();
        std::raise(SIGTERM);
        ResilienceConfig resilience;
        resilience.snapshot_path = files.base;
        WCnn model = make_model();
        const TrainReport report = train_classifier(
            model, task_->train, train_config(), resilience, three_shards());
        bool clean_stop = report.termination == TerminationReason::kStopped;
        for (const SupervisorReport& shard : report.shards) {
          clean_stop = clean_stop && shard.snapshots_written >= 1;
        }
        std::_Exit(clean_stop ? 5 : 1);
      },
      ::testing::ExitedWithCode(5), "");

  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config(),
                   ResilienceConfig{}, three_shards());

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming, three_shards());
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  expect_params_bitwise_equal(reference, resumed);
}

// Uneven shards: with 143 documents over two shards, shard 0 runs five
// optimizer steps per epoch and shard 1 runs four. A budget of four lets
// shard 1 finish its epoch and park at the averaging barrier while shard 0
// stops mid-epoch — the drain must flush the parked shard with its
// barrier-pending flag set, and resume must replay the round bitwise.
TEST(ShardedUneven, ShardParkedAtBarrierDrainsAndResumesBitwise) {
  InjectorGuard guard;
  ShardSnapshotFiles files("parked");
  const SynthTask task = make_small_task(73, 143);
  WCnnConfig model_config;
  model_config.embed_dim = task.config.embedding_dim;
  model_config.num_filters = 8;
  auto make_replica = [&]() -> std::unique_ptr<TrainableClassifier> {
    return std::make_unique<WCnn>(model_config, Matrix(task.paragram));
  };
  TrainConfig config;
  config.epochs = 2;

  WCnn reference(model_config, Matrix(task.paragram));
  const TrainReport full = train_classifier(
      reference, task.train, config, ResilienceConfig{},
      ShardConfig{2, make_replica});
  EXPECT_EQ(full.termination, TerminationReason::kSucceeded);

  ResilienceConfig stopping;
  stopping.snapshot_path = files.base;
  stopping.max_steps = 4;
  WCnn interrupted(model_config, Matrix(task.paragram));
  const TrainReport partial = train_classifier(
      interrupted, task.train, config, stopping, ShardConfig{2, make_replica});
  EXPECT_EQ(partial.termination, TerminationReason::kStopped);
  // The budget hits before the first barrier completes: no averaging.
  EXPECT_EQ(partial.averaging_rounds, 0u);

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed(model_config, Matrix(task.paragram));
  const TrainReport rest = train_classifier(
      resumed, task.train, config, resuming, ShardConfig{2, make_replica});
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.averaging_rounds, full.averaging_rounds);
  expect_params_bitwise_equal(reference, resumed);
}

}  // namespace
}  // namespace advtext

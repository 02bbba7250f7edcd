// Resilient-training tests: snapshot/resume bitwise equality, divergence
// rollback with learning-rate backoff, cooperative shutdown via StopToken,
// and corruption-safe snapshot generations.
#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/data/synthetic.h"
#include "src/nn/supervisor.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/text/skipgram.h"
#include "src/util/robust.h"
#include "src/util/serialize.h"
#include "src/util/stop_token.h"
#include "tests/state_dir.h"

namespace advtext {
namespace {

// Restores the environment-driven injector configuration when a test that
// armed its own spec finishes (the CI fault-injection leg relies on the
// ADVTEXT_INJECT setting staying live between tests).
struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().configure(""); }
  ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
};

/// Snapshot base path in a per-process directory that goes with the test.
struct SnapshotFiles {
  explicit SnapshotFiles(const std::string& name)
      : file("advtext_supervisor_", name), base(file.path()) {}
  std::string generation(std::size_t gen) const {
    return SnapshotRotation::generation_path(base, gen);
  }
  ScopedTempFile file;
  std::string base;
};

void flip_payload_byte(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x40;  // payload byte: footer stays intact
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

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

class SupervisorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config = make_yelp(61).config;
    config.seed = 61;
    config.num_train = 240;
    config.num_test = 40;
    config.min_sentences = 3;
    config.max_sentences = 5;
    config.min_words_per_sentence = 5;
    config.max_words_per_sentence = 9;
    task_ = new SynthTask(make_task(config));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
  }

  static WCnn make_model() {
    WCnnConfig config;
    config.embed_dim = task_->config.embedding_dim;
    config.num_filters = 16;
    return WCnn(config, Matrix(task_->paragram));
  }

  static TrainConfig train_config() {
    TrainConfig config;
    config.epochs = 4;
    return config;
  }

  /// Optimizer steps per epoch under train_config()'s split (mirrors the
  /// trainer's validation-split arithmetic; the synthetic generator never
  /// emits empty documents).
  static std::size_t steps_per_epoch() {
    const TrainConfig config = train_config();
    const std::size_t num_val = static_cast<std::size_t>(
        config.validation_fraction *
        static_cast<double>(task_->train.docs.size()));
    const std::size_t train_docs = task_->train.docs.size() - num_val;
    return (train_docs + kTrainBatchSize - 1) / kTrainBatchSize;
  }

  static SynthTask* task_;
};

SynthTask* SupervisorFixture::task_ = nullptr;

TEST_F(SupervisorFixture, DefaultResilienceMatchesPlainTrainer) {
  InjectorGuard guard;
  WCnn plain = make_model();
  const TrainReport a = train_classifier(plain, task_->train, train_config());

  WCnn supervised = make_model();
  const TrainReport b = train_classifier(supervised, task_->train,
                                         train_config(), ResilienceConfig{});
  EXPECT_EQ(b.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);
  EXPECT_EQ(a.best_validation_accuracy, b.best_validation_accuracy);
  EXPECT_EQ(b.rollbacks, 0u);
  EXPECT_EQ(b.snapshots_written, 0u);  // no snapshot path configured
  expect_params_bitwise_equal(plain, supervised);
}

TEST_F(SupervisorFixture, KillMidEpochThenResumeIsBitwiseIdentical) {
  InjectorGuard guard;
  SnapshotFiles files("mid_epoch");

  WCnn reference = make_model();
  const TrainReport full =
      train_classifier(reference, task_->train, train_config());

  // Simulated kill mid-epoch 2: the stop flushes the exact cursor state.
  ResilienceConfig stopping;
  stopping.snapshot_path = files.base;
  stopping.max_steps = steps_per_epoch() + 3;
  WCnn interrupted = make_model();
  const TrainReport partial = train_classifier(
      interrupted, task_->train, train_config(), stopping);
  EXPECT_EQ(partial.termination, TerminationReason::kStopped);
  EXPECT_GE(partial.snapshots_written, 1u);

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(rest.epoch_losses, full.epoch_losses);
  EXPECT_EQ(rest.best_validation_accuracy, full.best_validation_accuracy);
  expect_params_bitwise_equal(reference, resumed);
}

TEST_F(SupervisorFixture, HardKillReplaysFromLastBoundarySnapshot) {
  InjectorGuard guard;
  SnapshotFiles files("hard_kill");

  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config());

  // flush_on_stop=false simulates SIGKILL: the mid-epoch state is lost and
  // resume must replay from the last epoch-boundary snapshot.
  ResilienceConfig killed;
  killed.snapshot_path = files.base;
  killed.max_steps = steps_per_epoch() + 3;
  killed.flush_on_stop = false;
  WCnn interrupted = make_model();
  const TrainReport partial = train_classifier(
      interrupted, task_->train, train_config(), killed);
  EXPECT_EQ(partial.termination, TerminationReason::kStopped);
  EXPECT_EQ(partial.snapshots_written, 1u);  // epoch-1 boundary only

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming);
  EXPECT_TRUE(rest.resumed);
  expect_params_bitwise_equal(reference, resumed);
}

TEST_F(SupervisorFixture, BitFlippedNewestGenerationFallsBackToPrevious) {
  InjectorGuard guard;
  SnapshotFiles files("bit_flip");

  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config());

  // Two epoch-boundary generations on disk, then a hard stop mid-epoch 3.
  ResilienceConfig stopping;
  stopping.snapshot_path = files.base;
  stopping.max_steps = 2 * steps_per_epoch() + 3;
  stopping.flush_on_stop = false;
  WCnn interrupted = make_model();
  const TrainReport partial = train_classifier(
      interrupted, task_->train, train_config(), stopping);
  EXPECT_EQ(partial.snapshots_written, 2u);

  flip_payload_byte(files.generation(1));

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  // The rejected generation and the fallback are both named in warnings.
  bool rejected_named = false;
  bool fallback_named = false;
  for (const std::string& warning : rest.warnings) {
    if (warning.find("generation 1") != std::string::npos &&
        warning.find("rejected") != std::string::npos) {
      rejected_named = true;
    }
    if (warning.find("generation 2") != std::string::npos) {
      fallback_named = true;
    }
  }
  EXPECT_TRUE(rejected_named) << "no warning names the rejected generation";
  EXPECT_TRUE(fallback_named) << "no warning names the fallback generation";
  expect_params_bitwise_equal(reference, resumed);
}

TEST_F(SupervisorFixture, AllGenerationsCorruptFallsBackToFreshStart) {
  InjectorGuard guard;
  SnapshotFiles files("all_corrupt");

  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config());

  ResilienceConfig stopping;
  stopping.snapshot_path = files.base;
  stopping.max_steps = 2 * steps_per_epoch() + 3;
  stopping.flush_on_stop = false;
  WCnn interrupted = make_model();
  train_classifier(interrupted, task_->train, train_config(), stopping);

  flip_payload_byte(files.generation(1));
  flip_payload_byte(files.generation(2));

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming);
  EXPECT_FALSE(rest.resumed);
  EXPECT_GE(rest.warnings.size(), 3u);  // two rejections + fresh-start note
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  // Fresh start is deterministic: identical to the uninterrupted run.
  expect_params_bitwise_equal(reference, resumed);
}

// The loop's state alone, without the supervisor's tagged header in front
// of it, is the layout serial snapshots had before every shard count
// shared one. Resume refuses it by the tag's name and starts fresh.
TEST_F(SupervisorFixture, UntaggedSnapshotIsRefusedByItsTagAndStartsFresh) {
  InjectorGuard guard;
  SnapshotFiles files("untagged");

  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config());

  // A stop inside epoch 1 leaves one generation: the flushed stop.
  ResilienceConfig stopping;
  stopping.snapshot_path = files.base;
  stopping.max_steps = 3;
  WCnn interrupted = make_model();
  const TrainReport partial = train_classifier(
      interrupted, task_->train, train_config(), stopping);
  ASSERT_EQ(partial.termination, TerminationReason::kStopped);
  ASSERT_EQ(partial.snapshots_written, 1u);

  // Keep the payload from the loop's own magic on, in a fresh envelope, so
  // only the layout is wrong.
  const std::string payload = io::load_artifact(files.generation(1));
  const std::size_t loop_state = payload.find(
      std::string(io::kMagic, sizeof(io::kMagic)), sizeof(io::kMagic));
  ASSERT_NE(loop_state, std::string::npos);
  io::save_artifact(files.generation(1), payload.substr(loop_state));

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming);
  EXPECT_FALSE(rest.resumed);
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  bool tag_named = false;
  for (const std::string& warning : rest.warnings) {
    if (warning.find("rejected") != std::string::npos &&
        warning.find("'train-snapshot-v1'") != std::string::npos) {
      tag_named = true;
    }
  }
  EXPECT_TRUE(tag_named) << "no warning names the snapshot tag";
  expect_params_bitwise_equal(reference, resumed);
}

TEST_F(SupervisorFixture, InjectedNanRollsBackAndStillConverges) {
  InjectorGuard guard;
  WCnn clean = make_model();
  const TrainReport baseline =
      train_classifier(clean, task_->train, train_config());

  FaultInjector::instance().configure("train.loss:nan:0.1", /*seed=*/9);
  ResilienceConfig resilience;
  resilience.max_rollbacks = 64;
  resilience.snapshot_every = 2;  // tight rollback targets, memory-only
  WCnn survivor = make_model();
  const TrainReport report = train_classifier(
      survivor, task_->train, train_config(), resilience);
  EXPECT_EQ(report.termination, TerminationReason::kSucceeded);
  EXPECT_GT(report.rollbacks, 0u);
  // Rollback + LR backoff must preserve seed-level validation accuracy.
  EXPECT_GE(report.best_validation_accuracy,
            baseline.best_validation_accuracy - 0.1);
}

TEST_F(SupervisorFixture, RollbackCapExhaustionReportsError) {
  InjectorGuard guard;
  FaultInjector::instance().configure("train.loss:nan:1.0");
  ResilienceConfig resilience;
  resilience.max_rollbacks = 2;
  WCnn model = make_model();
  const TrainReport report = train_classifier(
      model, task_->train, train_config(), resilience);
  EXPECT_EQ(report.termination, TerminationReason::kError);
  EXPECT_EQ(report.rollbacks, 2u);
  EXPECT_FALSE(report.warnings.empty());
}

TEST_F(SupervisorFixture, SnapshotWriteFailureDegradesWithoutLosingTheRun) {
  InjectorGuard guard;
  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config());

  SnapshotFiles files("write_fail");
  FaultInjector::instance().configure("ckpt.write:1.0");
  ResilienceConfig resilience;
  resilience.snapshot_path = files.base;
  WCnn model = make_model();
  const TrainReport report = train_classifier(
      model, task_->train, train_config(), resilience);
  EXPECT_EQ(report.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(report.snapshots_written, 0u);
  EXPECT_GT(report.snapshot_write_failures, 0u);
  EXPECT_FALSE(report.warnings.empty());
  // Snapshot failures must not perturb the training trajectory.
  expect_params_bitwise_equal(reference, model);
}

TEST_F(SupervisorFixture, TransientSnapshotWriteFailuresAreRetriedAway) {
  InjectorGuard guard;
  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config());

  // Flaky (not dead) disk: each write attempt fails with p=0.5, so most
  // publishes succeed within RetryPolicy's attempt budget.
  SnapshotFiles files("write_retry");
  FaultInjector::instance().configure("ckpt.write:throw:0.5", /*seed=*/97);
  ResilienceConfig resilience;
  resilience.snapshot_path = files.base;
  WCnn model = make_model();
  const TrainReport report = train_classifier(
      model, task_->train, train_config(), resilience);
  EXPECT_EQ(report.termination, TerminationReason::kSucceeded);
  EXPECT_GT(report.snapshots_written, 0u);
  EXPECT_GT(report.snapshot_write_retries, 0u);
  // Retries (and the odd exhausted publish) must not perturb training.
  expect_params_bitwise_equal(reference, model);
}

TEST_F(SupervisorFixture, ResumeOfFinishedRunIsANoOp) {
  InjectorGuard guard;
  SnapshotFiles files("finished");
  ResilienceConfig resilience;
  resilience.snapshot_path = files.base;
  WCnn reference = make_model();
  const TrainReport full = train_classifier(
      reference, task_->train, train_config(), resilience);
  EXPECT_EQ(full.termination, TerminationReason::kSucceeded);

  ResilienceConfig resuming = resilience;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport again = train_classifier(
      resumed, task_->train, train_config(), resuming);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(again.epoch_losses, full.epoch_losses);
  expect_params_bitwise_equal(reference, resumed);
}

TEST_F(SupervisorFixture, TinyClipNormCountsClippedSteps) {
  InjectorGuard guard;
  TrainConfig config = train_config();
  config.epochs = 1;
  config.clip_norm = 1e-3;
  WCnn model = make_model();
  const TrainReport report = train_classifier(model, task_->train, config);
  EXPECT_EQ(report.clipped_steps, steps_per_epoch());
}

TEST_F(SupervisorFixture, SigtermFlushesSnapshotAndExitsDistinctly) {
  InjectorGuard guard;
  SnapshotFiles files("sigterm");

  // Child process: install the handlers, deliver a real SIGTERM, then start
  // training. The supervisor must observe the flag, flush a snapshot, and
  // report kStopped with the signal number — all without dying.
  EXPECT_EXIT(
      {
        StopToken::instance().install();
        std::raise(SIGTERM);
        ResilienceConfig resilience;
        resilience.snapshot_path = files.base;
        WCnn model = make_model();
        const TrainReport report = train_classifier(
            model, task_->train, train_config(), resilience);
        const bool clean_stop =
            report.termination == TerminationReason::kStopped &&
            report.snapshots_written == 1;
        std::_Exit(clean_stop ? 5 : 1);
      },
      ::testing::ExitedWithCode(5), "");

  // The child's flushed snapshot is readable from this process: resuming it
  // completes training bitwise-identically to an uninterrupted run.
  WCnn reference = make_model();
  train_classifier(reference, task_->train, train_config());
  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  WCnn resumed = make_model();
  const TrainReport rest = train_classifier(
      resumed, task_->train, train_config(), resuming);
  EXPECT_TRUE(rest.resumed);
  expect_params_bitwise_equal(reference, resumed);
}

TEST_F(SupervisorFixture, StopTokenRequestStopsBetweenSteps) {
  InjectorGuard guard;
  StopToken::instance().request_stop(SIGINT);
  ResilienceConfig resilience;
  WCnn model = make_model();
  const TrainReport report = train_classifier(
      model, task_->train, train_config(), resilience);
  StopToken::instance().clear();
  EXPECT_EQ(report.termination, TerminationReason::kStopped);
  EXPECT_EQ(report.epochs_run, 0u);
}

TEST(SkipGramResilience, KillAndResumeReproducesEmbeddingsBitwise) {
  InjectorGuard guard;
  SnapshotFiles files("skipgram");
  SynthConfig config = make_yelp(29).config;
  config.seed = 29;
  config.num_train = 80;
  config.num_test = 10;
  const SynthTask task = make_task(config);
  const std::size_t vocab = static_cast<std::size_t>(task.vocab.size());

  SkipGramConfig sg;
  sg.epochs = 6;
  const Matrix reference = train_skipgram(task.train, vocab, sg);

  ResilienceConfig stopping;
  stopping.snapshot_path = files.base;
  stopping.max_steps = 3;  // one step = one epoch
  SkipGramReport partial;
  train_skipgram(task.train, vocab, sg, stopping, &partial);
  EXPECT_EQ(partial.termination, TerminationReason::kStopped);
  EXPECT_EQ(partial.epochs_run, 3u);

  ResilienceConfig resuming;
  resuming.snapshot_path = files.base;
  resuming.resume = true;
  SkipGramReport rest;
  const Matrix resumed =
      train_skipgram(task.train, vocab, sg, resuming, &rest);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(rest.epochs_run, 6u);
  EXPECT_EQ(rest.epoch_losses.size(), 6u);
  EXPECT_EQ(resumed, reference);
}

TEST(FaultInjectorSpec, SemicolonAndCommaSeparatorsAreEquivalent) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  injector.configure("x:nan:1.0;y:1.0");
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(std::isnan(injector.poison("x", 1.0)));
  EXPECT_THROW(injector.maybe_fault("y"), InjectedFault);
  // The ISSUE-style CI spec parses as-is.
  injector.configure("train.loss:nan:0.02;ckpt.write:throw:0.05");
  EXPECT_TRUE(injector.enabled());
}

}  // namespace
}  // namespace advtext

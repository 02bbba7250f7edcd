// Attack-sweep tests across worker counts: evaluate_attack must be
// observationally identical at every thread count — bitwise-equal records,
// results and checkpoints (timing fields excepted), one-worker and K-worker
// runs resuming each other's checkpoints, a shared sweep-wide query budget,
// SIGTERM draining to a valid in-order-prefix checkpoint, per-document
// fault isolation surviving concurrency, and concurrent sweeps on one
// context keeping their own WMD tallies.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/pipeline.h"
#include "src/nn/checkpoint.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/util/robust.h"
#include "src/util/stop_token.h"
#include "src/util/sync.h"
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

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

void copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary);
  out << in.rdbuf();
}

// Forwards every oracle to the wrapped classifier bitwise (the swap
// evaluator and gradients come straight from the inner model, so attack
// numerics are untouched) but counts predict_proba calls down on a shared
// counter and raises SIGTERM on the call that reaches zero — a
// deterministic way to deliver a stop request mid-sweep. Wrappers sharing
// one counter count every worker's calls.
class SigtermAfterNCalls : public TextClassifier {
 public:
  SigtermAfterNCalls(const TextClassifier& inner,
                     std::atomic<std::size_t>& remaining)
      : inner_(inner), remaining_(remaining) {}

  std::size_t num_classes() const override { return inner_.num_classes(); }
  std::size_t embedding_dim() const override {
    return inner_.embedding_dim();
  }
  const Matrix& embedding_table() const override {
    return inner_.embedding_table();
  }
  Vector predict_proba(const TokenSeq& tokens) const override {
    if (remaining_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      std::raise(SIGTERM);
    }
    return inner_.predict_proba(tokens);
  }
  Matrix input_gradient(const TokenSeq& tokens, std::size_t target,
                        Vector* proba = nullptr) const override {
    return inner_.input_gradient(tokens, target, proba);
  }
  std::unique_ptr<SwapEvaluator> make_swap_evaluator(
      const TokenSeq& base) const override {
    return inner_.make_swap_evaluator(base);
  }

 private:
  const TextClassifier& inner_;
  std::atomic<std::size_t>& remaining_;
};

// Everything except the timing fields (mean_seconds_per_doc and
// attacks[i].seconds are measurements, not replayable state) must be
// bitwise identical between a serial run, a parallel run, and any
// checkpoint-resumed combination of the two.
void expect_results_bitwise_equal(const AttackEvalResult& a,
                                  const AttackEvalResult& b) {
  EXPECT_EQ(a.clean_accuracy, b.clean_accuracy);
  EXPECT_EQ(a.adversarial_accuracy, b.adversarial_accuracy);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.mean_words_changed, b.mean_words_changed);
  EXPECT_EQ(a.mean_sentences_changed, b.mean_sentences_changed);
  EXPECT_EQ(a.mean_queries, b.mean_queries);
  EXPECT_EQ(a.docs_attacked, b.docs_attacked);
  EXPECT_EQ(a.docs_evaluated, b.docs_evaluated);
  EXPECT_EQ(a.docs_failed, b.docs_failed);
  EXPECT_EQ(a.failed_indices, b.failed_indices);
  EXPECT_EQ(a.docs_retried, b.docs_retried);
  EXPECT_EQ(a.docs_deadline, b.docs_deadline);
  EXPECT_EQ(a.docs_budget, b.docs_budget);
  EXPECT_EQ(a.wmd_degradations.to_sinkhorn, b.wmd_degradations.to_sinkhorn);
  EXPECT_EQ(a.wmd_degradations.to_lower_bound,
            b.wmd_degradations.to_lower_bound);
  EXPECT_EQ(a.attacked_indices, b.attacked_indices);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_EQ(a.sweep_queries_used, b.sweep_queries_used);
  ASSERT_EQ(a.adv_docs.size(), b.adv_docs.size());
  for (std::size_t i = 0; i < a.adv_docs.size(); ++i) {
    EXPECT_EQ(a.adv_docs[i].flatten(), b.adv_docs[i].flatten())
        << "adv doc " << i << " diverged";
    EXPECT_EQ(a.adv_docs[i].label, b.adv_docs[i].label);
  }
  ASSERT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    EXPECT_EQ(a.attacks[i].success, b.attacks[i].success);
    EXPECT_EQ(a.attacks[i].termination, b.attacks[i].termination);
    EXPECT_EQ(a.attacks[i].final_target_proba,
              b.attacks[i].final_target_proba);
    EXPECT_EQ(a.attacks[i].sentences_changed, b.attacks[i].sentences_changed);
    EXPECT_EQ(a.attacks[i].words_changed, b.attacks[i].words_changed);
    EXPECT_EQ(a.attacks[i].queries, b.attacks[i].queries)
        << "attack " << i << " query count diverged";
    EXPECT_EQ(a.attacks[i].adv_doc.flatten(), b.attacks[i].adv_doc.flatten());
  }
}

// Small trained model shared by every test; replicas are fresh WCnns with
// the trained weights copied in (the replica-factory contract).
class ParallelPipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config = make_yelp(67).config;
    config.seed = 67;
    config.num_train = 300;
    config.num_test = 60;
    config.min_sentences = 3;
    config.max_sentences = 5;
    config.min_words_per_sentence = 5;
    config.max_words_per_sentence = 9;
    task_ = new SynthTask(make_task(config));
    context_ = new TaskAttackContext(*task_);
    model_ = new WCnn(wcnn_config(), Matrix(task_->paragram));
    TrainConfig train;
    train.epochs = 6;
    train_classifier(*model_, task_->train, train);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete context_;
    delete task_;
    model_ = nullptr;
    context_ = nullptr;
    task_ = nullptr;
  }

  static WCnnConfig wcnn_config() {
    WCnnConfig config;
    config.embed_dim = task_->config.embedding_dim;
    config.num_filters = 24;
    return config;
  }

  static std::unique_ptr<TextClassifier> make_replica() {
    auto replica =
        std::make_unique<WCnn>(wcnn_config(), Matrix(task_->paragram));
    copy_model_params(*model_, *replica);
    return replica;
  }

  static AttackEvalConfig sweep_config(std::size_t threads,
                                       std::size_t max_docs) {
    AttackEvalConfig config;
    config.max_docs = max_docs;
    config.threads = threads;
    if (threads > 1) {
      config.make_model_replica = [] { return make_replica(); };
    }
    return config;
  }

  static AttackEvalResult run(const AttackEvalConfig& config) {
    return evaluate_attack(*model_, *task_, *context_, config);
  }

  // The sweep's on_commit stream in write_record bytes: every committed
  // record, including the per-record wmd_to_* fields that the aggregate
  // comparison folds into two sums.
  static std::string run_recorded(AttackEvalConfig config,
                                  AttackEvalResult* result = nullptr) {
    std::ostringstream records;
    config.on_commit = [&records](const DocRecord& record) {
      write_record(records, record);
    };
    AttackEvalResult swept = run(config);
    if (result != nullptr) *result = std::move(swept);
    return records.str();
  }

  static SynthTask* task_;
  static TaskAttackContext* context_;
  static WCnn* model_;
};

SynthTask* ParallelPipelineFixture::task_ = nullptr;
TaskAttackContext* ParallelPipelineFixture::context_ = nullptr;
WCnn* ParallelPipelineFixture::model_ = nullptr;

TEST(SweepQueryBudget, ChargeUpToClampsAtTheCap) {
  QueryBudget budget(10);
  EXPECT_EQ(budget.charge_up_to(6), 6u);
  EXPECT_EQ(budget.charge_up_to(7), 4u);  // clamped: only 4 left
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.charge_up_to(3), 0u);
  EXPECT_EQ(budget.used(), 10u);  // accounted total never exceeds the cap

  QueryBudget unlimited;
  EXPECT_EQ(unlimited.charge_up_to(1'000), 1'000u);
  EXPECT_FALSE(unlimited.exhausted());
}

TEST_F(ParallelPipelineFixture, WmdCopyStartsAFreshDegradationTally) {
  InjectorGuard guard;
  Wmd original(context_->wmd());
  // Force the exact solver to fail: every distance() degrades to Sinkhorn
  // and the per-instance tally records it.
  FaultInjector::instance().configure("transport.exact:1.0", /*seed=*/7);
  const Sentence& a = task_->test.docs[0].sentences.front();
  const Sentence& b = task_->test.docs[1].sentences.front();
  (void)original.distance(a, b);
  EXPECT_GT(original.degradation().total(), 0u);

  // The copy shares embeddings and method but not the tally — per-worker
  // copies in the parallel sweep must attribute degradations per doc.
  Wmd copy(original);
  EXPECT_EQ(copy.degradation().total(), 0u);
  EXPECT_EQ(copy.method(), original.method());
  (void)copy.distance(a, b);
  EXPECT_GT(copy.degradation().total(), 0u);

  const WmdDegradation before = original.degradation();
  original.reset_degradation();
  EXPECT_EQ(original.degradation().total(), 0u);
  EXPECT_GT(before.total(), 0u);  // snapshot is by value, unaffected
}

// One worker (on the calling thread) and K workers run the same sweep: the
// committed records match byte for byte, and so do the aggregates.
TEST_F(ParallelPipelineFixture, ParallelSweepMatchesSerialBitwise) {
  InjectorGuard guard;
  AttackEvalResult serial;
  const std::string serial_records = run_recorded(sweep_config(1, 12), &serial);
  EXPECT_EQ(serial.termination, TerminationReason::kSucceeded);
  EXPECT_EQ(serial.docs_evaluated, 12u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    AttackEvalResult parallel;
    EXPECT_EQ(run_recorded(sweep_config(threads, 12), &parallel),
              serial_records);
    expect_results_bitwise_equal(serial, parallel);
  }
}

// Two one-worker sweeps running at once on one context, as the daemon's
// workers run its jobs, must each commit exactly a solo sweep's records.
// Every exact WMD solve degrades here, so each record's wmd_to_sinkhorn
// counts its own document's solves — and any tally the sweeps shared
// would leak one sweep's degradations into the other's records.
TEST_F(ParallelPipelineFixture, ConcurrentSweepsKeepTheirOwnWmdTally) {
  InjectorGuard guard;
  FaultInjector::instance().configure("transport.exact:1.0", /*seed=*/7);
  AttackEvalResult solo_result;
  const std::string solo = run_recorded(sweep_config(1, 12), &solo_result);
  ASSERT_GT(solo_result.wmd_degradations.to_sinkhorn, 0u);

  std::string concurrent[2];
  {
    ThreadPool pool(2);
    for (std::string& records : concurrent) {
      (void)pool.submit(
          [&records] { records = run_recorded(sweep_config(1, 12)); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(concurrent[0], solo);
  EXPECT_EQ(concurrent[1], solo);
}

TEST_F(ParallelPipelineFixture, SerialAndParallelResumeEachOther) {
  InjectorGuard guard;
  const ScopedTempFile serial_file("advtext_parallel_", "serial_ckpt.bin");
  const ScopedTempFile parallel_file("advtext_parallel_", "parallel_ckpt.bin");
  const std::string& serial_ckpt = serial_file.path();
  const std::string& parallel_ckpt = parallel_file.path();

  const AttackEvalResult reference = run(sweep_config(1, 10));

  // Serial checkpoint, parallel resume.
  AttackEvalConfig partial = sweep_config(1, 4);
  partial.checkpoint_path = serial_ckpt;
  partial.checkpoint_every = 2;
  run(partial);
  AttackEvalConfig resumed = sweep_config(4, 10);
  resumed.checkpoint_path = serial_ckpt;
  resumed.checkpoint_every = 2;
  resumed.resume = true;
  {
    SCOPED_TRACE("serial checkpoint resumed under threads=4");
    expect_results_bitwise_equal(reference, run(resumed));
  }

  // Parallel checkpoint, serial resume.
  AttackEvalConfig parallel_partial = sweep_config(4, 4);
  parallel_partial.checkpoint_path = parallel_ckpt;
  parallel_partial.checkpoint_every = 2;
  run(parallel_partial);
  AttackEvalConfig serial_resumed = sweep_config(1, 10);
  serial_resumed.checkpoint_path = parallel_ckpt;
  serial_resumed.checkpoint_every = 2;
  serial_resumed.resume = true;
  {
    SCOPED_TRACE("parallel checkpoint resumed under threads=1");
    expect_results_bitwise_equal(reference, run(serial_resumed));
  }

}

TEST_F(ParallelPipelineFixture, SweepBudgetCapsAdmissionAndResumes) {
  InjectorGuard guard;
  const ScopedTempFile file("advtext_parallel_", "budget_ckpt.bin");
  const std::string& path = file.path();

  const AttackEvalResult reference = run(sweep_config(1, 10));
  ASSERT_GT(reference.sweep_queries_used, 0u);
  const std::size_t cap = reference.sweep_queries_used * 2 / 5;

  // Serial capped run: stops early, under the cap, with a resumable
  // checkpoint.
  AttackEvalConfig capped = sweep_config(1, 10);
  capped.sweep_max_queries = cap;
  capped.checkpoint_path = path;
  capped.checkpoint_every = 1;
  const AttackEvalResult serial_capped = run(capped);
  EXPECT_EQ(serial_capped.termination, TerminationReason::kBudgetExhausted);
  EXPECT_LE(serial_capped.sweep_queries_used, cap);
  EXPECT_GE(serial_capped.docs_evaluated, 1u);
  EXPECT_LT(serial_capped.docs_evaluated, reference.docs_evaluated);

  // Parallel capped run (fresh sweep): the cap is shared by all workers.
  // Admission control means in-flight documents drain, so the stop *point*
  // may sit a few documents past the serial one — but the accounted total
  // still never exceeds the cap.
  AttackEvalConfig parallel_capped = sweep_config(4, 10);
  parallel_capped.sweep_max_queries = cap;
  const AttackEvalResult parallel_result = run(parallel_capped);
  EXPECT_EQ(parallel_result.termination,
            TerminationReason::kBudgetExhausted);
  EXPECT_LE(parallel_result.sweep_queries_used, cap);
  EXPECT_GE(parallel_result.docs_evaluated, 1u);

  // Resuming under the same cap replays the recorded charges and stops
  // immediately: the cap bounds the whole logical sweep, not per process.
  AttackEvalConfig still_capped = capped;
  still_capped.resume = true;
  const AttackEvalResult stalled = run(still_capped);
  EXPECT_EQ(stalled.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(stalled.docs_evaluated, serial_capped.docs_evaluated);
  EXPECT_LE(stalled.sweep_queries_used, cap);

  // Lifting the cap on resume completes the sweep bitwise-identically to
  // the never-capped reference, across the serial/parallel boundary.
  AttackEvalConfig lifted = sweep_config(4, 10);
  lifted.checkpoint_path = path;
  lifted.checkpoint_every = 1;
  lifted.resume = true;
  {
    SCOPED_TRACE("capped serial checkpoint resumed uncapped under threads=4");
    expect_results_bitwise_equal(reference, run(lifted));
  }

}

TEST_F(ParallelPipelineFixture, SigtermDrainsToInOrderPrefixAndResumes) {
  InjectorGuard guard;
  const ScopedTempFile file("advtext_parallel_", "sigterm_ckpt.bin");
  const std::string& path = file.path();
  const std::string path_copy = path + ".copy";

  const AttackEvalResult reference = run(sweep_config(1, 10));

  // Child process: install the stop token, then run a 2-worker sweep whose
  // models deliver a real SIGTERM a few oracle calls into the sweep
  // (evaluate_attack first spends one predict per test document on clean
  // accuracy). The primary and its replica count down one counter, so the
  // stop lands early whichever worker makes the calls. In-flight documents
  // must drain, the committed prefix must be checkpointed, and the run
  // must report kStopped without dying.
  const std::size_t raise_after = task_->test.docs.size() + 4;
  EXPECT_EXIT(
      {
        StopToken::instance().install();
        std::atomic<std::size_t> remaining{raise_after};
        const SigtermAfterNCalls raising(*model_, remaining);
        std::vector<std::unique_ptr<TextClassifier>> inner_replicas;
        AttackEvalConfig config = sweep_config(2, 10);
        config.make_model_replica = [&]() -> std::unique_ptr<TextClassifier> {
          inner_replicas.push_back(make_replica());
          return std::make_unique<SigtermAfterNCalls>(*inner_replicas.back(),
                                                      remaining);
        };
        config.checkpoint_path = path;
        config.checkpoint_every = 1;
        const AttackEvalResult r =
            evaluate_attack(raising, *task_, *context_, config);
        const bool drained =
            r.termination == TerminationReason::kStopped &&
            r.docs_evaluated >= 1 && r.docs_evaluated < 10 &&
            file_exists(path);
        std::_Exit(drained ? 5 : 1);
      },
      ::testing::ExitedWithCode(5), "");

  // The checkpoint the killed run left behind is a contiguous in-order
  // prefix: resuming it — serially or in parallel — must reproduce the
  // uninterrupted run bitwise. (An out-of-order or gapped prefix would
  // replay the wrong documents and diverge.)
  ASSERT_TRUE(file_exists(path));
  copy_file(path, path_copy);

  AttackEvalConfig serial_resume = sweep_config(1, 10);
  serial_resume.checkpoint_path = path;
  serial_resume.checkpoint_every = 1;
  serial_resume.resume = true;
  {
    SCOPED_TRACE("sigterm checkpoint resumed under threads=1");
    expect_results_bitwise_equal(reference, run(serial_resume));
  }

  AttackEvalConfig parallel_resume = sweep_config(2, 10);
  parallel_resume.checkpoint_path = path_copy;
  parallel_resume.checkpoint_every = 1;
  parallel_resume.resume = true;
  {
    SCOPED_TRACE("sigterm checkpoint resumed under threads=2");
    expect_results_bitwise_equal(reference, run(parallel_resume));
  }

}

TEST_F(ParallelPipelineFixture, WmdFaultsStayIsolatedPerDocAcrossWorkers) {
  InjectorGuard guard;
  const AttackEvalResult clean = run(sweep_config(2, 24));

  // 20% of WMD evaluations throw. Which documents fail depends on the
  // shared draw sequence (scheduling-dependent under threads), but fault
  // *isolation* must hold regardless: every surviving document matches the
  // injection-free run exactly, and failed documents keep their original
  // text — concurrency must not let one document's fault bleed into
  // another's result.
  FaultInjector::instance().configure("wmd.distance:0.2", /*seed=*/23);
  const AttackEvalResult faulty = run(sweep_config(2, 24));
  EXPECT_EQ(faulty.docs_evaluated, 24u);
  EXPECT_EQ(faulty.adv_docs.size(), clean.adv_docs.size());
  EXPECT_GT(faulty.docs_failed, 0u);
  EXPECT_EQ(faulty.failed_indices.size(), faulty.docs_failed);
  std::vector<bool> failed(task_->test.docs.size(), false);
  for (const std::size_t idx : faulty.failed_indices) failed[idx] = true;
  for (std::size_t i = 0; i < faulty.adv_docs.size(); ++i) {
    if (failed[i]) {
      EXPECT_EQ(faulty.adv_docs[i].flatten(), task_->test.docs[i].flatten());
      EXPECT_EQ(faulty.adv_docs[i].label, task_->test.docs[i].label);
    } else {
      EXPECT_EQ(faulty.adv_docs[i].flatten(), clean.adv_docs[i].flatten())
          << "surviving doc " << i << " diverged from the clean run";
    }
  }
}

// No InjectorGuard: this test runs under whatever ADVTEXT_INJECT spec is
// live, so the CI fault-injection leg exercises the parallel drain paths
// (worker exception stash, in-order commit past failed docs) under random
// faults. No determinism claims — just structural invariants.
TEST_F(ParallelPipelineFixture, ParallelSweepSurvivesLiveInjection) {
  const AttackEvalResult result = run(sweep_config(2, 12));
  EXPECT_EQ(result.docs_evaluated, 12u);
  EXPECT_EQ(result.adv_docs.size(), 12u);
  EXPECT_EQ(result.failed_indices.size(), result.docs_failed);
  EXPECT_EQ(result.attacks.size(), result.docs_attacked);
  EXPECT_EQ(result.attacked_indices.size(), result.docs_attacked);
}

}  // namespace
}  // namespace advtext

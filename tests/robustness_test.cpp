// Robustness-layer tests: deadlines, query budgets, the fault-injection
// harness, WMD graceful degradation, per-document fault isolation in the
// evaluation pipeline, and checkpoint/resume.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/gradient_attack.h"
#include "src/core/gradient_guided_greedy.h"
#include "src/core/joint_attack.h"
#include "src/core/objective_greedy.h"
#include "src/core/sentence_attack.h"
#include "src/data/synthetic.h"
#include "src/eval/pipeline.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/optim/transport.h"
#include "src/text/wmd.h"
#include "src/util/rng.h"
#include "src/util/robust.h"
#include "src/util/serialize.h"
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

TEST(TerminationReason, SeverityOrderingAndNames) {
  EXPECT_EQ(worse_of(TerminationReason::kSucceeded,
                     TerminationReason::kDeadlineExceeded),
            TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(worse_of(TerminationReason::kError,
                     TerminationReason::kBudgetExhausted),
            TerminationReason::kError);
  EXPECT_EQ(worse_of(TerminationReason::kExhaustedCandidates,
                     TerminationReason::kSucceeded),
            TerminationReason::kExhaustedCandidates);
  EXPECT_STREQ(to_string(TerminationReason::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(to_string(TerminationReason::kSucceeded), "succeeded");
}

TEST(Deadline, UnlimitedByDefault) {
  const Deadline unlimited;
  EXPECT_FALSE(unlimited.expired());
  EXPECT_TRUE(std::isinf(unlimited.remaining_ms()));
}

TEST(Deadline, ExpiresAndReportsRemaining) {
  EXPECT_TRUE(Deadline::after_ms(-1.0).expired());
  const Deadline far = Deadline::after_ms(60'000.0);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_ms(), 0.0);
  EXPECT_LE(far.remaining_ms(), 60'000.0);
}

TEST(QueryBudget, ChargesAndExhausts) {
  QueryBudget budget(3);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.charge_up_to(2), 2u);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.remaining(), 1u);
  EXPECT_EQ(budget.charge_up_to(5), 1u);  // clamped at the limit
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.used(), 3u);
  EXPECT_EQ(budget.remaining(), 0u);

  QueryBudget unlimited;
  EXPECT_EQ(unlimited.charge_up_to(1'000'000), 1'000'000u);
  EXPECT_FALSE(unlimited.exhausted());
}

TEST(AttackControl, NullBudgetIsUnlimited) {
  const AttackControl control;
  EXPECT_FALSE(control.budget_exhausted());
  EXPECT_TRUE(control.try_charge());
  EXPECT_EQ(control.budget_remaining(),
            std::numeric_limits<std::size_t>::max());
  EXPECT_FALSE(control.deadline.expired());
}

TEST(AttackControl, TryChargeAdmitsUpToTheLimit) {
  QueryBudget budget(2);
  AttackControl control;
  control.budget = &budget;
  EXPECT_TRUE(control.try_charge());
  EXPECT_EQ(control.budget_remaining(), 1u);
  EXPECT_TRUE(control.try_charge());
  EXPECT_FALSE(control.try_charge());
  EXPECT_TRUE(control.budget_exhausted());
  EXPECT_EQ(budget.used(), 2u);
}

TEST(FaultInjector, RejectsMalformedSpecs) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  EXPECT_THROW(injector.configure("noprobability"), std::invalid_argument);
  EXPECT_THROW(injector.configure("site:badmode:0.5"),
               std::invalid_argument);
  EXPECT_THROW(injector.configure(":0.5"), std::invalid_argument);
  EXPECT_THROW(injector.configure("site:1.5"), std::invalid_argument);
  EXPECT_THROW(injector.configure("site:-0.1"), std::invalid_argument);
}

TEST(FaultInjector, EmptySpecDisables) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  injector.configure("");
  EXPECT_FALSE(injector.enabled());
  injector.maybe_fault("anything");  // no-op
  EXPECT_EQ(injector.poison("anything", 2.5), 2.5);
}

TEST(FaultInjector, SiteSpecificRuleBeatsWildcard) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  injector.configure("all:0.0,wmd.distance:1.0");
  EXPECT_THROW(injector.maybe_fault("wmd.distance"), InjectedFault);
  injector.maybe_fault("transport.exact");  // wildcard p=0: never fires
  EXPECT_EQ(injector.fires(), 1u);
}

TEST(FaultInjector, DeterministicUnderFixedSeed) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  const auto schedule = [&](std::uint64_t seed) {
    injector.configure("site:0.5", seed);
    std::string fired;
    for (int i = 0; i < 64; ++i) {
      try {
        injector.maybe_fault("site");
        fired.push_back('.');
      } catch (const InjectedFault&) {
        fired.push_back('x');
      }
    }
    return fired;
  };
  const std::string a = schedule(7);
  const std::string b = schedule(7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find('x'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultInjector, NanModePoisonsValuesOnly) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  injector.configure("num:nan:1.0");
  injector.maybe_fault("num");  // nan rules never throw
  EXPECT_TRUE(std::isnan(injector.poison("num", 1.0)));
  EXPECT_EQ(injector.poison("other", 1.0), 1.0);
}

TEST(TransportExact, IterationCapThrowsLimitError) {
  // The solver's limits are under test, not its injection site: an ambient
  // ADVTEXT_INJECT fault at transport.exact would throw first.
  InjectorGuard guard;
  Rng rng(5);
  Matrix cost(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      cost(i, j) = static_cast<float>(rng.uniform(0.1, 2.0));
    }
  }
  const std::vector<double> a = {0.25, 0.25, 0.25, 0.25};
  const std::vector<double> b = {0.4, 0.3, 0.2, 0.1};
  TransportControl control;
  control.max_iterations = 1;  // a 4x4 problem needs >= 4 augmentations
  EXPECT_THROW(solve_transport_exact(cost, a, b, nullptr, control),
               TransportLimitError);

  TransportControl expired;
  expired.deadline = Deadline::after_ms(-1.0);
  EXPECT_THROW(solve_transport_exact(cost, a, b, nullptr, expired),
               TransportLimitError);

  // Unconstrained control solves normally.
  EXPECT_GE(solve_transport_exact(cost, a, b), 0.0);
}

TEST(WmdDegradation, ExactFallsBackToSinkhornThenLowerBound) {
  InjectorGuard guard;
  const SynthTask task = make_yelp(17);
  const Wmd wmd(task.paragram);
  const Sentence sa = {3, 4, 5};
  const Sentence sb = {6, 7, 8};
  const double clean = wmd.distance(sa, sb);
  EXPECT_TRUE(std::isfinite(clean));
  EXPECT_EQ(wmd.degradation().total(), 0u);

  // Exact solve always fails -> Sinkhorn takes over.
  FaultInjector::instance().configure("transport.exact:1.0");
  const double degraded_once = wmd.distance(sa, sb);
  EXPECT_TRUE(std::isfinite(degraded_once));
  EXPECT_EQ(wmd.degradation().to_sinkhorn, 1u);
  EXPECT_EQ(wmd.degradation().to_lower_bound, 0u);
  EXPECT_NEAR(degraded_once, clean, 0.5);

  // Sinkhorn additionally poisoned -> relaxed nBOW lower bound takes over.
  FaultInjector::instance().configure(
      "transport.exact:1.0,wmd.sinkhorn:nan:1.0");
  wmd.reset_degradation();
  const double degraded_twice = wmd.distance(sa, sb);
  EXPECT_TRUE(std::isfinite(degraded_twice));
  EXPECT_EQ(wmd.degradation().to_sinkhorn, 1u);
  EXPECT_EQ(wmd.degradation().to_lower_bound, 1u);
  EXPECT_LE(degraded_twice, clean + 1e-9);  // lower bound on the true cost
}

// Shared fixture for attack/pipeline robustness: a small trained model so
// deadline and isolation scenarios run in milliseconds.
class RobustnessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config = make_yelp(53).config;
    config.seed = 53;
    config.num_train = 300;
    config.num_test = 60;
    config.min_sentences = 3;
    config.max_sentences = 5;
    config.min_words_per_sentence = 5;
    config.max_words_per_sentence = 9;
    task_ = new SynthTask(make_task(config));
    context_ = new TaskAttackContext(*task_);
    WCnnConfig wconfig;
    wconfig.embed_dim = task_->config.embedding_dim;
    wconfig.num_filters = 24;
    model_ = new WCnn(wconfig, Matrix(task_->paragram));
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

  static const Document* correct_doc() {
    for (const Document& doc : task_->test.docs) {
      if (model_->predict(doc.flatten()) ==
          static_cast<std::size_t>(doc.label)) {
        return &doc;
      }
    }
    return nullptr;
  }

  static WordCandidates candidates_for(const TokenSeq& tokens) {
    WordCandidates candidates;
    candidates.per_position =
        context_->word_index().candidates_for(tokens, &context_->lm());
    return candidates;
  }

  static SynthTask* task_;
  static TaskAttackContext* context_;
  static WCnn* model_;
};

SynthTask* RobustnessFixture::task_ = nullptr;
TaskAttackContext* RobustnessFixture::context_ = nullptr;
WCnn* RobustnessFixture::model_ = nullptr;

TEST_F(RobustnessFixture, ExpiredDeadlineStopsEveryWordAttack) {
  InjectorGuard guard;
  const Document* doc = correct_doc();
  ASSERT_NE(doc, nullptr);
  const TokenSeq tokens = doc->flatten();
  const std::size_t target = 1 - static_cast<std::size_t>(doc->label);
  const WordCandidates candidates = candidates_for(tokens);
  AttackControl control;
  control.deadline = Deadline::after_ms(-1.0);

  const WordAttackResult greedy = objective_greedy_attack(
      *model_, tokens, candidates, target, {}, control);
  EXPECT_EQ(greedy.termination, TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(greedy.adv_tokens, tokens);  // best-so-far = untouched input

  const WordAttackResult ggg = gradient_guided_greedy_attack(
      *model_, tokens, candidates, target, {}, control);
  EXPECT_EQ(ggg.termination, TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(ggg.adv_tokens, tokens);

  GradientAttackConfig gradient_config;
  gradient_config.rounds = 3;
  const WordAttackResult gradient = gradient_attack(
      *model_, tokens, candidates, target, gradient_config, control);
  EXPECT_EQ(gradient.termination, TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(gradient.adv_tokens, tokens);
}

TEST_F(RobustnessFixture, TinyQueryBudgetStopsWordAttacks) {
  InjectorGuard guard;
  const Document* doc = correct_doc();
  ASSERT_NE(doc, nullptr);
  const TokenSeq tokens = doc->flatten();
  const std::size_t target = 1 - static_cast<std::size_t>(doc->label);
  const WordCandidates candidates = candidates_for(tokens);

  // A cap of one admits exactly one forward: greedy's anchor, Alg. 3's
  // first gradient call, or the gradient attack's verification. Each
  // still reports the exact score of the (unchanged) document.
  const double clean = model_->class_probability(tokens, target);
  QueryBudget budget(1);
  AttackControl control;
  control.budget = &budget;
  const WordAttackResult greedy = objective_greedy_attack(
      *model_, tokens, candidates, target, {}, control);
  EXPECT_EQ(greedy.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(greedy.adv_tokens, tokens);
  EXPECT_EQ(greedy.final_target_proba, clean);
  EXPECT_EQ(budget.used(), 1u);

  QueryBudget ggg_budget(1);
  control.budget = &ggg_budget;
  const WordAttackResult ggg = gradient_guided_greedy_attack(
      *model_, tokens, candidates, target, {}, control);
  EXPECT_EQ(ggg.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(ggg.final_target_proba, clean);
  EXPECT_EQ(ggg_budget.used(), 1u);

  QueryBudget gradient_budget(1);
  control.budget = &gradient_budget;
  GradientAttackConfig gradient_config;
  gradient_config.rounds = 3;
  const WordAttackResult gradient = gradient_attack(
      *model_, tokens, candidates, target, gradient_config, control);
  EXPECT_EQ(gradient.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(gradient.final_target_proba, clean);
  EXPECT_EQ(gradient_budget.used(), 1u);
}

// A greedy round that ends exactly on the cap: the budget admits the
// anchor and every row of the first round, so the committed swap's
// re-anchor and the verification are both refused. The attack reports the
// committed row's own score, which is the exact score of its final state.
TEST_F(RobustnessFixture, GreedyRoundEndingOnTheCapStaysInside) {
  InjectorGuard guard;
  const Document* doc = correct_doc();
  ASSERT_NE(doc, nullptr);
  const TokenSeq tokens = doc->flatten();
  const std::size_t target = 1 - static_cast<std::size_t>(doc->label);
  const WordCandidates candidates = candidates_for(tokens);
  std::size_t first_round = 0;
  for (std::size_t pos = 0; pos < tokens.size(); ++pos) {
    for (WordId cand : candidates.per_position[pos]) {
      first_round += cand != tokens[pos] ? 1 : 0;
    }
  }
  ASSERT_GT(first_round, 0u);
  const std::size_t cap = 1 + first_round;

  QueryBudget budget(cap);
  AttackControl control;
  control.budget = &budget;
  const WordAttackResult result = objective_greedy_attack(
      *model_, tokens, candidates, target, {}, control);
  EXPECT_EQ(result.words_changed, 1u) << "the first round should commit";
  EXPECT_EQ(budget.used(), cap);
  EXPECT_EQ(result.forwards, cap);
  EXPECT_EQ(result.queries, cap - 1);
  EXPECT_EQ(result.final_target_proba,
            model_->class_probability(result.adv_tokens, target));
}

// The cap contract as a property: over a seeded sample of caps, no word
// attack and no joint attack runs a forward past its cap, each tallies
// exactly the forwards the budget admitted, and each reports the exact
// score of the state it returns.
TEST_F(RobustnessFixture, NoAttackChargesPastItsCap) {
  InjectorGuard guard;
  const Document* doc = correct_doc();
  ASSERT_NE(doc, nullptr);
  const TokenSeq tokens = doc->flatten();
  const std::size_t target = 1 - static_cast<std::size_t>(doc->label);
  const WordCandidates candidates = candidates_for(tokens);
  std::vector<std::size_t> caps = {1, 2, 3};
  Rng rng(2109);
  for (int i = 0; i < 5; ++i) caps.push_back(4 + rng.uniform_index(300));

  const auto exact = [&](const TokenSeq& adv) {
    return model_->class_probability(adv, target);
  };
  for (const std::size_t cap : caps) {
    SCOPED_TRACE(testing::Message() << "cap=" << cap);
    const auto capped = [cap](QueryBudget& budget) {
      AttackControl control;
      control.budget = &budget;
      return control;
    };
    {
      QueryBudget budget(cap);
      const WordAttackResult r = objective_greedy_attack(
          *model_, tokens, candidates, target, {}, capped(budget));
      EXPECT_LE(budget.used(), cap) << "greedy";
      EXPECT_EQ(r.forwards, budget.used()) << "greedy";
      EXPECT_EQ(r.final_target_proba, exact(r.adv_tokens)) << "greedy";
    }
    {
      QueryBudget budget(cap);
      const WordAttackResult r = gradient_guided_greedy_attack(
          *model_, tokens, candidates, target, {}, capped(budget));
      EXPECT_LE(budget.used(), cap) << "Alg. 3";
      EXPECT_EQ(r.forwards, budget.used()) << "Alg. 3";
      EXPECT_EQ(r.final_target_proba, exact(r.adv_tokens)) << "Alg. 3";
    }
    {
      QueryBudget budget(cap);
      GradientAttackConfig config;
      config.rounds = 3;
      const WordAttackResult r = gradient_attack(
          *model_, tokens, candidates, target, config, capped(budget));
      EXPECT_LE(budget.used(), cap) << "gradient";
      EXPECT_EQ(r.forwards, budget.used()) << "gradient";
      EXPECT_EQ(r.final_target_proba, exact(r.adv_tokens)) << "gradient";
    }
    {
      JointAttackConfig joint;
      joint.max_queries = cap;
      const JointAttackResult r = joint_attack(
          *model_, *doc, target, context_->resources(), joint);
      EXPECT_LE(r.forwards, cap) << "joint";
      EXPECT_EQ(r.final_target_proba, exact(r.adv_doc.flatten())) << "joint";
    }
  }
}

TEST_F(RobustnessFixture, ExpiredDeadlineStopsSentenceAndJointAttack) {
  InjectorGuard guard;
  const Document* doc = correct_doc();
  ASSERT_NE(doc, nullptr);
  const std::size_t target = 1 - static_cast<std::size_t>(doc->label);

  AttackControl control;
  control.deadline = Deadline::after_ms(-1.0);
  const auto neighbor_sets =
      context_->paraphraser().neighbor_sets(*doc, context_->wmd());
  const SentenceAttackResult sentence = greedy_sentence_attack(
      *model_, *doc, neighbor_sets, target, {}, control);
  EXPECT_EQ(sentence.termination, TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(sentence.adv_doc.flatten(), doc->flatten());

  JointAttackConfig joint;
  joint.deadline_ms = 1e-4;  // expires before the first phase checks it
  const JointAttackResult result = joint_attack(
      *model_, *doc, target, context_->resources(), joint);
  EXPECT_EQ(result.termination, TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(result.adv_doc.flatten(), doc->flatten());
}

TEST_F(RobustnessFixture, JointQueryBudgetIsSharedAcrossPhases) {
  InjectorGuard guard;
  const Document* doc = correct_doc();
  ASSERT_NE(doc, nullptr);
  const std::size_t target = 1 - static_cast<std::size_t>(doc->label);
  JointAttackConfig joint;
  joint.max_queries = 2;
  const JointAttackResult result = joint_attack(
      *model_, *doc, target, context_->resources(), joint);
  if (!result.success) {
    EXPECT_EQ(result.termination, TerminationReason::kBudgetExhausted);
  }
}

TEST_F(RobustnessFixture, PerDocDeadlineBoundsEveryAttack) {
  InjectorGuard guard;
  AttackEvalConfig config;
  config.max_docs = 20;
  config.joint.deadline_ms = 10.0;
  const AttackEvalResult result =
      evaluate_attack(*model_, *task_, *context_, config);
  EXPECT_EQ(result.docs_evaluated, 20u);
  EXPECT_EQ(result.docs_failed, 0u);
  for (const JointAttackResult& attack : result.attacks) {
    // Every attack ends kDeadlineExceeded or better — never an error.
    EXPECT_NE(attack.termination, TerminationReason::kError);
    // 10ms deadline plus bounded per-step work: far below a second.
    EXPECT_LT(attack.seconds, 2.0);
  }
}

TEST_F(RobustnessFixture, DocFaultIsIsolatedAndBatchContinues) {
  InjectorGuard guard;
  FaultInjector::instance().configure("pipeline.doc:0.5", /*seed=*/11);
  AttackEvalConfig config;
  config.max_docs = 12;
  const AttackEvalResult result =
      evaluate_attack(*model_, *task_, *context_, config);
  EXPECT_EQ(result.docs_evaluated, 12u);
  EXPECT_EQ(result.adv_docs.size(), 12u);
  EXPECT_GT(result.docs_failed, 0u);
  EXPECT_EQ(result.failed_indices.size(), result.docs_failed);
  EXPECT_EQ(result.attacks.size(), result.docs_attacked);
  EXPECT_EQ(result.attacked_indices.size(), result.docs_attacked);
  // Failed documents keep their original text and true label.
  for (const std::size_t idx : result.failed_indices) {
    EXPECT_EQ(result.adv_docs[idx].flatten(),
              task_->test.docs[idx].flatten());
    EXPECT_EQ(result.adv_docs[idx].label, task_->test.docs[idx].label);
  }
}

TEST_F(RobustnessFixture, WmdFaultsDegradeOrFailButRunCompletes) {
  InjectorGuard guard;
  AttackEvalConfig config;
  config.max_docs = 50;
  const AttackEvalResult clean =
      evaluate_attack(*model_, *task_, *context_, config);

  FaultInjector::instance().configure("wmd.distance:0.2", /*seed=*/23);
  const AttackEvalResult faulty =
      evaluate_attack(*model_, *task_, *context_, config);
  EXPECT_EQ(faulty.docs_evaluated, 50u);
  EXPECT_EQ(faulty.adv_docs.size(), clean.adv_docs.size());
  EXPECT_GT(faulty.docs_failed, 0u);
  // Documents whose attack ran fault-free match the injection-free run
  // exactly (throw-mode faults never alter values, only control flow).
  std::vector<bool> failed(task_->test.docs.size(), false);
  for (const std::size_t idx : faulty.failed_indices) failed[idx] = true;
  for (std::size_t i = 0; i < faulty.adv_docs.size(); ++i) {
    if (failed[i]) continue;
    EXPECT_EQ(faulty.adv_docs[i].flatten(), clean.adv_docs[i].flatten())
        << "surviving doc " << i << " diverged from the clean run";
  }
}

TEST_F(RobustnessFixture, CheckpointResumeMatchesUninterruptedRun) {
  InjectorGuard guard;
  const ScopedTempFile file("advtext_robustness_", "checkpoint.bin");
  const std::string& path = file.path();

  AttackEvalConfig config;
  config.max_docs = 10;

  // Reference: one uninterrupted, checkpoint-free run.
  const AttackEvalResult full =
      evaluate_attack(*model_, *task_, *context_, config);

  // Simulated kill: evaluate only 4 documents, checkpointing as we go.
  AttackEvalConfig partial = config;
  partial.max_docs = 4;
  partial.checkpoint_path = path;
  partial.checkpoint_every = 2;
  evaluate_attack(*model_, *task_, *context_, partial);

  // Resume to the full document count.
  AttackEvalConfig resumed = config;
  resumed.checkpoint_path = path;
  resumed.checkpoint_every = 2;
  resumed.resume = true;
  const AttackEvalResult result =
      evaluate_attack(*model_, *task_, *context_, resumed);

  EXPECT_EQ(result.docs_evaluated, full.docs_evaluated);
  EXPECT_EQ(result.docs_attacked, full.docs_attacked);
  EXPECT_EQ(result.docs_failed, full.docs_failed);
  EXPECT_EQ(result.attacked_indices, full.attacked_indices);
  // Aggregates replayed from the checkpoint are bitwise identical
  // (timings are excluded: they are measurements, not replayable state).
  EXPECT_EQ(result.adversarial_accuracy, full.adversarial_accuracy);
  EXPECT_EQ(result.success_rate, full.success_rate);
  EXPECT_EQ(result.mean_words_changed, full.mean_words_changed);
  EXPECT_EQ(result.mean_sentences_changed, full.mean_sentences_changed);
  EXPECT_EQ(result.mean_queries, full.mean_queries);
  ASSERT_EQ(result.adv_docs.size(), full.adv_docs.size());
  for (std::size_t i = 0; i < result.adv_docs.size(); ++i) {
    EXPECT_EQ(result.adv_docs[i].flatten(), full.adv_docs[i].flatten());
    EXPECT_EQ(result.adv_docs[i].label, full.adv_docs[i].label);
  }
  ASSERT_EQ(result.attacks.size(), full.attacks.size());
  for (std::size_t i = 0; i < result.attacks.size(); ++i) {
    EXPECT_EQ(result.attacks[i].final_target_proba,
              full.attacks[i].final_target_proba);
    EXPECT_EQ(result.attacks[i].queries, full.attacks[i].queries);
    EXPECT_EQ(result.attacks[i].termination, full.attacks[i].termination);
  }
}

TEST_F(RobustnessFixture, ResumeRejectsCorruptCheckpoint) {
  InjectorGuard guard;
  const ScopedTempFile file("advtext_robustness_", "corrupt.bin");
  const std::string& path = file.path();
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  AttackEvalConfig config;
  config.max_docs = 4;
  config.checkpoint_path = path;
  config.resume = true;
  EXPECT_THROW(evaluate_attack(*model_, *task_, *context_, config),
               std::runtime_error);
}

// A checkpoint written in an earlier record layout carries an earlier tag:
// it is refused by that tag, inside a valid artifact envelope, rather than
// misparsed field by field.
TEST_F(RobustnessFixture, ResumeRefusesACheckpointInTheOldLayout) {
  InjectorGuard guard;
  const ScopedTempFile file("advtext_robustness_", "old_layout.bin");
  const std::string& path = file.path();
  std::ostringstream payload;
  io::write_magic(payload);
  io::write_string(payload, "attack-checkpoint");
  io::write_u64(payload, 0);
  io::save_artifact(path, payload.str());

  AttackEvalConfig config;
  config.max_docs = 4;
  config.checkpoint_path = path;
  config.resume = true;
  try {
    (void)evaluate_attack(*model_, *task_, *context_, config);
    ADD_FAILURE() << "a checkpoint in the old layout was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("'attack-checkpoint'"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace advtext

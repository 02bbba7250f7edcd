// Batched candidate scoring tests: the batched evaluator entry points must
// be bit-identical to the per-candidate loops for every model family, and
// the recurrent evaluators at every share count and with two evaluators
// scoring at once; every evaluated row is one query and one budget charge,
// whichever entry point scored it; a per-document query cap binds
// identically at any worker count; and a SIGTERM-interrupted sweep resumes
// bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/pipeline.h"
#include "src/nn/bow_classifier.h"
#include "src/nn/checkpoint.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/recurrent_swap_evaluator.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/util/robust.h"
#include "src/util/rng.h"
#include "src/util/stop_token.h"
#include "src/util/sync.h"
#include "tests/ulp.h"
#include "tests/state_dir.h"

namespace advtext {
namespace {

const SynthTask& task() {
  static const SynthTask t = make_yelp(41);
  return t;
}

TokenSeq sample_tokens(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  TokenSeq tokens;
  const WordId vocab = task().vocab.size();
  for (std::size_t i = 0; i < length; ++i) {
    tokens.push_back(static_cast<WordId>(2 + rng.uniform_index(vocab - 2)));
  }
  return tokens;
}

std::vector<std::unique_ptr<TextClassifier>> all_models() {
  std::vector<std::unique_ptr<TextClassifier>> models;
  WCnnConfig wcnn;
  wcnn.embed_dim = task().config.embedding_dim;
  wcnn.num_filters = 24;
  models.push_back(std::make_unique<WCnn>(wcnn, Matrix(task().paragram)));
  // The recurrent families at hidden 16 and at an odd width (7), whose
  // gate passes and 4H- or 3H-wide gemms end in partial vector tails.
  for (const std::size_t hidden : {16, 7}) {
    LstmConfig lstm;
    lstm.embed_dim = task().config.embedding_dim;
    lstm.hidden = hidden;
    models.push_back(
        std::make_unique<LstmClassifier>(lstm, Matrix(task().paragram)));
    GruConfig gru;
    gru.embed_dim = task().config.embedding_dim;
    gru.hidden = hidden;
    models.push_back(
        std::make_unique<GruClassifier>(gru, Matrix(task().paragram)));
  }
  BowClassifierConfig bow;
  bow.vocab_size = static_cast<std::size_t>(task().vocab.size());
  models.push_back(std::make_unique<BowClassifier>(bow));
  return models;
}

// Batch sizes around the gemm kernel's 4-row block (1-5) and on both sides
// of the kScoreChunkRows = 64 attack chunking (63-65, 80).
constexpr std::size_t kBatchSizes[] = {1, 2, 3, 4, 5, 63, 64, 65, 80};

void expect_rows_equal(const Matrix& scores, std::size_t row,
                       const Vector& want, const char* what) {
  ASSERT_EQ(want.size(), scores.cols());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(scores(row, c), want[c])
        << what << " row " << row << " class " << c << " diverged";
  }
}

// The full forward is the reference for every family: exact, except for
// BoW swaps (kBowSwapUlps, tests/ulp.h).
std::int64_t swap_ulps(const TextClassifier& model) {
  return dynamic_cast<const BowClassifier*>(&model) != nullptr ? kBowSwapUlps
                                                               : 0;
}

void expect_rows_within(const Matrix& scores, std::size_t row,
                        const Vector& want, std::int64_t ulps,
                        const char* what) {
  ASSERT_EQ(want.size(), scores.cols());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_LE(ulp_distance(scores(row, c), want[c]), ulps)
        << what << " row " << row << " class " << c << ": " << scores(row, c)
        << " vs " << want[c];
  }
}

// eval_swap_batch == a second evaluator's per-candidate eval_swap ==
// predict_proba of the swapped document, float-for-float (BoW swaps within
// kBowSwapUlps of predict_proba), for every model family. BoW is the one
// family whose per-candidate path is distinct; the others run it as a
// one-row batch. No control bound: unlimited.
TEST(BatchedScoring, SwapBatchMatchesSequentialBitwise) {
  const TokenSeq base = sample_tokens(40, 7);
  for (const auto& model : all_models()) {
    auto batched = model->make_swap_evaluator(base);
    auto sequential = model->make_swap_evaluator(base);
    for (const std::size_t batch : kBatchSizes) {
      SCOPED_TRACE(testing::Message()
                   << "classes=" << model->num_classes()
                   << " batch=" << batch);
      std::vector<SwapCandidate> candidates;
      for (std::size_t i = 0; i < batch; ++i) {
        candidates.push_back({i % base.size(),
                              static_cast<WordId>(3 + i / base.size())});
      }
      Matrix scores;
      const BatchStatus status =
          batched->eval_swap_batch(candidates, scores);
      EXPECT_EQ(status.evaluated, batch);
      EXPECT_FALSE(status.truncated());

      for (std::size_t i = 0; i < batch; ++i) {
        const Vector row =
            sequential->eval_swap(candidates[i].pos, candidates[i].word);
        expect_rows_equal(scores, i, row, "batched");
        TokenSeq swapped = base;
        swapped[candidates[i].pos] = candidates[i].word;
        expect_rows_within(scores, i, model->predict_proba(swapped),
                           swap_ulps(*model), "batched vs predict_proba");
      }
    }
  }
}

// An evaluator's cached base state (conv feature maps, prefix states,
// bag counts), rebuilt on every rebase, reproduces the full forward:
// eval_tokens of the base, and every swap scored from the rebuilt state,
// equal predict_proba bit for bit (BoW swaps within kBowSwapUlps). Covers
// a chain of committed swaps, first and last positions, and a one-token
// document.
TEST(BatchedScoring, RebaseMatchesFullForward) {
  for (const auto& model : all_models()) {
    TokenSeq base = sample_tokens(33, 19);
    auto evaluator = model->make_swap_evaluator(base);
    const std::size_t commits[] = {0, 32, 16, 5};
    for (const std::size_t pos : commits) {
      SCOPED_TRACE(testing::Message() << "classes=" << model->num_classes()
                                      << " commit at " << pos);
      base[pos] = base[pos] == 6 ? 8 : 6;
      evaluator->rebase(base);
      EXPECT_EQ(evaluator->eval_tokens(base), model->predict_proba(base));
      const std::vector<SwapCandidate> candidates = {
          {0, 7}, {pos, 9}, {base.size() - 1, 11}};
      Matrix scores;
      (void)evaluator->eval_swap_batch(candidates, scores);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        TokenSeq swapped = base;
        swapped[candidates[i].pos] = candidates[i].word;
        expect_rows_within(scores, i, model->predict_proba(swapped),
                           swap_ulps(*model), "post-rebase swap");
      }
    }
    const TokenSeq single = {4};
    evaluator->rebase(single);
    EXPECT_EQ(evaluator->eval_tokens(single), model->predict_proba(single))
        << "one-token document";
  }
}

TEST(BatchedScoring, TokensBatchMatchesSequentialBitwise) {
  const TokenSeq base = sample_tokens(40, 11);
  for (const auto& model : all_models()) {
    auto batched = model->make_swap_evaluator(base);
    auto sequential = model->make_swap_evaluator(base);
    for (const std::size_t batch : kBatchSizes) {
      SCOPED_TRACE(testing::Message()
                   << "classes=" << model->num_classes()
                   << " batch=" << batch);
      std::vector<TokenSeq> docs;
      for (std::size_t i = 0; i < batch; ++i) {
        docs.push_back(sample_tokens(20 + i % 7, 100 + i));
      }
      Matrix scores;
      const BatchStatus status = batched->eval_tokens_batch(docs, scores);
      EXPECT_EQ(status.evaluated, batch);
      for (std::size_t i = 0; i < batch; ++i) {
        expect_rows_equal(scores, i, sequential->eval_tokens(docs[i]),
                          "batched");
      }
    }
  }
}

// Rows a few edits away from `base`, the shapes the attacks score: the
// sentence phase's paraphrases keep a long common prefix and suffix with
// the document. Same length with one or two changes at the first, middle
// and last positions; one token dropped or inserted there; a span rotated
// by one (a word-order paraphrase) and a sentence-length span rewritten;
// the base itself, a longer document, and rows shorter than the WCNN
// kernel (3).
std::vector<TokenSeq> near_copies(const TokenSeq& base) {
  const std::size_t n = base.size();
  const std::size_t mid = n / 2;
  const auto other = [](WordId w) {
    return static_cast<WordId>(w == 7 ? 9 : 7);
  };
  std::vector<TokenSeq> rows = {base};
  for (const std::size_t pos : {std::size_t{0}, mid, n - 1}) {
    TokenSeq changed = base;
    changed[pos] = other(changed[pos]);
    rows.push_back(changed);
    TokenSeq dropped = base;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(pos));
    rows.push_back(dropped);
  }
  for (const std::size_t pos : {std::size_t{0}, mid, n}) {
    TokenSeq inserted = base;
    inserted.insert(inserted.begin() + static_cast<std::ptrdiff_t>(pos), 5);
    rows.push_back(inserted);
  }
  const std::pair<std::size_t, std::size_t> pairs[] = {
      {0, n - 1}, {mid, std::min(mid + 1, n - 1)}, {1 % n, mid}};
  for (const auto& [p, q] : pairs) {
    TokenSeq changed = base;
    changed[p] = other(changed[p]);
    changed[q] = other(changed[q]);
    rows.push_back(changed);
  }
  // A sentence-sized span from a quarter in: rotated by one, and replaced
  // by fresh words (some of which may equal the base's by chance).
  const std::size_t span_lo = n / 4;
  const std::size_t span_hi = std::min(n, span_lo + 11);
  TokenSeq rotated = base;
  std::rotate(rotated.begin() + static_cast<std::ptrdiff_t>(span_lo),
              rotated.begin() + static_cast<std::ptrdiff_t>(span_lo) + 1,
              rotated.begin() + static_cast<std::ptrdiff_t>(span_hi));
  rows.push_back(rotated);
  TokenSeq rewritten = base;
  const TokenSeq fresh = sample_tokens(span_hi - span_lo, 211);
  std::copy(fresh.begin(), fresh.end(),
            rewritten.begin() + static_cast<std::ptrdiff_t>(span_lo));
  rows.push_back(rewritten);
  TokenSeq longer = base;
  const TokenSeq tail = sample_tokens(9, 223);
  longer.insert(longer.end(), tail.begin(), tail.end());
  rows.push_back(longer);
  rows.push_back(sample_tokens(n + 17, 227));
  rows.push_back({base[0]});
  rows.push_back({base[0], other(base[n - 1])});
  return rows;
}

// The cached tokens path on the rows the attacks actually score: every row
// of every batch equals predict_proba of that row, float for float, for
// every family, against a 40-token base and a base shorter than the WCNN
// kernel, at batch sizes on both sides of the gemm's 4-row block and the
// 64-row chunk. Near-copies are the rows whose windows the WCNN evaluator
// takes from the base's cached maps, so an off-by-one prefix or suffix
// offset changes them and only them.
TEST(BatchedScoring, TokensBatchNearCopiesMatchFullForward) {
  for (const auto& model : all_models()) {
    for (const TokenSeq& base : {sample_tokens(40, 23), sample_tokens(2, 29)}) {
      const std::vector<TokenSeq> rows = near_copies(base);
      auto evaluator = model->make_swap_evaluator(base);
      for (const std::size_t batch : {1, 5, 64, 65}) {
        SCOPED_TRACE(testing::Message()
                     << "classes=" << model->num_classes()
                     << " base=" << base.size() << " batch=" << batch);
        for (std::size_t first = 0; first < rows.size(); first += batch) {
          std::vector<TokenSeq> docs;
          for (std::size_t i = 0; i < batch; ++i) {
            docs.push_back(rows[(first + i) % rows.size()]);
          }
          Matrix scores;
          const BatchStatus status = evaluator->eval_tokens_batch(docs, scores);
          ASSERT_EQ(status.evaluated, batch);
          for (std::size_t i = 0; i < batch; ++i) {
            expect_rows_equal(scores, i, model->predict_proba(docs[i]),
                              "near-copy vs predict_proba");
          }
        }
      }
    }
  }
}

// MC dropout draws num_filters values per scored row, in request order,
// whichever path the row takes. Two same-seeded models stay in lockstep:
// one scores a mixed batch (same-length, shorter, longer and sub-kernel
// rows, then swaps) through its evaluator, the other calls predict_proba
// row by row, and every row is identical.
TEST(BatchedScoring, WCnnMcDropoutBatchMatchesFullForwardStream) {
  WCnnConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.num_filters = 24;
  config.mc_dropout = 0.05f;
  config.seed = 31;
  const WCnn batched(config, Matrix(task().paragram));
  const WCnn reference(config, Matrix(task().paragram));
  const TokenSeq base = sample_tokens(40, 37);
  auto evaluator = batched.make_swap_evaluator(base);

  const std::vector<TokenSeq> docs = near_copies(base);
  Matrix scores;
  ASSERT_EQ(evaluator->eval_tokens_batch(docs, scores).evaluated,
            docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    expect_rows_equal(scores, i, reference.predict_proba(docs[i]),
                      "mc-dropout tokens row");
  }
  const std::vector<SwapCandidate> swaps = {{0, 9}, {17, 4}, {39, 12}};
  ASSERT_EQ(evaluator->eval_swap_batch(swaps, scores).evaluated,
            swaps.size());
  for (std::size_t i = 0; i < swaps.size(); ++i) {
    TokenSeq swapped = base;
    swapped[swaps[i].pos] = swaps[i].word;
    expect_rows_equal(scores, i, reference.predict_proba(swapped),
                      "mc-dropout swap row");
  }
}

// The shell's admission: with a QueryBudget bound, every evaluated row is
// one query and one charge, whichever entry point scored it — a repeat, an
// in-batch duplicate and the re-anchor eval_tokens of a just-scored swap
// included. Duplicates are computed like any other row, so their rows are
// byte-identical. A batch that meets the cap stops at it, and a single row
// past the cap is refused.
TEST(BatchedScoring, EveryEvaluatedRowChargesOneQuery) {
  const TokenSeq base = sample_tokens(30, 13);
  TokenSeq swapped = base;
  swapped[3] = 9;
  const auto same_bytes = [](const Matrix& scores, std::size_t a,
                             std::size_t b) {
    return std::memcmp(scores.row(a), scores.row(b),
                       scores.cols() * sizeof(float)) == 0;
  };
  for (const auto& model : all_models()) {
    SCOPED_TRACE(testing::Message() << "classes=" << model->num_classes());
    QueryBudget budget(12);
    AttackControl control;
    control.budget = &budget;
    auto evaluator = model->make_swap_evaluator(base);
    evaluator->bind_control(&control);

    const Vector first = evaluator->eval_swap(3, 9);
    EXPECT_EQ(evaluator->eval_swap(3, 9), first);
    EXPECT_EQ(budget.used(), 2u);
    (void)evaluator->eval_tokens(swapped);  // the re-anchor
    EXPECT_EQ(budget.used(), 3u);

    const std::vector<SwapCandidate> swaps = {{3, 9}, {5, 7}, {5, 7}, {8, 4}};
    Matrix scores;
    EXPECT_EQ(evaluator->eval_swap_batch(swaps, scores).evaluated, 4u);
    EXPECT_EQ(budget.used(), 7u);
    EXPECT_TRUE(same_bytes(scores, 1, 2)) << "in-batch duplicate swap";

    const std::vector<TokenSeq> docs = {swapped, base, swapped};
    EXPECT_EQ(evaluator->eval_tokens_batch(docs, scores).evaluated, 3u);
    EXPECT_EQ(budget.used(), 10u);
    EXPECT_TRUE(same_bytes(scores, 0, 2)) << "in-batch duplicate document";

    // Two rows of budget left: the batch admits them, then stops.
    const BatchStatus capped = evaluator->eval_swap_batch(swaps, scores);
    EXPECT_EQ(capped.evaluated, 2u);
    EXPECT_TRUE(capped.out_of_budget);
    EXPECT_FALSE(capped.out_of_time);
    EXPECT_EQ(budget.used(), 12u);

    Vector refused;
    EXPECT_FALSE(evaluator->try_eval_tokens(swapped, refused));
    EXPECT_TRUE(refused.empty());
    EXPECT_THROW((void)evaluator->eval_tokens(swapped), CheckError);
    EXPECT_EQ(evaluator->queries(), 12u);
    EXPECT_EQ(evaluator->queries(), budget.used());
  }
}

// ---- recurrent shares ------------------------------------------------------

std::vector<std::unique_ptr<TextClassifier>> recurrent_models() {
  std::vector<std::unique_ptr<TextClassifier>> models;
  for (auto& model : all_models()) {
    if (dynamic_cast<const LstmClassifier*>(model.get()) != nullptr ||
        dynamic_cast<const GruClassifier*>(model.get()) != nullptr) {
      models.push_back(std::move(model));
    }
  }
  return models;
}

// Batch widths that split into one share, two shares and the most shares
// this process runs (parallel_width()), the last two with a ragged tail.
std::vector<std::size_t> share_widths() {
  return {kMinRowsPerShare, 2 * kMinRowsPerShare + 1,
          parallel_width() * kMinRowsPerShare + 3};
}

// Swaps at every kind of position: the first, the last, and a stride
// through the rest, so rows start their suffix at different steps.
std::vector<SwapCandidate> spread_swaps(const TokenSeq& base,
                                        std::size_t width) {
  const std::size_t n = base.size();
  std::vector<SwapCandidate> swaps;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t pos = i == 1 ? n - 1 : (i * 7) % n;
    swaps.push_back({pos, static_cast<WordId>(3 + i % 5)});
  }
  return swaps;
}

bool same_matrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every row of a batch split into 1, 2 or the most shares equals the
// one-row call and predict_proba exactly, for swaps and for tokens rows
// (two edits each, first differences from position 0 to the base itself),
// LSTM and GRU at hidden 7 and 16.
TEST(RecurrentShares, EveryShareCountMatchesOneRowCallsAndPredictProba) {
  const TokenSeq base = sample_tokens(37, 43);
  const std::size_t n = base.size();
  for (const auto& model : recurrent_models()) {
    auto batched = model->make_swap_evaluator(base);
    auto single = model->make_swap_evaluator(base);
    for (const std::size_t width : share_widths()) {
      SCOPED_TRACE(testing::Message() << "classes=" << model->num_classes()
                                      << " width=" << width);
      const std::vector<SwapCandidate> swaps = spread_swaps(base, width);
      Matrix scores;
      ASSERT_EQ(batched->eval_swap_batch(swaps, scores).evaluated, width);
      for (std::size_t i = 0; i < width; ++i) {
        expect_rows_equal(scores, i,
                          single->eval_swap(swaps[i].pos, swaps[i].word),
                          "swap vs one-row call");
        TokenSeq swapped = base;
        swapped[swaps[i].pos] = swaps[i].word;
        expect_rows_equal(scores, i, model->predict_proba(swapped),
                          "swap vs predict_proba");
      }

      std::vector<TokenSeq> docs;
      for (std::size_t i = 0; i < width; ++i) {
        TokenSeq doc = base;
        if (i + 1 < width) {
          doc[(i * 5) % n] = static_cast<WordId>(4 + i % 3);
          doc[n - 1 - i % 3] = static_cast<WordId>(9 + i % 2);
        }
        docs.push_back(doc);
      }
      ASSERT_EQ(batched->eval_tokens_batch(docs, scores).evaluated, width);
      for (std::size_t i = 0; i < width; ++i) {
        expect_rows_equal(scores, i, single->eval_tokens(docs[i]),
                          "tokens vs one-row call");
        expect_rows_equal(scores, i, model->predict_proba(docs[i]),
                          "tokens vs predict_proba");
      }
    }
  }
}

// Two evaluators scoring their widest batches at once, on two pool
// workers, share the helpers and still produce their solo rows.
TEST(RecurrentShares, TwoEvaluatorsScoringAtOnceMatchTheirSoloRows) {
  const std::size_t width = share_widths().back();
  for (const auto& model : recurrent_models()) {
    SCOPED_TRACE(testing::Message() << "classes=" << model->num_classes());
    const TokenSeq bases[2] = {sample_tokens(41, 47), sample_tokens(29, 53)};
    std::unique_ptr<SwapEvaluator> evaluators[2];
    std::vector<SwapCandidate> swaps[2];
    Matrix solo[2];
    for (std::size_t e = 0; e < 2; ++e) {
      evaluators[e] = model->make_swap_evaluator(bases[e]);
      swaps[e] = spread_swaps(bases[e], width);
      (void)evaluators[e]->eval_swap_batch(swaps[e], solo[e]);
    }
    constexpr std::size_t kRepeats = 20;
    bool matched[2] = {true, true};
    {
      ThreadPool pool(2);
      for (std::size_t e = 0; e < 2; ++e) {
        pool.submit([&, e] {
          Matrix scores;
          for (std::size_t r = 0; r < kRepeats; ++r) {
            (void)evaluators[e]->eval_swap_batch(swaps[e], scores);
            matched[e] = matched[e] && same_matrix(scores, solo[e]);
          }
        });
      }
      pool.wait_idle();
    }
    EXPECT_TRUE(matched[0]);
    EXPECT_TRUE(matched[1]);
  }
}

// A hidden width past 256 units: the rebase, a swap batch and a tokens
// batch of an LSTM and a GRU equal predict_proba exactly. Small (a short
// base, three rows), since this suite also runs under TSan.
TEST(RecurrentShares, WideHiddenMatchesPredictProba) {
  RecurrentConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.hidden = 300;
  const LstmClassifier lstm(config, Matrix(task().paragram));
  const GruClassifier gru(config, Matrix(task().paragram));
  for (const TextClassifier* model :
       {static_cast<const TextClassifier*>(&lstm),
        static_cast<const TextClassifier*>(&gru)}) {
    SCOPED_TRACE(model == &lstm ? "lstm" : "gru");
    TokenSeq base = sample_tokens(6, 59);
    auto evaluator = model->make_swap_evaluator(base);
    EXPECT_EQ(evaluator->eval_tokens(base), model->predict_proba(base));
    const std::vector<SwapCandidate> swaps = {{0, 7}, {3, 9}, {5, 11}};
    Matrix scores;
    ASSERT_EQ(evaluator->eval_swap_batch(swaps, scores).evaluated, 3u);
    std::vector<TokenSeq> docs;
    for (std::size_t i = 0; i < swaps.size(); ++i) {
      TokenSeq swapped = base;
      swapped[swaps[i].pos] = swaps[i].word;
      expect_rows_equal(scores, i, model->predict_proba(swapped), "swap");
      swapped[1] = 4;
      docs.push_back(swapped);
    }
    ASSERT_EQ(evaluator->eval_tokens_batch(docs, scores).evaluated, 3u);
    for (std::size_t i = 0; i < docs.size(); ++i) {
      expect_rows_equal(scores, i, model->predict_proba(docs[i]), "tokens");
    }
    base[2] = base[2] == 6 ? 8 : 6;
    evaluator->rebase(base);
    EXPECT_EQ(evaluator->eval_tokens(base), model->predict_proba(base));
  }
}

// ---- attack/pipeline level -------------------------------------------------

class BatchPipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config = make_yelp(53).config;
    config.seed = 53;
    config.num_train = 250;
    config.num_test = 40;
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

  static AttackEvalConfig sweep_config(std::size_t max_docs,
                                       std::size_t threads = 1) {
    AttackEvalConfig config;
    config.max_docs = max_docs;
    config.threads = threads;
    if (threads > 1) {
      config.make_model_replica = []() -> std::unique_ptr<TextClassifier> {
        auto replica =
            std::make_unique<WCnn>(wcnn_config(), Matrix(task_->paragram));
        copy_model_params(*model_, *replica);
        return replica;
      };
    }
    return config;
  }

  static AttackEvalResult run(const AttackEvalConfig& config) {
    return evaluate_attack(*model_, *task_, *context_, config);
  }

  // Everything but timing must be bitwise identical between the two sweeps.
  static void expect_equal_results(const AttackEvalResult& a,
                                   const AttackEvalResult& b) {
    EXPECT_EQ(a.adversarial_accuracy, b.adversarial_accuracy);
    EXPECT_EQ(a.success_rate, b.success_rate);
    EXPECT_EQ(a.mean_queries, b.mean_queries);
    EXPECT_EQ(a.mean_words_changed, b.mean_words_changed);
    EXPECT_EQ(a.mean_sentences_changed, b.mean_sentences_changed);
    EXPECT_EQ(a.docs_evaluated, b.docs_evaluated);
    EXPECT_EQ(a.docs_attacked, b.docs_attacked);
    EXPECT_EQ(a.sweep_queries_used, b.sweep_queries_used);
    ASSERT_EQ(a.adv_docs.size(), b.adv_docs.size());
    for (std::size_t i = 0; i < a.adv_docs.size(); ++i) {
      EXPECT_EQ(a.adv_docs[i].flatten(), b.adv_docs[i].flatten())
          << "adv doc " << i << " diverged";
    }
    ASSERT_EQ(a.attacks.size(), b.attacks.size());
    for (std::size_t i = 0; i < a.attacks.size(); ++i) {
      EXPECT_EQ(a.attacks[i].success, b.attacks[i].success);
      EXPECT_EQ(a.attacks[i].final_target_proba,
                b.attacks[i].final_target_proba);
      EXPECT_EQ(a.attacks[i].queries, b.attacks[i].queries)
          << "attack " << i << " query count diverged";
      EXPECT_EQ(a.attacks[i].adv_doc.flatten(),
                b.attacks[i].adv_doc.flatten());
    }
  }

  static SynthTask* task_;
  static TaskAttackContext* context_;
  static WCnn* model_;
};

SynthTask* BatchPipelineFixture::task_ = nullptr;
TaskAttackContext* BatchPipelineFixture::context_ = nullptr;
WCnn* BatchPipelineFixture::model_ = nullptr;

// A per-document query cap binds identically at any worker count: the
// committed records are bitwise-identical at 1 and 4 attack threads, and
// no document runs more forwards than the cap. Counted queries are a
// subset of those forwards: Alg. 3's gradient calls and verification are
// charged but not counted.
TEST_F(BatchPipelineFixture, CappedSweepMatchesAcrossThreadCounts) {
  constexpr std::size_t kCap = 60;
  const auto capped = [](std::size_t threads, std::string& records) {
    AttackEvalConfig config = sweep_config(10, threads);
    config.joint.max_queries = kCap;
    config.on_commit = [&records](const DocRecord& record) {
      std::ostringstream out;
      write_record(out, record);
      records += out.str();
    };
    return run(config);
  };
  std::string serial_records;
  std::string parallel_records;
  const AttackEvalResult serial = capped(1, serial_records);
  const AttackEvalResult parallel = capped(4, parallel_records);
  EXPECT_GT(serial.docs_budget, 0u) << "the cap should bind on some document";
  EXPECT_EQ(serial_records, parallel_records);
  expect_equal_results(serial, parallel);
  for (const AttackEvalResult* result : {&serial, &parallel}) {
    for (const JointAttackResult& attack : result->attacks) {
      EXPECT_LE(attack.queries, attack.forwards);
      EXPECT_LE(attack.forwards, kCap);
    }
  }
}

// Forwards every oracle bitwise but raises SIGTERM on the Nth
// predict_proba call (the parallel_pipeline_test pattern).
class SigtermAfterNCalls : public TextClassifier {
 public:
  SigtermAfterNCalls(const TextClassifier& inner, std::size_t raise_after)
      : inner_(inner), remaining_(raise_after) {}

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
  mutable std::atomic<std::size_t> remaining_;
};

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// A SIGTERM-interrupted sweep leaves a checkpoint that resumes bitwise,
// checked against an uninterrupted reference.
TEST_F(BatchPipelineFixture, SigtermResumesBitwise) {
  const ScopedTempFile file("advtext_batch_cache_", "sigterm_ckpt.bin");
  const std::string& path = file.path();

  const AttackEvalResult reference = run(sweep_config(10));

  const std::size_t raise_after = task_->test.docs.size() + 4;
  EXPECT_EXIT(
      {
        StopToken::instance().install();
        const SigtermAfterNCalls raising(*model_, raise_after);
        AttackEvalConfig config = sweep_config(10);
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

  ASSERT_TRUE(file_exists(path));
  AttackEvalConfig resumed = sweep_config(10);
  resumed.checkpoint_path = path;
  resumed.checkpoint_every = 1;
  resumed.resume = true;
  const AttackEvalResult completed = run(resumed);
  expect_equal_results(reference, completed);
  EXPECT_EQ(completed.termination, TerminationReason::kSucceeded);

}

}  // namespace
}  // namespace advtext

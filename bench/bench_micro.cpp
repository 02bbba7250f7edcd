// Micro benchmarks (google-benchmark) for the hot paths of the attack
// pipeline: gemm, WCNN/LSTM forward passes, incremental swap evaluation
// (the thing that makes greedy attacks fast), input gradients, WMD solves
// and LM scoring.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/data/synthetic.h"
#include "src/nn/lstm.h"
#include "src/nn/wcnn.h"
#include "src/text/ngram_lm.h"
#include "src/text/wmd.h"
#include "src/util/rng.h"

namespace {

using namespace advtext;

const SynthTask& task() {
  static const SynthTask t = make_yelp();
  return t;
}

TokenSeq sample_tokens(std::size_t length) {
  Rng rng(9);
  TokenSeq tokens;
  const WordId vocab = task().vocab.size();
  for (std::size_t i = 0; i < length; ++i) {
    tokens.push_back(static_cast<WordId>(2 + rng.uniform_index(vocab - 2)));
  }
  return tokens;
}

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, n);
  Matrix b(n, n);
  a.fill_normal(rng, 1.0f);
  b.fill_normal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// The LSTM attack's gemm: m stacked rows times the packed 4H x k gate
// weights at hidden 24 (4H = 96), k = 16 for the input term (the task's
// embedding width) and 24 for the recurrent one. m = 1 is a rebase step or
// the shared base-token input term; m = 64 is a full scoring chunk.
void BM_GemmNtPacked(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t n = 96;
  Rng rng(1);
  Matrix a(m, k);
  Matrix b(n, k);
  a.fill_normal(rng, 1.0f);
  b.fill_normal(rng, 1.0f);
  PackedB packed;
  gemm_pack_b(b.data(), n, k, packed);
  Matrix c(m, n);
  for (auto _ : state) {
    gemm_nt_packed(a.data(), m, packed, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 2 * m * n * k),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNtPacked)
    ->Args({1, 16})
    ->Args({1, 24})
    ->Args({64, 16})
    ->Args({64, 24});

void BM_WCnnForward(benchmark::State& state) {
  WCnnConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.num_filters = 48;
  WCnn model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(tokens));
  }
}
BENCHMARK(BM_WCnnForward)->Arg(25)->Arg(50)->Arg(100);

// The sentence phase's scoring chunk at the benchmark victim's shape (96
// filters): 64 paraphrases of one 80-token document of eight 10-token
// sentences, scored in one eval_tokens_batch. Even rows rewrite five words
// of one sentence (same length); odd rows drop one token.
void BM_WCnnTokensBatch(benchmark::State& state) {
  WCnnConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.num_filters = 96;
  WCnn model(config, Matrix(task().paragram));
  const TokenSeq base = sample_tokens(80);
  const WordId vocab = task().vocab.size();
  Rng rng(11);
  std::vector<TokenSeq> rows;
  for (std::size_t r = 0; r < 64; ++r) {
    TokenSeq row = base;
    if (r % 2 == 0) {
      const std::size_t sentence = (r / 2) % 8;
      for (std::size_t i = 0; i < 10; i += 2) {
        row[sentence * 10 + i] =
            static_cast<WordId>(2 + rng.uniform_index(vocab - 2));
      }
    } else {
      row.erase(row.begin() + static_cast<std::ptrdiff_t>((r * 7) % 80));
    }
    rows.push_back(row);
  }
  auto evaluator = model.make_swap_evaluator(base);
  Matrix scores;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->eval_tokens_batch(rows, scores));
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_WCnnTokensBatch);

void BM_WCnnSwapEval(benchmark::State& state) {
  WCnnConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.num_filters = 48;
  WCnn model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(static_cast<std::size_t>(
      state.range(0)));
  auto evaluator = model.make_swap_evaluator(tokens);
  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->eval_swap(pos, 5));
    pos = (pos + 7) % tokens.size();
  }
}
BENCHMARK(BM_WCnnSwapEval)->Arg(25)->Arg(50)->Arg(100);

void BM_LstmForward(benchmark::State& state) {
  LstmConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.hidden = 24;
  LstmClassifier model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(tokens));
  }
}
BENCHMARK(BM_LstmForward)->Arg(25)->Arg(50)->Arg(100);

void BM_LstmSwapEval(benchmark::State& state) {
  LstmConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.hidden = 24;
  LstmClassifier model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(static_cast<std::size_t>(
      state.range(0)));
  auto evaluator = model.make_swap_evaluator(tokens);
  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->eval_swap(pos, 5));
    pos = (pos + 7) % tokens.size();
  }
}
BENCHMARK(BM_LstmSwapEval)->Arg(25)->Arg(50)->Arg(100);

// Batched candidate scoring vs the per-candidate loop it replaces: the
// same `batch` distinct swaps of one base document, scored through
// eval_swap_batch (one blocked gemm per layer) or through `batch` calls
// of eval_swap. The ratio at each size is the headline win of the
// batched scoring path.
void BM_WCnnSwapBatch(benchmark::State& state) {
  WCnnConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.num_filters = 48;
  WCnn model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(100);
  auto evaluator = model.make_swap_evaluator(tokens);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<SwapCandidate> candidates;
  for (std::size_t i = 0; i < batch; ++i) {
    candidates.push_back(
        {i % tokens.size(), static_cast<WordId>(5 + i / tokens.size())});
  }
  Matrix scores;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->eval_swap_batch(candidates, scores));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_WCnnSwapBatch)->Arg(8)->Arg(32)->Arg(128);

void BM_WCnnSwapLooped(benchmark::State& state) {
  WCnnConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.num_filters = 48;
  WCnn model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(100);
  auto evaluator = model.make_swap_evaluator(tokens);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      benchmark::DoNotOptimize(evaluator->eval_swap(
          i % tokens.size(), static_cast<WordId>(5 + i / tokens.size())));
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_WCnnSwapLooped)->Arg(8)->Arg(32)->Arg(128);

void BM_LstmSwapBatch(benchmark::State& state) {
  LstmConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.hidden = 24;
  LstmClassifier model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(100);
  auto evaluator = model.make_swap_evaluator(tokens);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<SwapCandidate> candidates;
  for (std::size_t i = 0; i < batch; ++i) {
    candidates.push_back(
        {i % tokens.size(), static_cast<WordId>(5 + i / tokens.size())});
  }
  Matrix scores;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->eval_swap_batch(candidates, scores));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
// Real time: a batch of 8 or more rows is split over the parallel_for
// helpers, whose work the calling thread's CPU time does not count.
BENCHMARK(BM_LstmSwapBatch)->Arg(8)->Arg(32)->Arg(128)->UseRealTime();

void BM_LstmSwapLooped(benchmark::State& state) {
  LstmConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.hidden = 24;
  LstmClassifier model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(100);
  auto evaluator = model.make_swap_evaluator(tokens);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      benchmark::DoNotOptimize(evaluator->eval_swap(
          i % tokens.size(), static_cast<WordId>(5 + i / tokens.size())));
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmSwapLooped)->Arg(8)->Arg(32)->Arg(128);

void BM_LstmInputGradient(benchmark::State& state) {
  LstmConfig config;
  config.embed_dim = task().config.embedding_dim;
  config.hidden = 24;
  LstmClassifier model(config, Matrix(task().paragram));
  const TokenSeq tokens = sample_tokens(50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.input_gradient(tokens, 1));
  }
}
BENCHMARK(BM_LstmInputGradient);

void BM_WmdExact(benchmark::State& state) {
  const Wmd wmd(task().paragram, Wmd::Method::kExact);
  const Sentence a = sample_tokens(static_cast<std::size_t>(state.range(0)));
  const Sentence b = sample_tokens(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wmd.distance(a, b));
  }
}
BENCHMARK(BM_WmdExact)->Arg(6)->Arg(12)->Arg(24);

void BM_WmdRelaxed(benchmark::State& state) {
  const Wmd wmd(task().paragram, Wmd::Method::kRelaxed);
  const Sentence a = sample_tokens(static_cast<std::size_t>(state.range(0)));
  const Sentence b = sample_tokens(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wmd.distance(a, b));
  }
}
BENCHMARK(BM_WmdRelaxed)->Arg(6)->Arg(12)->Arg(24);

void BM_LmReplacementDelta(benchmark::State& state) {
  static const NGramLm lm(task().train,
                          static_cast<std::size_t>(task().vocab.size()));
  const TokenSeq tokens = sample_tokens(50);
  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.replacement_delta(tokens, pos, 7));
    pos = (pos + 3) % tokens.size();
  }
}
BENCHMARK(BM_LmReplacementDelta);

}  // namespace

BENCHMARK_MAIN();

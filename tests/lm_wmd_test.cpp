// Tests for the Kneser-Ney language model and Word Mover's Distance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/data/synthetic.h"
#include "src/optim/transport.h"
#include "src/text/ngram_lm.h"
#include "src/text/wmd.h"
#include "src/util/rng.h"
#include "src/util/robust.h"

namespace advtext {
namespace {

Dataset tiny_corpus() {
  // Vocab ids: 2..6. Bigrams: (2,3) frequent, (2,4) rare.
  Dataset data;
  data.num_classes = 2;
  auto add = [&](std::vector<Sentence> sents) {
    Document doc;
    doc.label = 0;
    doc.sentences = std::move(sents);
    data.docs.push_back(std::move(doc));
  };
  for (int i = 0; i < 10; ++i) add({{2, 3, 5}});
  add({{2, 4, 5}});
  add({{6, 3}});
  return data;
}

TEST(NGramLm, ConditionalIsAProbability) {
  const Dataset data = tiny_corpus();
  const NGramLm lm(data, 8);
  for (WordId prev : {-1, 2, 3, 7}) {
    double total = 0.0;
    for (WordId w = 0; w < 8; ++w) {
      const double p = lm.conditional(prev, w);
      EXPECT_GT(p, 0.0);
      EXPECT_LE(p, 1.0);
      total += p;
    }
    // KN with the uniform mixture should sum close to 1 over the vocab.
    EXPECT_NEAR(total, 1.0, 0.15) << "context " << prev;
  }
}

TEST(NGramLm, FrequentBigramBeatsRareBigram) {
  const NGramLm lm(tiny_corpus(), 8);
  EXPECT_GT(lm.conditional(2, 3), lm.conditional(2, 4));
}

TEST(NGramLm, UnseenContextFallsBackToContinuation) {
  const NGramLm lm(tiny_corpus(), 8);
  // Word 3 continues more contexts than word 4.
  EXPECT_GT(lm.conditional(7, 3), lm.conditional(7, 4));
}

TEST(NGramLm, SentenceLogProbIsSumOfConditionals) {
  const NGramLm lm(tiny_corpus(), 8);
  const Sentence s = {2, 3, 5};
  const double expected = std::log(lm.conditional(-1, 2)) +
                          std::log(lm.conditional(2, 3)) +
                          std::log(lm.conditional(3, 5));
  EXPECT_NEAR(lm.sentence_log_prob(s), expected, 1e-9);
}

TEST(NGramLm, ReplacementDeltaMatchesFullRecomputation) {
  const NGramLm lm(tiny_corpus(), 8);
  const TokenSeq tokens = {2, 3, 5, 6, 3};
  for (std::size_t pos = 0; pos < tokens.size(); ++pos) {
    for (WordId cand : {2, 4, 7}) {
      TokenSeq swapped = tokens;
      swapped[pos] = cand;
      const double full =
          lm.sequence_log_prob(swapped) - lm.sequence_log_prob(tokens);
      EXPECT_NEAR(lm.replacement_delta(tokens, pos, cand), full, 1e-9)
          << "pos " << pos << " cand " << cand;
    }
  }
}

TEST(NGramLm, NaturalSwapHasSmallerDeltaThanJunkSwap) {
  // Replacing a word with one seen in the same context should move ln P
  // less than replacing it with a never-seen-in-context word.
  const NGramLm lm(tiny_corpus(), 8);
  const TokenSeq tokens = {2, 3, 5};
  const double natural = std::abs(lm.replacement_delta(tokens, 1, 4));
  const double junk = std::abs(lm.replacement_delta(tokens, 1, 7));
  EXPECT_LT(natural, junk);
}

TEST(NGramLm, PerplexityPositive) {
  const NGramLm lm(tiny_corpus(), 8);
  Document doc;
  doc.sentences = {{2, 3, 5}};
  EXPECT_GT(lm.perplexity(doc), 1.0);
  Document empty;
  EXPECT_DOUBLE_EQ(lm.perplexity(empty), 0.0);
}

// ---- WMD ----------------------------------------------------------------

Matrix grid_embeddings() {
  // 6 words on a line: word i at (i, 0) so distances are |i - j|.
  Matrix emb(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    emb(i, 0) = static_cast<float>(i);
  }
  return emb;
}

TEST(Wmd, WordDistanceIsEuclidean) {
  const Matrix emb = grid_embeddings();
  const Wmd wmd(emb);
  EXPECT_NEAR(wmd.word_distance(2, 5), 3.0, 1e-6);
  EXPECT_DOUBLE_EQ(wmd.word_distance(3, 3), 0.0);
  EXPECT_NEAR(wmd.word_similarity(3, 3), 1.0, 1e-9);
  EXPECT_LT(wmd.word_similarity(0, 5), wmd.word_similarity(0, 1));
}

TEST(Wmd, IdenticalSentencesHaveZeroDistance) {
  const Matrix emb = grid_embeddings();
  const Wmd wmd(emb);
  const Sentence s = {2, 3, 4};
  EXPECT_DOUBLE_EQ(wmd.distance(s, s), 0.0);
  EXPECT_DOUBLE_EQ(wmd.similarity(s, s), 1.0);
  // Word order does not matter for WMD (bag-of-words).
  EXPECT_DOUBLE_EQ(wmd.distance({2, 3, 4}, {4, 2, 3}), 0.0);
}

TEST(Wmd, SymmetricAndNonNegative) {
  const Matrix emb = grid_embeddings();
  const Wmd wmd(emb);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Sentence a;
    Sentence b;
    for (int i = 0; i < 4; ++i) {
      a.push_back(static_cast<WordId>(rng.uniform_index(6)));
      b.push_back(static_cast<WordId>(rng.uniform_index(6)));
    }
    const double dab = wmd.distance(a, b);
    const double dba = wmd.distance(b, a);
    EXPECT_NEAR(dab, dba, 1e-9);
    EXPECT_GE(dab, 0.0);
  }
}

TEST(Wmd, SingleWordSwapDistanceEqualsScaledWordDistance) {
  // Sentence of n distinct words, one replaced: the mover distance is
  // (1/n) * d(old, new) when all other words match exactly.
  const Matrix emb = grid_embeddings();
  const Wmd wmd(emb);
  const Sentence a = {0, 2, 4};
  const Sentence b = {0, 2, 5};
  EXPECT_NEAR(wmd.distance(a, b), (1.0 / 3.0) * 1.0, 1e-6);
}

TEST(Wmd, EmptySentenceEdgeCases) {
  const Matrix emb = grid_embeddings();
  const Wmd wmd(emb);
  EXPECT_DOUBLE_EQ(wmd.distance({}, {}), 0.0);
  EXPECT_TRUE(std::isinf(wmd.distance({}, {1, 2})));
  EXPECT_DOUBLE_EQ(wmd.similarity({}, {1, 2}), 0.0);
}

TEST(Wmd, TriangleLikeMonotonicity) {
  // Moving a word further away cannot decrease the distance.
  const Matrix emb = grid_embeddings();
  const Wmd wmd(emb);
  const Sentence base = {1, 2};
  double prev = 0.0;
  for (WordId far = 2; far < 6; ++far) {
    const double d = wmd.distance(base, {1, far});
    EXPECT_GE(d + 1e-9, prev);
    prev = d;
  }
}

TEST(Wmd, RelaxedIsLowerBoundOfExact) {
  const SynthTask task = make_yelp(123);
  const Wmd exact(task.paragram, Wmd::Method::kExact);
  const Wmd relaxed(task.paragram, Wmd::Method::kRelaxed);
  Rng rng(6);
  const WordId vocab = task.vocab.size();
  for (int trial = 0; trial < 15; ++trial) {
    Sentence a;
    Sentence b;
    for (int i = 0; i < 6; ++i) {
      a.push_back(static_cast<WordId>(2 + rng.uniform_index(vocab - 2)));
      b.push_back(static_cast<WordId>(2 + rng.uniform_index(vocab - 2)));
    }
    EXPECT_LE(relaxed.distance(a, b), exact.distance(a, b) + 1e-7);
  }
}

TEST(Wmd, SinkhornUpperBoundsExact) {
  const SynthTask task = make_yelp(123);
  const Wmd exact(task.paragram, Wmd::Method::kExact);
  const Wmd sinkhorn(task.paragram, Wmd::Method::kSinkhorn);
  const Sentence a = {5, 8, 11, 14};
  const Sentence b = {6, 9, 12, 15};
  EXPECT_GE(sinkhorn.distance(a, b) + 0.05, exact.distance(a, b));
}

TEST(Wmd, ClusterSiblingsAreCloserThanStrangers) {
  // The paragram embeddings must place synonym-cluster words close: this
  // is the property the paraphrase index depends on.
  const SynthTask task = make_news(55);
  const Wmd wmd(task.paragram);
  double within = 0.0;
  std::size_t within_n = 0;
  double across = 0.0;
  std::size_t across_n = 0;
  for (std::size_t c = 0; c + 1 < task.concept_members.size(); c += 2) {
    const auto& m0 = task.concept_members[c];
    const auto& m1 = task.concept_members[c + 1];
    within += wmd.word_distance(m0[0], m0[1]);
    ++within_n;
    across += wmd.word_distance(m0[0], m1[0]);
    ++across_n;
  }
  EXPECT_LT(within / within_n, 0.5 * (across / across_n));
}

// ---- WMD on the mass difference ------------------------------------------

// Word counts of a sentence, ordered by id.
std::map<WordId, std::size_t> word_counts(const Sentence& s) {
  std::map<WordId, std::size_t> counts;
  for (WordId w : s) ++counts[w];
  return counts;
}

bool proportional_counts(const Sentence& a, const Sentence& b) {
  const std::map<WordId, std::size_t> counts_a = word_counts(a);
  std::map<WordId, std::size_t> counts_b = word_counts(b);
  if (counts_a.size() != counts_b.size()) return false;
  for (const auto& [w, count] : counts_a) {
    if (count * b.size() != counts_b[w] * a.size()) return false;
  }
  return true;
}

// Full-support reference: one transport problem over every word of both
// nBOWs, as WMD is defined, with no mass subtracted.
double full_support_wmd(const Wmd& wmd, const Sentence& a, const Sentence& b) {
  const std::map<WordId, std::size_t> counts_a = word_counts(a);
  const std::map<WordId, std::size_t> counts_b = word_counts(b);
  std::vector<double> weights_a;
  std::vector<double> weights_b;
  for (const auto& [w, count] : counts_a) weights_a.push_back(count);
  for (const auto& [w, count] : counts_b) weights_b.push_back(count);
  Matrix cost(counts_a.size(), counts_b.size());
  std::size_t i = 0;
  for (const auto& [wa, ca] : counts_a) {
    std::size_t j = 0;
    for (const auto& [wb, cb] : counts_b) {
      cost(i, j++) = static_cast<float>(wmd.word_distance(wa, wb));
    }
    ++i;
  }
  return solve_transport_exact(cost, weights_a, weights_b);
}

constexpr std::size_t kPropertyVocab = 40;

// Sentence pairs from eight seeds, covering the shapes the neighbour sets
// produce and the edge cases of the reduction: one- and two-word swaps, a
// dropped word, repeated words, proportional counts and disjoint sentences.
std::vector<std::pair<Sentence, Sentence>> property_pairs() {
  std::vector<std::pair<Sentence, Sentence>> pairs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto word = [&] {
      return static_cast<WordId>(rng.uniform_index(kPropertyVocab));
    };
    Sentence base;
    const std::size_t length = 5 + rng.uniform_index(8);
    for (std::size_t i = 0; i < length; ++i) base.push_back(word());
    const auto position = [&] { return rng.uniform_index(base.size()); };

    Sentence one_swap = base;
    one_swap[position()] = word();
    pairs.emplace_back(base, one_swap);

    Sentence two_swaps = base;
    two_swaps[position()] = word();
    two_swaps[position()] = word();
    pairs.emplace_back(base, two_swaps);

    Sentence dropped = base;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(position()));
    pairs.emplace_back(base, dropped);

    Sentence repeated = base;  // one word now appears twice
    repeated[0] = base[1];
    pairs.emplace_back(base, repeated);
    Sentence extra_copy = base;  // unequal lengths with a repeated word
    extra_copy.push_back(base[position()]);
    pairs.emplace_back(base, extra_copy);

    pairs.push_back(
        {{base[0], base[1]}, {base[0], base[0], base[1], base[1]}});
    Sentence doubled = base;
    doubled.insert(doubled.end(), base.begin(), base.end());
    pairs.emplace_back(base, doubled);

    Sentence disjoint;
    for (WordId w = 0; disjoint.size() < 6; ++w) {
      if (std::find(base.begin(), base.end(), w) == base.end()) {
        disjoint.push_back(w);
      }
    }
    pairs.emplace_back(base, disjoint);
  }
  return pairs;
}

Matrix property_embeddings() {
  Rng rng(31);
  Matrix emb(kPropertyVocab, 16);
  emb.fill_normal(rng, 1.0f);
  return emb;
}

TEST(WmdMassDifference, MatchesFullSupportReference) {
  const Matrix emb = property_embeddings();
  const Wmd wmd(emb);
  for (const auto& [a, b] : property_pairs()) {
    const double full = full_support_wmd(wmd, a, b);
    EXPECT_NEAR(wmd.distance(a, b), full, 1e-12 * full)
        << "|a| " << a.size() << ", |b| " << b.size();
  }
}

TEST(WmdMassDifference, SymmetricAndZeroExactlyOnProportionalCounts) {
  const Matrix emb = property_embeddings();
  const Wmd wmd(emb);
  std::size_t proportional = 0;
  for (const auto& [a, b] : property_pairs()) {
    const double ab = wmd.distance(a, b);
    EXPECT_NEAR(ab, wmd.distance(b, a), 1e-12 * ab);
    EXPECT_EQ(ab == 0.0, proportional_counts(a, b))
        << "|a| " << a.size() << ", |b| " << b.size();
    proportional += proportional_counts(a, b) ? 1 : 0;
  }
  EXPECT_GE(proportional, 16u);  // both proportional cases of every seed
}

TEST(WmdMassDifference, OneExactSolvePerNonzeroDistance) {
  // Every exact solve fails, so each one is counted once as a fallback.
  struct InjectorGuard {
    InjectorGuard() { FaultInjector::instance().configure(""); }
    ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
  } guard;
  const Matrix emb = property_embeddings();
  const Wmd wmd(emb);
  const auto pairs = property_pairs();
  std::size_t nonzero = 0;
  for (const auto& [a, b] : pairs) nonzero += wmd.distance(a, b) != 0.0;
  FaultInjector::instance().configure("transport.exact:1.0");
  for (const auto& [a, b] : pairs) (void)wmd.distance(a, b);
  EXPECT_GT(nonzero, 0u);
  EXPECT_EQ(wmd.degradation().to_sinkhorn, nonzero);
}

}  // namespace
}  // namespace advtext

// Ablation: WMD solver choices. The paraphrase filters call WMD millions
// of times, so the solver matters: this bench compares the exact
// min-cost-flow solve, the RWMD lower bound, and Sinkhorn on distance
// fidelity and throughput, plus the effect on the sentence-paraphrase sets
// the attack actually consumes.
//
// Two pair sets: same-position sentences of consecutive test documents
// (distant pairs that share few words), and each test sentence against the
// paraphrases the exact solver accepts for it (the near-copies the
// neighbour sets score). Throughput is the median of kPasses timed passes,
// each a whole number of sweeps over the set lasting at least
// kMinPassSeconds, printed with the passes' quartiles.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/report.h"
#include "src/util/stopwatch.h"

namespace {

using namespace advtext;

using SentencePairs = std::vector<std::pair<Sentence, Sentence>>;

constexpr std::size_t kMaxPairs = 200;
constexpr std::size_t kPasses = 9;
constexpr double kMinPassSeconds = 0.05;

/// Same-position sentences of consecutive test documents.
SentencePairs consecutive_pairs(const SynthTask& task) {
  SentencePairs pairs;
  for (std::size_t i = 0;
       i + 1 < task.test.docs.size() && pairs.size() < kMaxPairs; ++i) {
    const auto& a = task.test.docs[i].sentences;
    const auto& b = task.test.docs[i + 1].sentences;
    for (std::size_t j = 0; j < std::min(a.size(), b.size()); ++j) {
      pairs.emplace_back(a[j], b[j]);
    }
  }
  return pairs;
}

/// Each test sentence against the paraphrases the exact solver accepts.
SentencePairs paraphrase_pairs(const SynthTask& task,
                               const SentenceParaphraser& paraphraser,
                               const Wmd& exact) {
  SentencePairs pairs;
  for (const Document& doc : task.test.docs) {
    for (const Sentence& base : doc.sentences) {
      for (Sentence& candidate : paraphraser.paraphrases(base, exact)) {
        pairs.emplace_back(base, std::move(candidate));
        if (pairs.size() >= kMaxPairs) return pairs;
      }
    }
  }
  return pairs;
}

/// Pairs per second of `wmd` over `pairs`, one rate per timed pass, sorted.
std::vector<double> pass_rates(const Wmd& wmd, const SentencePairs& pairs) {
  std::vector<double> rates;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    Stopwatch watch;
    std::size_t evaluated = 0;
    do {
      for (const auto& [a, b] : pairs) (void)wmd.distance(a, b);
      evaluated += pairs.size();
    } while (watch.elapsed_seconds() < kMinPassSeconds);
    rates.push_back(static_cast<double>(evaluated) / watch.elapsed_seconds());
  }
  std::sort(rates.begin(), rates.end());
  return rates;
}

}  // namespace

int main() {
  using namespace advtext::bench;

  print_banner("Ablation: WMD solver (exact MCMF vs RWMD vs Sinkhorn)");
  const SynthTask task = make_yelp();
  const TaskAttackContext context(task);
  const Wmd exact(task.paragram, Wmd::Method::kExact);
  const Wmd relaxed(task.paragram, Wmd::Method::kRelaxed);
  const Wmd sinkhorn(task.paragram, Wmd::Method::kSinkhorn);
  const std::pair<const char*, const Wmd*> solvers[] = {
      {"exact", &exact},
      {"relaxed (RWMD)", &relaxed},
      {"sinkhorn", &sinkhorn}};
  const std::pair<const char*, SentencePairs> pair_sets[] = {
      {"consecutive docs", consecutive_pairs(task)},
      {"base/paraphrase",
       paraphrase_pairs(task, context.paraphraser(), exact)}};

  TablePrinter table({"Pairs", "Solver", "mean |err|", "max under",
                      "pairs/s", "q1-q3"},
                     {22, 15, 10, 10, 9, 15});
  table.print_header();
  for (const auto& [set_name, pairs] : pair_sets) {
    std::vector<double> exact_values;
    exact_values.reserve(pairs.size());
    for (const auto& [a, b] : pairs) {
      exact_values.push_back(exact.distance(a, b));
    }
    for (const auto& [solver_name, wmd] : solvers) {
      double err = 0.0;
      double max_under = 0.0;  // how far below exact (RWMD is a lower bound)
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const double d = wmd->distance(pairs[i].first, pairs[i].second);
        err += std::abs(d - exact_values[i]);
        max_under = std::max(max_under, exact_values[i] - d);
      }
      const std::vector<double> rates = pass_rates(*wmd, pairs);
      table.print_row(
          {std::string(set_name) + " (" + std::to_string(pairs.size()) + ")",
           solver_name,
           format_double(err / static_cast<double>(pairs.size()), 4),
           format_double(max_under, 4),
           format_double(rates[rates.size() / 2], 0),
           format_double(rates[rates.size() / 4], 0) + "-" +
               format_double(rates[rates.size() * 3 / 4], 0)});
    }
  }
  table.print_rule();
  std::printf("pairs/s: median of %zu passes of >= %.0f ms each\n", kPasses,
              kMinPassSeconds * 1e3);

  // Effect on the paraphrase sets the attack consumes.
  print_banner("Sentence-paraphrase sets per solver (first 30 sentences)");
  TablePrinter sets_table({"Solver", "mean |S_i|"}, {15, 10});
  sets_table.print_header();
  for (const auto& [solver_name, wmd] : solvers) {
    double total = 0.0;
    std::size_t sentences = 0;
    for (const Document& doc : task.test.docs) {
      for (const Sentence& sentence : doc.sentences) {
        total += static_cast<double>(
            context.paraphraser().paraphrases(sentence, *wmd).size());
        if (++sentences >= 30) break;
      }
      if (sentences >= 30) break;
    }
    sets_table.print_row(
        {solver_name,
         format_double(total / static_cast<double>(sentences), 2)});
  }
  sets_table.print_rule();
  std::printf(
      "\nShape check: RWMD under-estimates (admits more paraphrases) but\n"
      "is fastest; Sinkhorn over-estimates slightly; the exact solver is\n"
      "the reference.\n");
  return 0;
}

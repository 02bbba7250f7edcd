// Table 3 reproduction: attack success rate and per-document time of the
// three word-level optimization schemes on the WCNN classifier, with
// λw ∈ {5%, 20%} and no sentence paraphrasing (pure optimization
// comparison, paper §6.4). The WCNN runs with 5% MC dropout at inference,
// as the paper describes.
//
// Paper values (Table 3), (SR%, seconds/doc):
//             greedy[19]        gradient[18]      ours (Alg. 3)
//   λw:       5%      20%       5%      20%       5%      20%
//   News      26.2/.79 28.4/1.5  9.9/.13 12.8/.21  39.7/.26 45.4/.31
//   Trec07p    5.1/.19 24.9/.33  0.9/.03  3.4/.05  12.9/.07 45.3/.09
//   Yelp      12.7/.15 45.0/.21  4.2/.02  9.1/.03  20.7/.02 55.9/.05
// Shape to match: ours >= greedy[19] >> gradient[18] on success rate, and
// ours much cheaper per document than greedy[19].
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/gradient_attack.h"
#include "src/core/gradient_guided_greedy.h"
#include "src/core/objective_greedy.h"
#include "src/eval/report.h"
#include "src/nn/checkpoint.h"
#include "src/util/stopwatch.h"

namespace {

using namespace advtext;
using namespace advtext::bench;

struct MethodStats {
  double success_rate = 0.0;
  double seconds = 0.0;
  double queries = 0.0;  ///< per attacked document
  std::size_t attacked = 0;
  std::size_t total_queries = 0;
};

// The attacker queries the stochastic (MC-dropout) model, but success is
// judged on the deterministic decision rule — a stochastic verdict would
// award wins for lucky dropout draws on near-boundary documents.
//
// Two stages so the sweep parallelizes: (1) eligibility — which documents
// the deterministic rule classifies correctly — runs serially on the
// primary model (cheap, no dropout draws); (2) the attacks run over the
// eligible list on `threads` workers, each with its own WCnn replica
// (dropout toggling is per-replica state, so workers never share a model).
// Per-doc outcomes are reduced in document order; with threads=1 this is
// step-for-step the original serial loop, and for mc_dropout=0 any thread
// count produces identical stats.
MethodStats run_method(WCnn& model, const SynthTask& task,
                       const TaskAttackContext& context,
                       const std::string& method, double lambda_w,
                       std::size_t max_docs, bool use_lm, float mc_dropout,
                       std::size_t threads) {
  std::vector<std::size_t> eligible;
  model.set_mc_dropout(0.0f);
  for (std::size_t i = 0;
       i < task.test.docs.size() && eligible.size() < max_docs; ++i) {
    const TokenSeq tokens = task.test.docs[i].flatten();
    if (!tokens.empty() &&
        model.predict(tokens) ==
            static_cast<std::size_t>(task.test.docs[i].label)) {
      eligible.push_back(i);
    }
  }
  model.set_mc_dropout(mc_dropout);

  const std::size_t workers =
      threads < 2 || eligible.size() < 2
          ? 1
          : (threads < eligible.size() ? threads : eligible.size());
  std::vector<std::unique_ptr<WCnn>> replicas;
  for (std::size_t w = 1; w < workers; ++w) {
    replicas.push_back(make_wcnn(task, mc_dropout));
    copy_model_params(model, *replicas.back());
  }

  struct DocOutcome {
    bool flipped = false;
    double seconds = 0.0;
    std::size_t queries = 0;
  };
  const std::vector<DocOutcome> outcomes = parallel_index_map<DocOutcome>(
      eligible.size(), workers,
      [&](std::size_t worker, std::size_t index) {
        WCnn& worker_model = worker == 0 ? model : *replicas[worker - 1];
        const Document& doc = task.test.docs[eligible[index]];
        const TokenSeq tokens = doc.flatten();
        const std::size_t label = static_cast<std::size_t>(doc.label);
        WordCandidates candidates;
        candidates.per_position = context.word_index().candidates_for(
            tokens, use_lm ? &context.lm() : nullptr);
        WordAttackResult result;
        const std::size_t target = 1 - label;
        if (method == "greedy[19]") {
          ObjectiveGreedyConfig config;
          config.max_replace_fraction = lambda_w;
          result = objective_greedy_attack(worker_model, tokens, candidates,
                                           target, config);
        } else if (method == "gradient[18]") {
          GradientAttackConfig config;
          config.max_replace_fraction = lambda_w;
          result =
              gradient_attack(worker_model, tokens, candidates, target, config);
        } else {
          GradientGuidedGreedyConfig config;
          config.max_replace_fraction = lambda_w;
          result = gradient_guided_greedy_attack(worker_model, tokens,
                                                 candidates, target, config);
        }
        DocOutcome outcome;
        worker_model.set_mc_dropout(0.0f);
        outcome.flipped = worker_model.predict(result.adv_tokens) != label;
        worker_model.set_mc_dropout(mc_dropout);
        outcome.seconds = result.seconds;
        outcome.queries = result.queries;
        return outcome;
      });

  MethodStats stats;
  stats.attacked = outcomes.size();
  if (!outcomes.empty()) {
    std::size_t flipped = 0;
    double seconds = 0.0;
    for (const DocOutcome& outcome : outcomes) {
      if (outcome.flipped) ++flipped;
      seconds += outcome.seconds;
      stats.total_queries += outcome.queries;
    }
    const double attacked = static_cast<double>(outcomes.size());
    stats.success_rate = static_cast<double>(flipped) / attacked;
    stats.seconds = seconds / attacked;
    stats.queries = static_cast<double>(stats.total_queries) / attacked;
  }
  return stats;
}

struct PaperCell {
  const char* dataset;
  const char* method;
  double lw;
  double sr;
  double sec;
};

constexpr PaperCell kPaperCells[] = {
    {"News", "greedy[19]", 0.05, 0.262, 0.79},
    {"News", "greedy[19]", 0.20, 0.284, 1.46},
    {"News", "gradient[18]", 0.05, 0.0993, 0.13},
    {"News", "gradient[18]", 0.20, 0.128, 0.21},
    {"News", "ours", 0.05, 0.397, 0.26},
    {"News", "ours", 0.20, 0.454, 0.31},
    {"Trec07p", "greedy[19]", 0.05, 0.051, 0.19},
    {"Trec07p", "greedy[19]", 0.20, 0.249, 0.33},
    {"Trec07p", "gradient[18]", 0.05, 0.0086, 0.03},
    {"Trec07p", "gradient[18]", 0.20, 0.034, 0.05},
    {"Trec07p", "ours", 0.05, 0.129, 0.07},
    {"Trec07p", "ours", 0.20, 0.453, 0.09},
    {"Yelp", "greedy[19]", 0.05, 0.127, 0.15},
    {"Yelp", "greedy[19]", 0.20, 0.450, 0.21},
    {"Yelp", "gradient[18]", 0.05, 0.042, 0.02},
    {"Yelp", "gradient[18]", 0.20, 0.091, 0.03},
    {"Yelp", "ours", 0.05, 0.207, 0.02},
    {"Yelp", "ours", 0.20, 0.559, 0.05},
};

}  // namespace

int main() {
  const std::size_t docs = docs_per_config(30);
  // Two blocks: the paper runs this comparison with 5% MC dropout at
  // inference (§6.4). On our scaled substrate that noise level swamps the
  // per-swap gains of *every* function-evaluation attack (the paper's
  // models have much larger per-swap logit movements), so the
  // deterministic block is where the optimization-scheme ordering is
  // informative and the dropout block shows the noise effect itself.
  for (const float mc : {0.0f, 0.05f}) {
    print_banner(std::string("Table 3: word-level optimization schemes on "
                             "WCNN, MC dropout ") +
                 format_percent(mc, 0) +
                 ": success rate / seconds per doc / queries per doc");
    TablePrinter table({"Dataset", "lw", "Method", "SR", "s/doc", "q/doc",
                        "paper:SR", "paper:s/doc"},
                       {8, 4, 12, 6, 7, 7, 8, 11});
    table.print_header();

    for (const SynthTask& task : make_all_tasks()) {
      const bool use_lm = task.config.name != "Trec07p";
      const TaskAttackContext context(task);
      auto model = make_wcnn(task, mc);
      train_classifier(*model, task.train, default_training());
      for (double lw : {0.05, 0.20}) {
        for (const char* method : {"greedy[19]", "gradient[18]", "ours"}) {
          Stopwatch watch;
          const MethodStats stats =
              run_method(*model, task, context, method, lw, docs, use_lm, mc,
                         attack_threads());
          BenchJsonRecord row{
              "table3",
              task.config.name + "/WCNN/" + method +
                  "/lw=" + format_percent(lw, 0) +
                  ",mc=" + format_percent(static_cast<double>(mc), 0),
              attack_threads(), 1, stats.attacked, watch.elapsed_seconds(),
              stats.success_rate};
          row.queries = stats.total_queries;
          append_bench_json(row);
          const PaperCell* paper = nullptr;
          for (const PaperCell& cell : kPaperCells) {
            if (task.config.name == cell.dataset &&
                std::string(method) == cell.method && cell.lw == lw) {
              paper = &cell;
            }
          }
          table.print_row(
              {task.config.name, format_percent(lw, 0), method,
               format_percent(stats.success_rate),
               format_double(stats.seconds, 3),
               format_double(stats.queries, 0), format_percent(paper->sr),
               format_double(paper->sec, 2)});
        }
      }
    }
    table.print_rule();
  }
  std::printf(
      "\nShape check (deterministic block): ours >= greedy[19] >>\n"
      "gradient[18] on SR, with ours needing far fewer queries/seconds per\n"
      "document than greedy[19]. The 5%% dropout block shows query noise\n"
      "degrading the single-swap greedy hardest (paper §6.4's argument),\n"
      "though at our scale it also degrades Alg. 3 more than in the paper.\n");
  return 0;
}

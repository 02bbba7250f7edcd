// Figure 4 reproduction: attack success rate on the LSTM classifier as a
// function of the sentence-paraphrase ratio λs ∈ {0, 20%, 40%, 60%} for
// word-paraphrase budgets λw ∈ {0, 10%, 20%, 30%}, per dataset.
//
// The paper's figure shows, for all three datasets:
//   * SR increases monotonically in both λs and λw;
//   * sentence paraphrasing is especially effective when few word
//     paraphrases are allowed (e.g. Yelp: λw=10% alone ~5% SR, but with
//     λs=60% it jumps toward ~60%).
// This bench prints the full grid as series (one row per λw) so the
// curves can be compared to the figure.
#include <cstdio>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "src/eval/report.h"
#include "src/util/stopwatch.h"

int main() {
  using namespace advtext;
  using namespace advtext::bench;

  print_banner(
      "Figure 4: LSTM attack success rate vs sentence ratio (columns) and "
      "word ratio (rows)");
  const std::size_t docs = docs_per_config(25);
  const double sentence_ratios[] = {0.0, 0.2, 0.4, 0.6};
  const double word_ratios[] = {0.0, 0.1, 0.2, 0.3};

  for (const SynthTask& task : make_all_tasks()) {
    const TaskAttackContext context(task);
    auto model = make_trained("LSTM", task);
    print_banner(task.config.name);
    TablePrinter table({"lw \\ ls", "0%", "20%", "40%", "60%"},
                       {8, 6, 6, 6, 6});
    table.print_header();
    for (double lw : word_ratios) {
      std::vector<std::string> row = {format_percent(lw, 0)};
      for (double ls : sentence_ratios) {
        std::ostringstream records;
        AttackEvalConfig config;
        config.on_commit = [&records](const DocRecord& record) {
          write_record(records, record);
        };
        config.max_docs = docs;
        config.joint.use_lm_filter = task.config.name != "Trec07p";
        config.joint.enable_sentence = ls > 0.0;
        config.joint.sentence_fraction = ls;
        config.joint.enable_word = lw > 0.0;
        config.joint.word_fraction = lw;
        configure_attack_parallelism(config, "LSTM", task, *model);
        Stopwatch watch;
        const AttackEvalResult result =
            evaluate_attack(*model, task, context, config);
        BenchJsonRecord json_row{
            "figure4",
            task.config.name + "/LSTM/ls=" + format_percent(ls, 0) +
                ",lw=" + format_percent(lw, 0),
            config.threads, 1, result.docs_evaluated,
            watch.elapsed_seconds(), result.success_rate};
        fill_scoring_stats(json_row, result, records);
        append_bench_json(json_row);
        row.push_back(format_percent(result.success_rate, 0));
      }
      table.print_row(row);
    }
    table.print_rule();
  }
  std::printf(
      "\nShape check: success rate grows along every row (more sentence\n"
      "paraphrasing) and down every column (more word paraphrasing); the\n"
      "ls-effect is largest at small lw, as in the paper's Figure 4.\n");
  return 0;
}

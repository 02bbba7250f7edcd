// Table 2 reproduction: clean vs adversarial accuracy per dataset and
// model. "ADV (ours)" is the joint sentence+word attack (Alg. 1) with
// λw = 20%; "ADV [19]*" is the objective-guided greedy of Kuleshov et al.
// with λw = 50% and the same word neighbour sets (the paper's
// asterisk-marked re-implementation column).
//
// Paper values (Table 2):
//   Dataset   WCNN: origin ours [19]*   LSTM: origin ours [19]*
//   News      93.1%  35.4%  70.5%       93.3%  16.5%  22.8%
//   Trec07p   99.1%  48.6%  63.5%       99.7%  31.1%  37.6%
//   Yelp      93.6%  23.1%  41.2%       96.4%  30.0%  29.2%
// Our substrate is synthetic (DESIGN.md §1), so the *shape* to match is:
// the joint attack drives adversarial accuracy far below clean accuracy
// and matches or beats the word-only greedy baseline despite a 2.5x
// smaller word budget.
#include <cstdio>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "src/eval/report.h"
#include "src/util/stopwatch.h"

namespace {

using namespace advtext;
using namespace advtext::bench;

struct PaperRow {
  const char* dataset;
  const char* model;
  double origin, ours, kuleshov;
};

constexpr PaperRow kPaper[] = {
    {"News", "WCNN", 0.931, 0.354, 0.705},
    {"News", "LSTM", 0.933, 0.165, 0.228},
    {"Trec07p", "WCNN", 0.991, 0.486, 0.635},
    {"Trec07p", "LSTM", 0.997, 0.311, 0.376},
    {"Yelp", "WCNN", 0.936, 0.231, 0.412},
    {"Yelp", "LSTM", 0.964, 0.300, 0.292},
};

}  // namespace

int main() {
  print_banner(
      "Table 2: classifier accuracy, clean vs adversarial "
      "(ours: joint, lw=20%; [19]*: word-only greedy, lw=50%)");
  const std::size_t docs = docs_per_config(30);

  TablePrinter table({"Dataset", "Model", "Origin", "ADV(ours)", "ADV[19]*",
                      "paper:Origin", "paper:ours", "paper:[19]*"},
                     {8, 5, 7, 9, 8, 12, 10, 11});
  table.print_header();

  for (const SynthTask& task : make_all_tasks()) {
    // Trec07p emails are corrupted; the paper disables the LM filter there.
    const bool use_lm = task.config.name != "Trec07p";
    const TaskAttackContext context(task);
    for (const char* model_kind : {"WCNN", "LSTM"}) {
      const auto model = make_trained(model_kind, task);

      std::ostringstream ours_records;
      AttackEvalConfig ours;
      ours.on_commit = [&ours_records](const DocRecord& record) {
        write_record(ours_records, record);
      };
      ours.max_docs = docs;
      ours.joint.deadline_ms = deadline_ms_per_doc();
      ours.joint.use_lm_filter = use_lm;
      ours.joint.sentence_fraction =
          task.config.name == "Trec07p" ? 0.6 : 0.2;  // paper §6.2
      ours.joint.word_fraction = 0.2;
      ours.joint.word_method = WordAttackMethod::kGradientGuidedGreedy;
      configure_attack_parallelism(ours, model_kind, task, *model);
      Stopwatch ours_watch;
      const AttackEvalResult ours_result =
          evaluate_attack(*model, task, context, ours);
      BenchJsonRecord ours_row{"table2",
                               task.config.name + "/" + model_kind + "/ours",
                               ours.threads, 1, ours_result.docs_evaluated,
                               ours_watch.elapsed_seconds(),
                               ours_result.success_rate};
      fill_scoring_stats(ours_row, ours_result, ours_records);
      append_bench_json(ours_row);

      std::ostringstream kuleshov_records;
      AttackEvalConfig kuleshov;
      kuleshov.on_commit = [&kuleshov_records](const DocRecord& record) {
        write_record(kuleshov_records, record);
      };
      kuleshov.max_docs = docs;
      kuleshov.joint.deadline_ms = deadline_ms_per_doc();
      kuleshov.joint.use_lm_filter = use_lm;
      kuleshov.joint.enable_sentence = false;  // [19] is word-level only
      kuleshov.joint.word_fraction = 0.5;
      kuleshov.joint.word_method = WordAttackMethod::kObjectiveGreedy;
      configure_attack_parallelism(kuleshov, model_kind, task, *model);
      Stopwatch kuleshov_watch;
      const AttackEvalResult kuleshov_result =
          evaluate_attack(*model, task, context, kuleshov);
      BenchJsonRecord kuleshov_row{
          "table2", task.config.name + "/" + model_kind + "/kuleshov",
          kuleshov.threads, 1, kuleshov_result.docs_evaluated,
          kuleshov_watch.elapsed_seconds(), kuleshov_result.success_rate};
      fill_scoring_stats(kuleshov_row, kuleshov_result, kuleshov_records);
      append_bench_json(kuleshov_row);

      const PaperRow* paper = nullptr;
      for (const PaperRow& row : kPaper) {
        if (task.config.name == row.dataset &&
            std::string(model_kind) == row.model) {
          paper = &row;
        }
      }
      table.print_row({task.config.name, model_kind,
                       format_percent(ours_result.clean_accuracy),
                       format_percent(ours_result.adversarial_accuracy),
                       format_percent(kuleshov_result.adversarial_accuracy),
                       format_percent(paper->origin),
                       format_percent(paper->ours),
                       format_percent(paper->kuleshov)});
      print_robustness_summary(ours_result);
      print_robustness_summary(kuleshov_result);
    }
  }
  table.print_rule();
  std::printf(
      "\nShape check: ADV(ours) sits far below Origin, and at or below\n"
      "ADV[19]* despite allowing 2.5x fewer word replacements.\n");
  return 0;
}

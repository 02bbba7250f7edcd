// advtext_cli — drive the whole pipeline from the command line.
//
//   advtext_cli gen-task --dataset yelp --seed 33 --out task.bin
//   advtext_cli train    --task task.bin --model lstm --epochs 12
//                        --out model.bin
//   advtext_cli eval     --task task.bin --model lstm --params model.bin
//   advtext_cli attack   --task task.bin --model lstm --params model.bin
//                        --ls 0.2 --lw 0.2 --docs 25 --show 1
//
// Tasks and trained parameters are serialized with util/serialize, so a
// model trained once can be attacked under many configurations without
// retraining.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "examples/model_kinds.h"
#include "src/core/joint_attack.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/pipeline.h"
#include "src/nn/checkpoint.h"
#include "src/nn/trainer.h"
#include "src/data/serialize.h"
#include "src/util/args.h"
#include "src/util/robust.h"
#include "src/util/serialize.h"
#include "src/util/stop_token.h"

namespace {

using namespace advtext;

// Exit codes: 0 success, 1 uncaught exception, 2 usage, 3 some attacks were
// cut short by a deadline/query budget, 4 some documents failed outright,
// 5 cooperative shutdown (SIGINT/SIGTERM) with state flushed — rerun with
// --train-resume / --resume to continue.
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitLimited = 3;
constexpr int kExitDocsFailed = 4;
constexpr int kExitStopped = 5;

// Updated as commands progress so the top-level catch can say which phase
// an escaped exception came from.
const char* g_phase = "startup";

// Every flag any command reads; anything else is a usage error, so a
// misspelt limit cannot silently run unlimited.
const std::vector<std::string> kFlags = {
    "attack-threads", "checkpoint", "checkpoint-every", "dataset",
    "deadline-ms", "docs", "epochs", "filters", "hidden", "inject", "lr",
    "ls", "lw", "max-queries", "max-rollbacks", "mem-budget-mb", "method",
    "model", "out", "params", "records-out", "resume",
    "resume-fallback-fresh", "seed", "shards", "show", "snapshot",
    "snapshot-every", "sweep-deadline-ms", "sweep-max-queries", "task",
    "train-resume"};

int usage() {
  std::printf(
      "usage: advtext_cli <command> [flags]\n"
      "  gen-task --dataset news|trec07p|yelp [--seed N] --out FILE\n"
      "  train    --task FILE --model wcnn|lstm|gru|bow [--epochs N]\n"
      "           [--lr X] [--hidden N] [--filters N] --out FILE\n"
      "           [--snapshot FILE] [--snapshot-every N] [--train-resume]\n"
      "           [--max-rollbacks N] [--shards K]\n"
      "  eval     --task FILE --model KIND --params FILE\n"
      "  attack   --task FILE --model KIND --params FILE [--ls X] [--lw X]\n"
      "           [--docs N] [--method ggg|greedy|gradient] [--show N]\n"
      "           [--deadline-ms X] [--max-queries N] [--checkpoint FILE]\n"
      "           [--checkpoint-every N] [--resume]\n"
      "           [--resume-fallback-fresh] [--inject SPEC]\n"
      "           [--attack-threads K] [--sweep-max-queries N]\n"
      "           [--sweep-deadline-ms X] [--records-out FILE]\n"
      "           [--mem-budget-mb N]\n"
      "  --method: word attack — ggg (default) = gradient-guided greedy\n"
      "                 (Alg. 3), greedy = objective greedy [19], gradient =\n"
      "                 gradient attack [18]; any other value is a usage error\n"
      "  --records-out: write the committed per-doc records (wire encoding,\n"
      "                 timing excluded) to FILE — bitwise-comparable across\n"
      "                 resumed / parallel / recovered runs of one sweep\n"
      "  --resume-fallback-fresh: with --resume, restart from scratch if the\n"
      "                 checkpoint is unreadable instead of failing\n"
      "  --mem-budget-mb: process memory budget (0 = unlimited); exhaustion\n"
      "                 degrades (fewer workers, smaller candidate sets)\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 deadline/budget-limited docs,\n"
      "            4 failed docs, 5 stopped by signal (state flushed;\n"
      "            rerun with --train-resume / --resume)\n");
  return kExitUsage;
}

int cmd_gen_task(const ArgParser& args) {
  const std::string dataset = args.get_string("dataset", "yelp");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 0));
  SynthTask task;
  if (dataset == "news") {
    task = seed ? make_news(seed) : make_news();
  } else if (dataset == "trec07p") {
    task = seed ? make_trec07p(seed) : make_trec07p();
  } else if (dataset == "yelp") {
    task = seed ? make_yelp(seed) : make_yelp();
  } else {
    std::printf("unknown --dataset %s\n", dataset.c_str());
    return 2;
  }
  const std::string out = args.get_string("out");
  if (out.empty()) return usage();
  io::save_task(task, out);
  std::printf("wrote %s: %s, %zu train / %zu test docs, vocab %d\n",
              out.c_str(), task.config.name.c_str(), task.train.size(),
              task.test.size(), task.vocab.size());
  return 0;
}

int cmd_train(const ArgParser& args) {
  const SynthTask task = io::load_task(args.get_string("task"));
  const std::string kind = args.get_string("model", "lstm");
  auto model = build_model(kind, task, args);
  TrainConfig train;
  train.epochs = static_cast<std::size_t>(args.get_int("epochs", 12));
  train.learning_rate = args.get_double(
      "lr", kind == "lstm" || kind == "gru" ? 5e-3 : 1e-2);

  ResilienceConfig resilience;
  resilience.snapshot_path = args.get_string("snapshot");
  resilience.snapshot_every =
      static_cast<std::size_t>(args.get_int("snapshot-every", 0));
  resilience.resume = args.get_bool("train-resume", false);
  resilience.max_rollbacks =
      static_cast<std::size_t>(args.get_int("max-rollbacks", 3));
  resilience.install_stop_token = true;

  ShardConfig shards;
  shards.shards = static_cast<std::size_t>(args.get_int("shards", 1));
  shards.make_replica = [&] { return build_model(kind, task, args); };
  const TrainReport report =
      train_classifier(*model, task.train, train, resilience, shards);
  if (shards.shards > 1) {
    std::printf("sharded training: %zu shards, %zu averaging rounds, "
                "%zu dead shards\n",
                report.shards.size(), report.averaging_rounds,
                report.dead_shards.size());
  }
  for (const std::string& warning : report.warnings) {
    std::fprintf(stderr, "train warning: %s\n", warning.c_str());
  }
  std::printf("trained %s for %zu epochs, final loss %.4f [%s]\n",
              kind.c_str(), report.epochs_run, report.final_train_loss,
              to_string(report.termination));
  if (report.resumed || report.rollbacks + report.clipped_steps +
                                report.snapshots_written +
                                report.snapshot_write_failures >
                            0) {
    // Every rollback backs the learning rate off once.
    std::printf(
        "resilience: resumed=%d, %zu rollbacks (%zu lr backoffs), %zu "
        "clipped steps, %zu snapshots (%zu failed writes)\n",
        report.resumed ? 1 : 0, report.rollbacks, report.rollbacks,
        report.clipped_steps, report.snapshots_written,
        report.snapshot_write_failures);
  }
  if (report.termination == TerminationReason::kError) {
    std::fprintf(stderr, "training diverged beyond --max-rollbacks\n");
    return kExitError;
  }
  std::printf("train acc %.3f, test acc %.3f\n",
              classification_accuracy(*model, task.train),
              classification_accuracy(*model, task.test));
  const std::string out = args.get_string("out");
  if (report.termination == TerminationReason::kStopped) {
    // Snapshot (if any) is flushed; do not publish half-trained params.
    std::printf("training stopped by signal; rerun with --train-resume\n");
    return kExitStopped;
  }
  if (!out.empty()) {
    save_model(*model, out);
    std::printf("wrote parameters to %s\n", out.c_str());
  }
  return 0;
}

int cmd_eval(const ArgParser& args) {
  const SynthTask task = io::load_task(args.get_string("task"));
  const std::string kind = args.get_string("model", "lstm");
  auto model = build_model(kind, task, args);
  load_model(*model, args.get_string("params"));
  std::printf("test accuracy: %.3f\n",
              classification_accuracy(*model, task.test));
  return 0;
}

int cmd_attack(const ArgParser& args) {
  // Checked before anything loads: a misspelt method must not silently run
  // another attack.
  const std::string method = args.get_string("method", "ggg");
  WordAttackMethod word_method = WordAttackMethod::kGradientGuidedGreedy;
  if (method == "greedy") {
    word_method = WordAttackMethod::kObjectiveGreedy;
  } else if (method == "gradient") {
    word_method = WordAttackMethod::kGradient;
  } else if (method != "ggg") {
    std::fprintf(stderr, "advtext_cli: unknown --method %s\n",
                 method.c_str());
    return usage();
  }

  g_phase = "attack:load-task";
  const SynthTask task = io::load_task(args.get_string("task"));
  const std::string kind = args.get_string("model", "lstm");
  auto model = build_model(kind, task, args);
  g_phase = "attack:load-params";
  load_model(*model, args.get_string("params"));
  g_phase = "attack:build-context";
  const TaskAttackContext context(task);

  AttackEvalConfig config;
  config.max_docs = static_cast<std::size_t>(args.get_int("docs", 25));
  config.joint.word_method = word_method;
  config.joint.sentence_fraction = args.get_double("ls", 0.2);
  config.joint.word_fraction = args.get_double("lw", 0.2);
  config.joint.use_lm_filter = task.config.name != "Trec07p";
  config.joint.deadline_ms = args.get_double("deadline-ms", 0.0);
  config.joint.max_queries =
      static_cast<std::size_t>(args.get_int("max-queries", 0));
  config.checkpoint_path = args.get_string("checkpoint");
  config.checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 8));
  config.resume = args.get_bool("resume", false);
  config.resume_fallback_fresh = args.get_bool("resume-fallback-fresh", false);
  config.threads = static_cast<std::size_t>(args.get_int("attack-threads", 1));
  config.sweep_max_queries =
      static_cast<std::size_t>(args.get_int("sweep-max-queries", 0));
  const double sweep_deadline_ms = args.get_double("sweep-deadline-ms", 0.0);
  if (sweep_deadline_ms > 0.0) {
    config.sweep_deadline = Deadline::after_ms(sweep_deadline_ms);
  }
  const std::size_t mem_budget_mb =
      static_cast<std::size_t>(args.get_int("mem-budget-mb", 0));
  if (mem_budget_mb > 0) {
    MemoryBudget::instance().set_limit_bytes(mem_budget_mb * (std::size_t{1}
                                                              << 20));
  }
  // Timing-free record dump: every committed record in wire encoding
  // (attack.seconds excluded), published atomically at the end. The chaos
  // harness compares these bitwise across clean / faulted / resumed runs.
  const std::string records_out = args.get_string("records-out");
  std::ostringstream record_bytes;
  std::uint64_t record_count = 0;
  if (!records_out.empty()) {
    config.on_commit = [&](const DocRecord& record) {
      write_record(record_bytes, record);
      ++record_count;
    };
  }
  if (config.threads > 1) {
    // Replica per extra worker: same architecture, trained weights copied
    // in-memory from the loaded primary.
    config.make_model_replica = [&]() -> std::unique_ptr<TextClassifier> {
      auto replica = build_model(kind, task, args);
      copy_model_params(*model, *replica);
      return replica;
    };
  }

  // SIGINT/SIGTERM drain in-flight docs and flush an in-order-prefix
  // checkpoint (exit 5; rerun with --resume).
  StopToken::instance().install();
  g_phase = "attack:evaluate";
  const AttackEvalResult result =
      evaluate_attack(*model, task, context, config);
  g_phase = "attack:report";
  if (!records_out.empty()) {
    // Replayed-then-fresh commits mean a resumed run dumps the complete
    // stream from doc 0, so this file is comparable against an
    // uninterrupted run's dump.
    std::ostringstream out;
    io::write_magic(out);
    io::write_string(out, "attack-records");
    io::write_u64(out, record_count);
    out << record_bytes.str();
    io::save_artifact(records_out, out.str());
    std::printf("wrote %llu record(s) to %s\n",
                static_cast<unsigned long long>(record_count),
                records_out.c_str());
  }
  std::printf(
      "clean acc %.3f | adversarial acc %.3f | success rate %.3f\n"
      "mean: %.1f words, %.1f sentences changed, %.0f queries, %.3fs/doc\n",
      result.clean_accuracy, result.adversarial_accuracy,
      result.success_rate, result.mean_words_changed,
      result.mean_sentences_changed, result.mean_queries,
      result.mean_seconds_per_doc);
  if (result.docs_deadline + result.docs_budget + result.docs_failed +
          result.docs_retried + result.wmd_degradations.total() >
      0) {
    std::printf(
        "robustness: %zu deadline-limited, %zu budget-limited, %zu failed,\n"
        "            %zu retried; wmd degraded %zu-> sinkhorn, %zu-> nbow\n",
        result.docs_deadline, result.docs_budget, result.docs_failed,
        result.docs_retried, result.wmd_degradations.to_sinkhorn,
        result.wmd_degradations.to_lower_bound);
    for (const std::size_t idx : result.failed_indices) {
      std::printf("  failed doc %zu\n", idx);
    }
  }

  const std::size_t show =
      static_cast<std::size_t>(args.get_int("show", 0));
  for (std::size_t i = 0; i < std::min(show, result.attacks.size()); ++i) {
    const std::size_t idx = result.attacked_indices[i];
    std::printf("\n--- example %zu (label %d) ---\noriginal:    %s\n"
                "adversarial: %s\n",
                i + 1, task.test.docs[idx].label,
                task.test.docs[idx].to_string(task.vocab).c_str(),
                result.adv_docs[idx].to_string(task.vocab).c_str());
  }
  if (result.termination == TerminationReason::kStopped) {
    std::printf("attack sweep stopped by signal; rerun with --resume\n");
    return kExitStopped;
  }
  if (result.termination == TerminationReason::kBudgetExhausted) {
    std::printf("sweep query budget exhausted after %zu docs (%zu queries); "
                "rerun with --resume and a larger --sweep-max-queries\n",
                result.docs_evaluated, result.sweep_queries_used);
    return kExitLimited;
  }
  if (result.termination == TerminationReason::kDeadlineExceeded) {
    std::printf("sweep deadline expired after %zu docs; rerun with --resume "
                "to continue\n",
                result.docs_evaluated);
    return kExitLimited;
  }
  if (result.docs_failed > 0) return kExitDocsFailed;
  if (result.docs_deadline + result.docs_budget > 0) return kExitLimited;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    const std::vector<std::string> unknown = args.unknown_flags(kFlags);
    if (!unknown.empty()) {
      std::fprintf(stderr, "advtext_cli: unknown flag --%s\n",
                   unknown.front().c_str());
      return usage();
    }
    if (args.positional().empty()) return usage();
    if (args.has("inject")) {
      FaultInjector::instance().configure(args.get_string("inject"));
    }
    // g_phase only ever points at string literals: the catch below runs
    // after locals (including `command`) are destroyed.
    const std::string command = args.positional().front();
    if (command == "gen-task") {
      g_phase = "gen-task";
      return cmd_gen_task(args);
    }
    if (command == "train") {
      g_phase = "train";
      return cmd_train(args);
    }
    if (command == "eval") {
      g_phase = "eval";
      return cmd_eval(args);
    }
    if (command == "attack") {
      g_phase = "attack";
      return cmd_attack(args);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error in phase '%s': %s\n", g_phase, e.what());
    return kExitError;
  }
}

// advtextd — fault-tolerant attack-as-a-service daemon.
//
// Loads a task and trained model once, then serves attack jobs over a
// local AF_UNIX socket: clients submit JobRequests (advtext_loadgen, or
// anything speaking src/service/protocol.h) and stream back per-document
// results as the sweep commits them. Admission control sheds overload with
// typed rejections; every accepted job is journaled and checkpointed, so a
// killed daemon restarted with the same --state-dir completes every
// accepted job bitwise-identically.
//
//   advtext_cli gen-task --dataset yelp --seed 71 --out /tmp/task.bin
//   advtext_cli train --task /tmp/task.bin --model wcnn --epochs 8
//               --out /tmp/model.bin
//   advtextd --task /tmp/task.bin --model wcnn --params /tmp/model.bin
//            --socket /tmp/advtextd.sock --state-dir /tmp/advtextd-state
//
// Exit codes (shared with advtext_cli): 0 clean drain, 1 error, 2 usage,
// 5 stopped by signal (journaled jobs resume on the next start).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "examples/model_kinds.h"
#include "src/data/serialize.h"
#include "src/data/synthetic.h"
#include "src/nn/checkpoint.h"
#include "src/service/daemon.h"
#include "src/util/args.h"
#include "src/util/robust.h"
#include "src/util/stop_token.h"

namespace {

using namespace advtext;

constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitStopped = 5;

// Every flag run() reads; anything else is a usage error.
const std::vector<std::string> kFlags = {
    "checkpoint-every", "client-max-queries", "filters", "hidden", "inject",
    "max-job-deadline-ms", "max-jobs", "max-pending", "mem-budget-mb",
    "model", "params", "read-timeout-ms", "recover-only", "socket",
    "state-dir", "task", "watchdog-ms", "workers"};

int usage() {
  std::printf(
      "usage: advtextd --task FILE --model wcnn|lstm|gru|bow --params FILE\n"
      "                --socket PATH --state-dir DIR\n"
      "                [--workers N] [--max-pending N]\n"
      "                [--client-max-queries N] [--max-job-deadline-ms X]\n"
      "                [--checkpoint-every N] [--read-timeout-ms X]\n"
      "                [--max-jobs N] [--recover-only] [--inject SPEC]\n"
      "                [--watchdog-ms X] [--mem-budget-mb N]\n"
      "                [--hidden N] [--filters N]\n"
      "--watchdog-ms: stall bound for the job watchdog (default 30000;\n"
      "               0 disables). A stuck job's client gets a typed\n"
      "               deadline-exceeded completion within the bound.\n"
      "--mem-budget-mb: process memory budget (default 0 = unlimited).\n"
      "               Exhaustion sheds jobs with typed 'resource'\n"
      "               rejections instead of aborting on OOM.\n"
      "exit codes: 0 ok, 1 error, 2 usage, 5 stopped by signal\n"
      "            (accepted jobs resume on restart with the same "
      "--state-dir)\n");
  return kExitUsage;
}

int run(const ArgParser& args) {
  const std::vector<std::string> unknown = args.unknown_flags(kFlags);
  if (!unknown.empty()) {
    std::fprintf(stderr, "advtextd: unknown flag --%s\n",
                 unknown.front().c_str());
    return usage();
  }
  const std::string task_path = args.get_string("task");
  const std::string params = args.get_string("params");
  const std::string socket_path = args.get_string("socket");
  const std::string state_dir = args.get_string("state-dir");
  const bool recover_only = args.get_bool("recover-only", false);
  if (task_path.empty() || params.empty() || state_dir.empty() ||
      (socket_path.empty() && !recover_only)) {
    return usage();
  }

  const std::string inject = args.get_string("inject");
  if (!inject.empty()) {
    FaultInjector::instance().configure(inject);
  } else {
    FaultInjector::instance().configure_from_env();
  }

  const SynthTask task = io::load_task(task_path);
  const std::string kind = args.get_string("model", "wcnn");
  auto model = build_model(kind, task, args);
  load_model(*model, params);
  const TaskAttackContext context(task);

  DaemonConfig config;
  config.socket_path = socket_path;
  config.state_dir = state_dir;
  config.workers = static_cast<std::size_t>(args.get_int("workers", 2));
  config.max_pending_jobs =
      static_cast<std::size_t>(args.get_int("max-pending", 4));
  config.per_client_max_queries =
      static_cast<std::size_t>(args.get_int("client-max-queries", 0));
  config.max_job_deadline_ms = args.get_double("max-job-deadline-ms", 0.0);
  config.checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 4));
  config.read_timeout_ms = args.get_double("read-timeout-ms", 2000.0);
  config.max_jobs = static_cast<std::size_t>(args.get_int("max-jobs", 0));
  config.watchdog_stall_ms = args.get_double("watchdog-ms", 30000.0);
  const std::size_t mem_budget_mb =
      static_cast<std::size_t>(args.get_int("mem-budget-mb", 0));
  if (mem_budget_mb > 0) {
    MemoryBudget::instance().set_limit_bytes(mem_budget_mb * (std::size_t{1}
                                                              << 20));
  }

  StopToken::instance().install();
  AttackDaemon daemon(task, context,
                      {ServedModel{kind, model.get()}}, config);

  const std::size_t recovered = daemon.recover();
  if (recovered > 0) {
    std::printf("recovered %zu journaled job(s) from %s\n", recovered,
                state_dir.c_str());
  }

  TerminationReason termination = TerminationReason::kSucceeded;
  if (!recover_only) {
    std::printf("advtextd: serving %s model on %s (state in %s)\n",
                kind.c_str(), socket_path.c_str(), state_dir.c_str());
    termination = daemon.serve();
  }

  const DaemonStats stats = daemon.stats();
  std::printf(
      "advtextd: %zu accepted, %zu completed, %zu recovered, %zu errored, "
      "%zu stalled; rejected %zu overload / %zu budget / %zu unknown-model "
      "/ %zu malformed / %zu resource; %zu io retries, %zu stream write "
      "failures, %zu mem denials, %zu warnings dropped, worst job %s [%s]\n",
      stats.jobs_accepted, stats.jobs_completed, stats.jobs_recovered,
      stats.jobs_errored, stats.jobs_stalled, stats.rejected_overload,
      stats.rejected_budget, stats.rejected_unknown_model,
      stats.rejected_malformed, stats.rejected_resource, stats.io_retries,
      stats.stream_write_failures, MemoryBudget::instance().denials(),
      stats.warnings_dropped, to_string(stats.worst_job),
      to_string(termination));
  for (const std::string& warning : stats.warnings) {
    std::fprintf(stderr, "advtextd warning: %s\n", warning.c_str());
  }
  if (termination == TerminationReason::kStopped) return kExitStopped;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "advtextd: fatal: %s\n", error.what());
    return kExitError;
  }
}

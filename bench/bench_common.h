// Shared helpers for the bench binaries: model factories, trained-model
// construction per task, and environment-variable scaling so the full
// suite can be run quickly (ADVTEXT_BENCH_DOCS limits attacked documents).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/pipeline.h"
#include "src/nn/checkpoint.h"
#include "src/nn/lstm.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/util/serialize.h"
#include "src/util/string_util.h"
#include "src/util/sync.h"

namespace advtext::bench {

/// Number of test documents each attack configuration evaluates. Default
/// keeps the full suite in the minutes range; override with
/// ADVTEXT_BENCH_DOCS=<n> (0 = whole test set).
inline std::size_t docs_per_config(std::size_t fallback = 30) {
  if (const char* env = std::getenv("ADVTEXT_BENCH_DOCS")) {
    return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  return fallback;
}

/// Optional per-document attack deadline in milliseconds, threaded into
/// the joint attack config (0 = unlimited, the default). Lets a bench run
/// be wall-clock-bounded: ADVTEXT_BENCH_DEADLINE_MS=50 caps each document.
inline double deadline_ms_per_doc(double fallback = 0.0) {
  if (const char* env = std::getenv("ADVTEXT_BENCH_DEADLINE_MS")) {
    return std::strtod(env, nullptr);
  }
  return fallback;
}

/// Data shards for bench training stages (ADVTEXT_BENCH_SHARDS=<k>;
/// default 1 = serial). Sharded runs are deterministic for a fixed shard
/// count, but a different count is a different training run — record the
/// value next to reported numbers.
inline std::size_t bench_shards(std::size_t fallback = 1) {
  if (const char* env = std::getenv("ADVTEXT_BENCH_SHARDS")) {
    const std::size_t shards =
        static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    return shards == 0 ? 1 : shards;
  }
  return fallback;
}

/// Attack-sweep worker threads (ADVTEXT_BENCH_ATTACK_THREADS=<k>; default
/// 1 = one worker on the calling thread). Unlike shards, a different thread
/// count is the *same* run: for the deterministic bench models every worker
/// count gives bitwise-identical records, so it only changes wall-clock.
inline std::size_t attack_threads(std::size_t fallback = 1) {
  if (const char* env = std::getenv("ADVTEXT_BENCH_ATTACK_THREADS")) {
    const std::size_t threads =
        static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    return threads == 0 ? 1 : threads;
  }
  return fallback;
}

/// Training resilience for long-running benches: with
/// ADVTEXT_BENCH_SNAPSHOT=<base path> set, each training stage snapshots
/// under <base>.<tag> and resumes a killed run from its own generations
/// (SIGINT/SIGTERM handlers installed, so ^C flushes before exiting). The
/// per-stage tag keeps concurrent stages of one bench from sharing files.
inline ResilienceConfig bench_resilience(const std::string& tag) {
  ResilienceConfig resilience;
  if (const char* env = std::getenv("ADVTEXT_BENCH_SNAPSHOT")) {
    resilience.snapshot_path = std::string(env) + "." + tag;
    resilience.resume = true;
    resilience.install_stop_token = true;
  }
  return resilience;
}

/// Prints training-health counters when a run recorded any (rollbacks,
/// resumed state, failed snapshot writes), mirroring
/// print_robustness_summary for the attack side.
inline void print_training_summary(const char* stage,
                                   const TrainReport& report) {
  if (!report.resumed &&
      report.rollbacks + report.snapshot_write_failures == 0 &&
      report.termination == TerminationReason::kSucceeded) {
    return;
  }
  std::printf(
      "  [training:%s] %s: resumed=%d, %zu rollbacks, %zu snapshots "
      "(%zu failed writes)\n",
      stage, to_string(report.termination), report.resumed ? 1 : 0,
      report.rollbacks, report.snapshots_written,
      report.snapshot_write_failures);
}

/// Prints deadline/budget/fault counters when a run recorded any, so a
/// bounded or fault-injected bench run shows what was cut short.
inline void print_robustness_summary(const AttackEvalResult& result) {
  if (result.docs_deadline + result.docs_budget + result.docs_failed +
          result.wmd_degradations.total() ==
      0) {
    return;
  }
  std::printf(
      "  [robustness] %zu deadline-limited, %zu budget-limited, "
      "%zu failed docs; wmd degradations: %zu sinkhorn, %zu nbow\n",
      result.docs_deadline, result.docs_budget, result.docs_failed,
      result.wmd_degradations.to_sinkhorn,
      result.wmd_degradations.to_lower_bound);
}

inline std::unique_ptr<WCnn> make_wcnn(const SynthTask& task,
                                       float mc_dropout = 0.0f) {
  WCnnConfig config;
  config.embed_dim = task.config.embedding_dim;
  config.num_filters = 96;
  config.mc_dropout = mc_dropout;  // §6.4 (Table 3) passes 0.05 here
  config.seed = task.config.seed + 1;
  return std::make_unique<WCnn>(config, Matrix(task.paragram));
}

inline std::unique_ptr<LstmClassifier> make_lstm(const SynthTask& task) {
  LstmConfig config;
  config.embed_dim = task.config.embedding_dim;
  config.hidden = 24;
  config.seed = task.config.seed + 2;
  return std::make_unique<LstmClassifier>(config, Matrix(task.paragram));
}

inline TrainConfig default_training(const std::string& kind = "WCNN") {
  TrainConfig config;
  config.epochs = 12;
  // BPTT over long documents is only stable at a lower learning rate.
  if (kind == "LSTM") config.learning_rate = 5e-3;
  return config;
}

/// Trains a model of the given kind ("WCNN" or "LSTM") on the task.
inline std::unique_ptr<TrainableClassifier> make_trained(
    const std::string& kind, const SynthTask& task) {
  std::unique_ptr<TrainableClassifier> model;
  if (kind == "WCNN") {
    model = make_wcnn(task);
  } else {
    model = make_lstm(task);
  }
  train_classifier(*model, task.train, default_training(kind));
  return model;
}

/// Replica factory for the parallel attack sweep: rebuilds the bench
/// architecture for `kind` and bitwise-copies the trained weights from
/// `trained`. `trained` and `task` must outlive the returned factory and
/// every replica it produces.
inline std::function<std::unique_ptr<TextClassifier>()>
attack_replica_factory(const std::string& kind, const SynthTask& task,
                       TrainableClassifier& trained) {
  return [kind, &task, &trained]() -> std::unique_ptr<TextClassifier> {
    std::unique_ptr<TrainableClassifier> replica =
        kind == "WCNN" ? std::unique_ptr<TrainableClassifier>(make_wcnn(task))
                       : std::unique_ptr<TrainableClassifier>(make_lstm(task));
    copy_model_params(trained, *replica);
    return replica;
  };
}

/// Applies the sweep-parallelism env knobs to an attack config (threads +
/// replica factory). Call after the model is trained.
inline void configure_attack_parallelism(AttackEvalConfig& config,
                                         const std::string& kind,
                                         const SynthTask& task,
                                         TrainableClassifier& trained) {
  config.threads = attack_threads();
  if (config.threads > 1) {
    config.make_model_replica = attack_replica_factory(kind, task, trained);
  }
}

/// Ordered parallel map: computes fn(worker, index) for every index in
/// [0, n) on up to `threads` pool workers and returns the results in index
/// order. Workers self-dispatch from a shared cursor, so per-index work may
/// run on any worker in any order — fn must only touch shared state that is
/// read-only, plus per-worker state keyed by its `worker` id (< threads).
/// threads <= 1 degenerates to a plain serial loop on the calling thread.
/// The first exception fn throws is rethrown here after all workers drain.
template <typename Result, typename Fn>
std::vector<Result> parallel_index_map(std::size_t n, std::size_t threads,
                                       Fn&& fn) {
  std::vector<Result> results(n);
  const std::size_t workers = threads < 2 || n < 2
                                  ? 1
                                  : (threads < n ? threads : n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(0, i);
    return results;
  }
  std::atomic<std::size_t> cursor{0};
  Mutex mu;
  std::exception_ptr first_error;  // guarded by mu
  {
    ThreadPool pool(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      (void)pool.submit([&, w] {
        while (true) {
          const std::size_t i = cursor.fetch_add(1,
                                                 std::memory_order_relaxed);
          if (i >= n) break;
          try {
            results[i] = fn(w, i);
          } catch (...) {
            MutexLock lock(mu);
            if (!first_error) first_error = std::current_exception();
            cursor.store(n, std::memory_order_relaxed);  // stop dispatch
            break;
          }
        }
      });
    }
    pool.wait_idle();
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

// ---- Machine-readable bench output (ADVTEXT_BENCH_JSON) --------------------

/// One benchmark measurement for the JSON trajectory (BENCH_*.json). All
/// string fields must be plain identifiers/paths without quotes or control
/// characters — they are emitted without escaping.
struct BenchJsonRecord {
  std::string bench;       ///< bench binary, e.g. "table2"
  std::string config;      ///< configuration cell, e.g. "news/WCNN/ours"
  std::size_t threads = 1; ///< attack-sweep workers
  std::size_t shards = 1;  ///< training data shards
  std::size_t docs = 0;    ///< documents evaluated
  /// Whole-sweep wall clock. Informational: one run of a few documents,
  /// not a performance claim (those come from perfbench).
  double wall_seconds = 0.0;
  double success_rate = 0.0;
  /// Classifier queries of the sweep's attacks, summed over documents.
  std::size_t queries = 0;
  /// crc32 of the sweep's committed records (see fill_scoring_stats);
  /// unset for benches that do not run evaluate_attack.
  std::optional<std::uint32_t> records_crc = std::nullopt;
};

/// Copies a sweep's query total and record digest into a JSON row (every
/// attack-sweep row should carry them). `records` holds the sweep's
/// committed DocRecords in the wire encoding that `advtext_cli attack
/// --records-out` writes (write_record from the config's on_commit; timing
/// excluded). Equal digests mean byte-identical records, so serial and
/// parallel runs of one cell must agree on records_crc.
inline void fill_scoring_stats(BenchJsonRecord& record,
                               const AttackEvalResult& result,
                               const std::ostringstream& records) {
  record.queries = 0;
  for (const JointAttackResult& attack : result.attacks) {
    record.queries += attack.queries;
  }
  const std::string bytes = records.str();
  record.records_crc = io::crc32(bytes.data(), bytes.size());
}

/// Appends `record` as one JSON object per line to the path named by
/// ADVTEXT_BENCH_JSON (absent/empty = disabled). Append-only so a bench
/// suite accumulates its runs into one file; hardware_threads is stamped
/// into every record because speedup numbers are meaningless without the
/// core count they were measured on. Write failures warn and continue — a
/// lost metrics line must never fail a bench run.
inline void append_bench_json(const BenchJsonRecord& record) {
  const char* env = std::getenv("ADVTEXT_BENCH_JSON");
  if (env == nullptr || *env == '\0') return;
  std::FILE* out = std::fopen(env, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "  [bench-json] cannot open %s; record dropped\n",
                 env);
    return;
  }
  const auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  char crc[32] = "";
  if (record.records_crc.has_value()) {
    std::snprintf(crc, sizeof(crc), "\"records_crc\":\"%08x\",",
                  static_cast<unsigned>(*record.records_crc));
  }
  std::fprintf(
      out,
      "{\"bench\":\"%s\",\"config\":\"%s\",\"threads\":%zu,\"shards\":%zu,"
      "\"docs\":%zu,\"wall_seconds\":%.6f,\"success_rate\":%.4f,"
      "\"queries\":%zu,%s\"hardware_threads\":%zu}\n",
      record.bench.c_str(), record.config.c_str(), record.threads,
      record.shards, record.docs, finite(record.wall_seconds),
      finite(record.success_rate), record.queries, crc, hardware_threads());
  std::fclose(out);
}

}  // namespace advtext::bench

#include "src/eval/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/eval/metrics.h"
#include "src/text/serialize.h"
#include "src/util/io_file.h"
#include "src/util/serialize.h"
#include "src/util/stop_token.h"
#include "src/util/sync.h"

namespace advtext {

TaskAttackContext::TaskAttackContext(
    const SynthTask& task, const WordNeighborConfig& word_config,
    const SentenceParaphraserConfig& sentence_config) {
  word_index_ = std::make_unique<ParaphraseIndex>(task.paragram, word_config);

  // Sentence paraphraser shares the word-neighbour lists with the index.
  std::vector<std::vector<WordId>> neighbors(
      static_cast<std::size_t>(task.vocab.size()));
  for (WordId w = 2; w < task.vocab.size(); ++w) {
    neighbors[static_cast<std::size_t>(w)] = word_index_->neighbors(w);
  }
  paraphraser_ = std::make_unique<SentenceParaphraser>(
      std::move(neighbors), task.is_function_word, sentence_config);
  wmd_ = std::make_unique<Wmd>(task.paragram);
  lm_ = std::make_unique<NGramLm>(task.train,
                                  static_cast<std::size_t>(task.vocab.size()));
}

AttackResources TaskAttackContext::resources() const {
  AttackResources resources;
  resources.word_index = word_index_.get();
  resources.paraphraser = paraphraser_.get();
  resources.wmd = wmd_.get();
  resources.lm = lm_.get();
  return resources;
}

namespace {

TerminationReason read_termination(std::istream& in) {
  const std::uint64_t raw = io::read_u64(in);
  if (raw > static_cast<std::uint64_t>(TerminationReason::kError)) {
    throw std::runtime_error("pipeline: invalid termination reason " +
                             std::to_string(raw));
  }
  return static_cast<TerminationReason>(raw);
}

}  // namespace

void write_record(std::ostream& out, const DocRecord& record) {
  io::write_u64(out, record.doc_index);
  io::write_u64(out, record.kind);
  io::write_u64(out, record.retried);
  io::write_u64(out, record.wmd_to_sinkhorn);
  io::write_u64(out, record.wmd_to_lower);
  if (record.kind == 1) {
    io::write_u64(out, record.flipped);
    io::write_u64(out, record.attack.success ? 1 : 0);
    io::write_u64(out, static_cast<std::uint64_t>(record.attack.termination));
    io::write_double(out, record.attack.final_target_proba);
    io::write_u64(out, record.attack.sentences_changed);
    io::write_u64(out, record.attack.words_changed);
    io::write_u64(out, record.attack.queries);
    io::write_document(out, record.attack.adv_doc);
  } else if (record.kind == 2) {
    io::write_u64(out, static_cast<std::uint64_t>(record.attack.termination));
    io::write_string(out, record.error);
  }
}

DocRecord read_record(std::istream& in) {
  DocRecord record;
  record.doc_index = io::read_u64(in);
  record.kind = io::read_u64(in);
  if (record.kind > 2) {
    throw std::runtime_error("pipeline: unknown DocRecord kind " +
                             std::to_string(record.kind));
  }
  record.retried = io::read_u64(in);
  record.wmd_to_sinkhorn = io::read_u64(in);
  record.wmd_to_lower = io::read_u64(in);
  if (record.kind == 1) {
    record.flipped = io::read_u64(in);
    record.attack.success = io::read_u64(in) != 0;
    record.attack.termination = read_termination(in);
    record.attack.final_target_proba = io::read_double(in);
    record.attack.sentences_changed =
        static_cast<std::size_t>(io::read_u64(in));
    record.attack.words_changed = static_cast<std::size_t>(io::read_u64(in));
    record.attack.queries = static_cast<std::size_t>(io::read_u64(in));
    record.attack.adv_doc = io::read_document(in);
  } else if (record.kind == 2) {
    record.attack.termination = read_termination(in);
    record.error = io::read_string(in);
  }
  return record;
}

namespace {

// Names the checkpoint layout: write_record, then attack.seconds after each
// attacked record. A checkpoint in another layout is refused by its tag.
constexpr const char* kCheckpointTag = "attack-checkpoint-v2";

void write_checkpoint(const std::string& path,
                      const std::vector<DocRecord>& records) {
  // Serialize to memory, then publish through the checksummed artifact
  // envelope (atomic tmp+fsync+rename, CRC32 + version footer) so a crash
  // mid-write leaves the previous checkpoint valid and a bit-flip is
  // detected at resume time.
  std::ostringstream out;
  io::write_magic(out);
  io::write_string(out, kCheckpointTag);
  io::write_u64(out, records.size());
  for (const DocRecord& r : records) {
    write_record(out, r);
    if (r.kind == 1) io::write_double(out, r.attack.seconds);
  }
  if (!out) throw std::runtime_error("pipeline: checkpoint write failed");
  io::save_artifact(path, out.str());
}

std::vector<DocRecord> read_checkpoint(const std::string& path,
                                       std::size_t num_docs) {
  std::istringstream in(io::load_artifact(path));
  io::read_magic(in);
  const std::string tag = io::read_string(in);
  if (tag != kCheckpointTag) {
    throw std::runtime_error("pipeline: " + path + " is tagged '" + tag +
                             "', not '" + kCheckpointTag + "'");
  }
  const std::uint64_t count = io::read_u64(in);
  if (count > num_docs) {
    throw std::runtime_error(
        "pipeline: checkpoint records exceed the task's document count");
  }
  std::vector<DocRecord> records;
  records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    DocRecord r = read_record(in);
    const bool ordered =
        records.empty() || r.doc_index > records.back().doc_index;
    if (r.doc_index >= num_docs || !ordered) {
      throw std::runtime_error(
          "pipeline: checkpoint document indices are out of range or "
          "unordered");
    }
    if (r.kind == 1) r.attack.seconds = io::read_double(in);
    records.push_back(std::move(r));
  }
  return records;
}

/// Fault-isolation boundary: a document whose attack throws is recorded as
/// failed and the batch continues. Only std::runtime_error is absorbed —
/// logic errors (contract violations) still abort the whole run.
Outcome<JointAttackResult> run_attack_isolated(
    const TextClassifier& model, const Document& doc, std::size_t target,
    const AttackResources& resources, const JointAttackConfig& joint) {
  try {
    FaultInjector::instance().maybe_fault("pipeline.doc");
    return Outcome<JointAttackResult>(
        joint_attack(model, doc, target, resources, joint));
  } catch (const std::runtime_error& e) {
    return Outcome<JointAttackResult>(
        Failure{TerminationReason::kError, e.what()});
  }
}

/// Queries a record accounts for against the sweep budget: the pre-attack
/// correctness probe, plus — for attacked docs — the kept attack's queries
/// and the post-attack flip recheck. Derived from the record (not from live
/// counters) so a resumed run replays exactly the same charges. A discarded
/// deadline-retry's queries are bounded by the per-doc budget and not
/// re-accounted.
std::size_t record_query_cost(const DocRecord& r) {
  return r.kind == 1 ? 2 + static_cast<std::size_t>(r.attack.queries) : 1;
}

/// Shared state of one sweep: a self-dispatch cursor over the
/// eligible-document list and an in-order commit buffer. Workers claim the
/// next undispatched position, attack it on private resources, and park the
/// finished record in done[pos]; the calling thread folds/appends/
/// checkpoints records strictly in ascending position order (a lone worker
/// runs on the calling thread and commits each record before it claims the
/// next). halt stops further dispatch (stop request, sweep-budget
/// exhaustion, or a fatal error) while in-flight documents drain, so the
/// committed prefix is always contiguous — the same at every worker count.
struct SweepState {
  Mutex mu;
  /// Signalled on every record completion, halt, and worker exit.
  CondVar progress;
  std::size_t next ADVTEXT_GUARDED_BY(mu) = 0;  ///< dispatch cursor
  bool halt ADVTEXT_GUARDED_BY(mu) = false;
  bool stopped ADVTEXT_GUARDED_BY(mu) = false;       ///< StopToken drain
  bool budget_stop ADVTEXT_GUARDED_BY(mu) = false;   ///< sweep cap hit
  bool deadline_stop ADVTEXT_GUARDED_BY(mu) = false;  ///< sweep deadline hit
  std::size_t active ADVTEXT_GUARDED_BY(mu) = 0;     ///< workers running
  std::vector<std::unique_ptr<DocRecord>> done ADVTEXT_GUARDED_BY(mu);
  std::exception_ptr fatal ADVTEXT_GUARDED_BY(mu);   ///< non-runtime_error
};

}  // namespace

AttackEvalResult evaluate_attack(const TextClassifier& model,
                                 const SynthTask& task,
                                 const TaskAttackContext& context,
                                 const AttackEvalConfig& config) {
  AttackEvalResult result;
  result.clean_accuracy = classification_accuracy(model, task.test);

  const AttackResources resources = context.resources();
  std::vector<double> seconds;
  std::vector<double> words_changed;
  std::vector<double> sentences_changed;
  std::vector<double> queries;
  std::size_t flipped = 0;
  std::size_t correct_after = 0;
  const std::size_t attack_budget =
      config.max_docs == 0 ? task.test.docs.size() : config.max_docs;
  // Sweep-wide query cap shared by every worker (0 = unlimited; the
  // accounting still runs so sweep_queries_used is always filled).
  QueryBudget sweep_budget(config.sweep_max_queries);
  const bool sweep_limited = config.sweep_max_queries > 0;

  // Folds one record into the aggregates. Fresh and replayed documents go
  // through the same path, so resume reproduces the uninterrupted run.
  const auto apply_record = [&](const DocRecord& r) {
    ++result.docs_evaluated;
    result.wmd_degradations.to_sinkhorn +=
        static_cast<std::size_t>(r.wmd_to_sinkhorn);
    result.wmd_degradations.to_lower_bound +=
        static_cast<std::size_t>(r.wmd_to_lower);
    if (r.retried != 0) ++result.docs_retried;
    switch (r.kind) {
      case 0:
        // Already misclassified: nothing to attack, counts as incorrect.
        result.adv_docs.push_back(task.test.docs[r.doc_index]);
        break;
      case 2:
        // Attack failed; the unmodified document is still classified
        // correctly (it was checked before the attack).
        ++result.docs_failed;
        result.failed_indices.push_back(
            static_cast<std::size_t>(r.doc_index));
        result.adv_docs.push_back(task.test.docs[r.doc_index]);
        ++correct_after;
        break;
      default: {
        ++result.docs_attacked;
        const JointAttackResult& attack = r.attack;
        seconds.push_back(attack.seconds);
        words_changed.push_back(static_cast<double>(attack.words_changed));
        sentences_changed.push_back(
            static_cast<double>(attack.sentences_changed));
        queries.push_back(static_cast<double>(attack.queries));
        if (attack.termination == TerminationReason::kDeadlineExceeded) {
          ++result.docs_deadline;
        } else if (attack.termination ==
                   TerminationReason::kBudgetExhausted) {
          ++result.docs_budget;
        }
        if (r.flipped != 0) {
          ++flipped;
        } else {
          ++correct_after;
        }
        result.attacked_indices.push_back(result.adv_docs.size());
        result.adv_docs.push_back(attack.adv_doc);
        result.attacks.push_back(attack);
        break;
      }
    }
    // Stream the committed record out (service layer: per-doc results as
    // they land). Runs for replayed and fresh records alike, in order.
    if (config.on_commit) config.on_commit(r);
  };

  std::vector<DocRecord> records;
  std::size_t resume_from = 0;
  if (config.resume && !config.checkpoint_path.empty()) {
    if (config.resume_fallback_fresh) {
      try {
        records =
            read_checkpoint(config.checkpoint_path, task.test.docs.size());
        // ADVTEXT_ALLOW(severity-drop): nothing to fold — the fresh restart reproduces the uninterrupted result bitwise, so the verdict is unchanged; the loss is resume time, not outcome severity
      } catch (const std::runtime_error&) {
        // Unreadable checkpoint under chaos (torn write, bit flip): drop it
        // and restart the sweep from scratch — the fresh run converges to
        // the same records the uninterrupted run would have produced.
        remove_file(config.checkpoint_path);
        records.clear();
      }
    } else {
      records =
          read_checkpoint(config.checkpoint_path, task.test.docs.size());
    }
    for (const DocRecord& r : records) {
      apply_record(r);
      // Replayed docs re-charge the sweep budget so a resumed capped run
      // honours the cap across the whole logical sweep; the grant itself is
      // irrelevant here (the work already happened in the prior run).
      (void)sweep_budget.charge_up_to(record_query_cost(r));
    }
    if (!records.empty()) {
      resume_from = static_cast<std::size_t>(records.back().doc_index) + 1;
    }
  }

  std::size_t docs_since_checkpoint = 0;
  const auto maybe_checkpoint = [&](bool force) {
    if (config.checkpoint_path.empty()) return;
    if (docs_since_checkpoint == 0) return;
    if (!force && docs_since_checkpoint < config.checkpoint_every) return;
    try {
      write_checkpoint(config.checkpoint_path, records);
      // ADVTEXT_ALLOW(severity-drop): a failed checkpoint costs resume granularity, never results; it is counted in checkpoint_write_failures and surfaced in the report
    } catch (const std::runtime_error&) {
      // Degrade: a failed checkpoint costs resume granularity, not results.
      ++result.checkpoint_write_failures;
      return;
    }
    docs_since_checkpoint = 0;
  };

  // Attacks one document and builds its record. Called with the worker's
  // own model / resources / Wmd (worker 0 attacks with the primary model,
  // but every worker has its own Wmd tally). FaultScope tags every
  // injection point fired under it with "@doc<i>", so scoped injection
  // rules hit the same document no matter which thread runs it.
  const auto process_doc = [&](std::size_t doc_index,
                               const TextClassifier& worker_model,
                               const AttackResources& worker_resources,
                               const Wmd& worker_wmd) -> DocRecord {
    const Document& doc = task.test.docs[doc_index];
    FaultScope scope("doc" + std::to_string(doc_index));
    DocRecord record;
    record.doc_index = doc_index;
    const std::size_t true_label = static_cast<std::size_t>(doc.label);
    const std::size_t predicted = worker_model.predict(doc.flatten());
    if (predicted == true_label) {
      // Targeted attack at the other class (binary tasks).
      const std::size_t target = 1 - true_label;
      const WmdDegradation before = worker_wmd.degradation();
      Outcome<JointAttackResult> outcome = run_attack_isolated(
          worker_model, doc, target, worker_resources, config.joint);
      if (config.joint.deadline_ms > 0.0 && outcome.ok() &&
          outcome.value().termination ==
              TerminationReason::kDeadlineExceeded) {
        // One retry with a relaxed budget; keep the retry only if it ran.
        JointAttackConfig relaxed = config.joint;
        relaxed.deadline_ms = config.joint.deadline_ms * 4.0;
        relaxed.enable_sentence = false;
        Outcome<JointAttackResult> second = run_attack_isolated(
            worker_model, doc, target, worker_resources, relaxed);
        record.retried = 1;
        if (second.ok()) outcome = std::move(second);
      }
      const WmdDegradation after = worker_wmd.degradation();
      record.wmd_to_sinkhorn = after.to_sinkhorn - before.to_sinkhorn;
      record.wmd_to_lower = after.to_lower_bound - before.to_lower_bound;
      if (outcome.ok()) {
        record.kind = 1;
        record.attack = std::move(outcome.value());
        record.attack.adv_doc.label = doc.label;  // ground truth unchanged
        record.flipped = worker_model.predict(record.attack.adv_doc.flatten()) !=
                         true_label;
      } else {
        record.kind = 2;
        record.attack.termination = outcome.failure().reason;
        record.error = outcome.failure().message;
      }
    }
    return record;
  };

  // Commits one finished record: fold into the aggregates, append to the
  // checkpoint stream, advance the cadence. Records always land here in
  // ascending doc_index order, on the calling thread.
  const auto commit_record = [&](DocRecord record) {
    apply_record(record);
    records.push_back(std::move(record));
    ++docs_since_checkpoint;
    maybe_checkpoint(/*force=*/false);
  };

  // Eligible docs: from resume_from, skipping empty ones, capped by the
  // remaining doc budget. Precomputing the list makes dispatch order — and
  // therefore the committed prefix — independent of scheduling.
  std::vector<std::size_t> eligible;
  const std::size_t remaining_docs =
      result.docs_evaluated >= attack_budget
          ? 0
          : attack_budget - result.docs_evaluated;
  for (std::size_t doc_index = resume_from;
       doc_index < task.test.docs.size() && eligible.size() < remaining_docs;
       ++doc_index) {
    if (!task.test.docs[doc_index].flatten().empty()) {
      eligible.push_back(doc_index);
    }
  }

  bool stop_drained = false;
  bool sweep_exhausted = false;
  bool deadline_drained = false;
  if (!eligible.empty()) {
    ADVTEXT_CHECK(config.threads <= 1 || config.make_model_replica != nullptr)
        << "evaluate_attack: threads > 1 requires make_model_replica "
           "(every extra worker needs its own classifier; see "
           "AttackEvalConfig::make_model_replica)";
    std::size_t workers =
        std::clamp<std::size_t>(config.threads, 1, eligible.size());
    // Resource governance: each extra worker costs a model replica.
    // Estimate its footprint from the dominant tensor (the embedding
    // table) and reserve against the process MemoryBudget; a denial
    // degrades the worker count toward one instead of allocating past the
    // budget — safe, because results are bitwise-identical at any worker
    // count.
    const std::size_t replica_bytes =
        model.embedding_table().size() * sizeof(float) +
        (std::size_t{1} << 16);
    std::vector<MemoryReservation> replica_memory;
    replica_memory.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      MemoryReservation reserved =
          MemoryReservation::try_acquire(replica_bytes);
      if (!reserved.ok()) break;
      replica_memory.push_back(std::move(reserved));
    }
    workers = 1 + replica_memory.size();
    // Worker 0 attacks with the primary model; workers 1..K-1 get
    // replicas. Every worker, worker 0 included, gets its own Wmd copy
    // (fresh tally), so per-doc degradation deltas never mix across
    // workers or across sweeps that share one TaskAttackContext.
    std::vector<std::unique_ptr<TextClassifier>> replicas;
    replicas.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      replicas.push_back(config.make_model_replica());
      ADVTEXT_CHECK(replicas.back() != nullptr)
          << "evaluate_attack: make_model_replica returned null";
    }
    std::vector<Wmd> worker_wmds;
    worker_wmds.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_wmds.emplace_back(context.wmd());
    }
    SweepState st;
    st.done.resize(eligible.size());
    {
      MutexLock lock(st.mu);
      st.active = workers;
    }

    const auto worker_loop = [&](std::size_t worker_id) {
      const TextClassifier& worker_model =
          worker_id == 0 ? model : *replicas[worker_id - 1];
      AttackResources worker_resources = resources;
      worker_resources.wmd = &worker_wmds[worker_id];
      Heartbeat* const heart = ThreadPool::current();
      while (true) {
        // Each dispatch round is observable progress for any watchdog
        // over the running pool (per-doc granularity).
        if (heart != nullptr) heart->beat();
        std::size_t pos = 0;
        {
          MutexLock lock(st.mu);
          if (st.halt || st.next >= eligible.size()) break;
          if (StopToken::instance().stop_requested()) {
            st.halt = true;
            st.stopped = true;
            st.progress.notify_all();
            break;
          }
          if (sweep_limited && sweep_budget.exhausted()) {
            st.halt = true;
            st.budget_stop = true;
            st.progress.notify_all();
            break;
          }
          if (config.sweep_deadline.expired()) {
            st.halt = true;
            st.deadline_stop = true;
            st.progress.notify_all();
            break;
          }
          pos = st.next++;
        }
        try {
          DocRecord record =
              process_doc(eligible[pos], worker_model, worker_resources,
                          worker_wmds[worker_id]);
          // Post-hoc accounting: the doc already ran, so only the clamped
          // total matters, not the grant.
          (void)sweep_budget.charge_up_to(record_query_cost(record));
          if (workers == 1) {
            // The lone worker runs on the calling thread and claims
            // positions in order, so it commits each record before the
            // next dispatch.
            commit_record(std::move(record));
            continue;
          }
          MutexLock lock(st.mu);
          st.done[pos] = std::make_unique<DocRecord>(std::move(record));
          st.progress.notify_all();
        } catch (...) {
          // Anything escaping process_doc is a contract violation
          // (runtime errors were absorbed per-doc): stop dispatch, stash
          // for the calling thread, let the sweep drain.
          MutexLock lock(st.mu);
          if (!st.fatal) st.fatal = std::current_exception();
          st.halt = true;
          st.progress.notify_all();
          break;
        }
      }
      MutexLock lock(st.mu);
      --st.active;
      st.progress.notify_all();
    };

    if (workers == 1) {
      worker_loop(0);
    } else {
      ThreadPool pool(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        // A fresh pool never rejects; the return only matters at shutdown.
        (void)pool.submit([&worker_loop, w] { worker_loop(w); });
      }
      // In-order commit: block on the next position until its record (or
      // the news that it will never come) arrives. Folding and
      // checkpointing happen only here, on this thread, in doc order.
      for (std::size_t commit = 0; commit < eligible.size(); ++commit) {
        std::unique_ptr<DocRecord> record;
        {
          MutexLock lock(st.mu);
          while (st.done[commit] == nullptr && st.active > 0) {
            st.progress.wait(st.mu);
          }
          if (st.done[commit] == nullptr) break;  // halted before this doc
          record = std::move(st.done[commit]);
        }
        commit_record(std::move(*record));
      }
      pool.wait_idle();
    }
    std::exception_ptr fatal;
    {
      MutexLock lock(st.mu);
      stop_drained = st.stopped;
      sweep_exhausted = st.budget_stop;
      deadline_drained = st.deadline_stop;
      fatal = st.fatal;
    }
    // Propagate contract violations (periodic checkpoints already
    // persisted the committed prefix).
    if (fatal) std::rethrow_exception(fatal);
  }
  maybe_checkpoint(/*force=*/true);

  // Fold every applicable stop cause through the severity lattice: a sweep
  // that hit its budget, blew its deadline, *and* was signalled reports the
  // worst of the three (kStopped), matching the service layer's job-outcome
  // mapping.
  result.termination = TerminationReason::kSucceeded;
  if (sweep_exhausted) {
    result.termination =
        worse_of(result.termination, TerminationReason::kBudgetExhausted);
  }
  if (deadline_drained) {
    result.termination =
        worse_of(result.termination, TerminationReason::kDeadlineExceeded);
  }
  if (stop_drained) {
    result.termination =
        worse_of(result.termination, TerminationReason::kStopped);
  }
  result.sweep_queries_used = sweep_budget.used();

  result.adversarial_accuracy =
      result.docs_evaluated == 0
          ? 0.0
          : static_cast<double>(correct_after) /
                static_cast<double>(result.docs_evaluated);
  result.success_rate =
      result.docs_attacked == 0
          ? 0.0
          : static_cast<double>(flipped) /
                static_cast<double>(result.docs_attacked);
  result.mean_seconds_per_doc = mean(seconds);
  result.mean_words_changed = mean(words_changed);
  result.mean_sentences_changed = mean(sentences_changed);
  result.mean_queries = mean(queries);
  return result;
}

}  // namespace advtext

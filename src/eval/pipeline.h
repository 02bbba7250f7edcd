// End-to-end attack evaluation pipeline: build attack resources for a task,
// attack a trained classifier over its test set, and aggregate the metrics
// the paper's tables report (clean vs adversarial accuracy, success rate,
// per-document time, replacement counts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/core/joint_attack.h"
#include "src/data/synthetic.h"
#include "src/nn/text_classifier.h"
#include "src/util/robust.h"

namespace advtext {

/// Owns the per-task attack resources (paraphrase index, sentence
/// paraphraser, WMD, language model). Build once per task; the referenced
/// SynthTask must outlive this object (the WMD holds a view of its
/// paragram embeddings).
class TaskAttackContext {
 public:
  TaskAttackContext(const SynthTask& task,
                    const WordNeighborConfig& word_config = {},
                    const SentenceParaphraserConfig& sentence_config = {});

  AttackResources resources() const;

  const ParaphraseIndex& word_index() const { return *word_index_; }
  const SentenceParaphraser& paraphraser() const { return *paraphraser_; }
  const Wmd& wmd() const { return *wmd_; }
  const NGramLm& lm() const { return *lm_; }

 private:
  std::unique_ptr<ParaphraseIndex> word_index_;
  std::unique_ptr<SentenceParaphraser> paraphraser_;
  std::unique_ptr<Wmd> wmd_;
  std::unique_ptr<NGramLm> lm_;
};

/// One per-document sweep record — the unit shared by the checkpoint
/// stream, resume replay, and the service layer's streamed job results.
/// Everything the aggregation step consumes is stored raw (doubles
/// bit-exact, flags precomputed), so a resumed run replays to
/// bitwise-identical aggregates without re-running the model.
struct DocRecord {
  std::uint64_t doc_index = 0;  ///< into task.test.docs
  /// 0 = misclassified before the attack, 1 = attacked, 2 = attack threw.
  std::uint64_t kind = 0;
  std::uint64_t retried = 0;
  std::uint64_t wmd_to_sinkhorn = 0;
  std::uint64_t wmd_to_lower = 0;
  std::uint64_t flipped = 0;  ///< kind 1: adv doc changed the prediction
  JointAttackResult attack;   ///< kind 1; kind 2 uses only .termination
  std::string error;          ///< kind 2
};

/// The one byte layout of a DocRecord, shared by the sweep checkpoint, the
/// daemon's DocResult frames and result artifacts, and `--records-out`
/// dumps. It excludes attack.seconds: timing is a measurement of one run,
/// not replayable state, so the bytes of an uninterrupted and a resumed
/// run agree (the checkpoint appends the seconds after each attacked
/// record). read_record leaves attack.seconds 0.0 and throws
/// std::runtime_error on an unknown kind or termination reason.
void write_record(std::ostream& out, const DocRecord& record);
DocRecord read_record(std::istream& in);

struct AttackEvalConfig {
  /// Per-document attack. A document whose attack ends on joint.deadline_ms
  /// is retried once with a relaxed configuration (4x the deadline,
  /// sentence phase disabled) before the sweep gives up on it.
  JointAttackConfig joint;
  /// Attack at most this many test documents (0 = all). Documents the
  /// clean model already misclassifies are not attacked (they already
  /// count against adversarial accuracy).
  std::size_t max_docs = 0;
  /// Periodically persist per-document results to this path (tmp file +
  /// atomic rename); empty disables checkpointing.
  std::string checkpoint_path;
  /// Rewrite the checkpoint after every N evaluated documents.
  std::size_t checkpoint_every = 8;
  /// Replay an existing checkpoint_path before attacking: already-recorded
  /// documents are restored (bitwise-identical aggregates), the run
  /// continues from the first unrecorded document.
  bool resume = false;
  /// With resume: an unreadable/corrupt checkpoint (torn write, bit flip,
  /// bad footer) is dropped and the sweep restarts from scratch instead of
  /// throwing — losing progress, never results. The chaos harness runs the
  /// CLI this way so every fault schedule still converges to the clean
  /// sweep's output.
  bool resume_fallback_fresh = false;
  /// Attack worker threads. Every value runs the same sweep: records are
  /// folded, appended, and checkpointed strictly in ascending doc_index
  /// order. 1 (the default) runs the one worker on the calling thread and
  /// spawns no sweep worker, though an LSTM or GRU scoring batch may still
  /// split over the process's parallel_for helpers (sync.h); K > 1 attacks
  /// up to K documents concurrently on a sync.h ThreadPool. For a
  /// deterministic model (no MC dropout) and no per-doc deadline, results
  /// and checkpoint files are bitwise-identical at every worker count and
  /// every CPU count (timing fields excepted), and runs at different counts
  /// resume each other's checkpoints.
  std::size_t threads = 1;
  /// Required when threads > 1: builds one independent model replica per
  /// extra worker (worker 0 uses `model` itself). Contract: each call
  /// returns a classifier over the same task whose trained weights are a
  /// bitwise copy of `model`'s (see copy_model_params in nn/checkpoint.h)
  /// and which shares no mutable state with `model` or other replicas.
  /// Stochastic inference (MC dropout) breaks the bitwise guarantee; leave
  /// it disabled for parity-sensitive sweeps. Replicas are charged against
  /// the process MemoryBudget: when the budget cannot cover an extra
  /// replica the sweep degrades its worker count toward one (results are
  /// bitwise-identical at any worker count, so this is always safe).
  std::function<std::unique_ptr<TextClassifier>()> make_model_replica;
  /// Sweep-wide query cap shared by all workers (0 = unlimited), distinct
  /// from the per-document joint.max_queries. Admission control: once the
  /// accounted total reaches the cap no further document is dispatched
  /// (in-flight documents drain), the run ends kBudgetExhausted with a
  /// valid resumable checkpoint. Accounting is clamped (never exceeds the
  /// cap) and derived from each document's record — pre-attack probe +
  /// kept attack queries + flip recheck — so a resumed run replays the
  /// same charges.
  std::size_t sweep_max_queries = 0;
  /// Whole-sweep wall-clock deadline, the job-granular twin of
  /// sweep_max_queries (served attack jobs get one per admission). Once
  /// expired no further document is dispatched; in-flight documents drain
  /// and the run ends kDeadlineExceeded with a valid resumable checkpoint.
  /// Default-constructed: never expires.
  Deadline sweep_deadline;
  /// Streaming hook: invoked once per committed record, strictly in
  /// ascending doc_index order, on the committing (caller's) thread —
  /// replayed checkpoint records first when resuming, then fresh records
  /// as they commit. Must not throw. Fresh records carry measured
  /// attack.seconds; replayed ones carry the original run's values.
  std::function<void(const DocRecord&)> on_commit;
};

struct AttackEvalResult {
  double clean_accuracy = 0.0;
  double adversarial_accuracy = 0.0;
  /// Fraction of attacked (originally correct) documents that flipped.
  double success_rate = 0.0;
  double mean_seconds_per_doc = 0.0;
  double mean_words_changed = 0.0;
  double mean_sentences_changed = 0.0;
  double mean_queries = 0.0;
  std::size_t docs_attacked = 0;
  std::size_t docs_evaluated = 0;
  /// Documents whose attack threw (fault isolation): the original text is
  /// kept, the batch continues. Indices into task.test.docs.
  std::size_t docs_failed = 0;
  std::vector<std::size_t> failed_indices;
  /// Documents retried once with a relaxed config after a deadline kill.
  std::size_t docs_retried = 0;
  /// Documents whose final attack ended on a deadline / query budget.
  std::size_t docs_deadline = 0;
  std::size_t docs_budget = 0;
  /// Checkpoint publishes that failed (disk error, injected ckpt.write
  /// fault). The run continues: a lost checkpoint only costs resume
  /// granularity, never results.
  std::size_t checkpoint_write_failures = 0;
  /// WMD solver degradations (exact->Sinkhorn, ->nBOW bound) accumulated
  /// over the run.
  WmdDegradation wmd_degradations;
  /// Adversarial version of every evaluated test document (unattacked or
  /// failed attacks keep the original text). Labels are the true labels.
  std::vector<Document> adv_docs;
  /// Indices (into adv_docs) of documents that were attacked.
  std::vector<std::size_t> attacked_indices;
  /// Per-attacked-document results, aligned with attacked_indices.
  std::vector<JointAttackResult> attacks;
  /// Why the *sweep* ended: kSucceeded (all requested docs evaluated),
  /// kBudgetExhausted (sweep_max_queries admission stop),
  /// kDeadlineExceeded (sweep_deadline expired), or kStopped (StopToken /
  /// SIGTERM drain) — the worst applicable on the severity lattice.
  /// Per-document failures stay isolated in docs_failed and do not
  /// escalate the sweep termination.
  TerminationReason termination = TerminationReason::kSucceeded;
  /// Accounted queries charged against sweep_max_queries (also filled when
  /// the sweep budget is unlimited; then it is the plain accounted total).
  std::size_t sweep_queries_used = 0;
};

/// Attacks the model over task.test. For binary tasks the target label is
/// the complement of the true label (untargeted flip as targeted attack).
AttackEvalResult evaluate_attack(const TextClassifier& model,
                                 const SynthTask& task,
                                 const TaskAttackContext& context,
                                 const AttackEvalConfig& config);

}  // namespace advtext

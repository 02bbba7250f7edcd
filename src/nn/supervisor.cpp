#include "src/nn/supervisor.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/util/check.h"
#include "src/util/det_accum.h"
#include "src/util/io_file.h"
#include "src/util/serialize.h"
#include "src/util/stop_token.h"
#include "src/util/sync.h"

namespace advtext {

SnapshotRotation::SnapshotRotation(std::string base_path)
    : base_(std::move(base_path)) {}

std::string SnapshotRotation::generation_path(const std::string& base,
                                              std::size_t generation) {
  return base + ".ckpt." + std::to_string(generation);
}

void SnapshotRotation::write(const std::string& payload) const {
  // Shift N-1 -> N, ..., 1 -> 2 before publishing, so an interrupted or
  // failed publish leaves the previous snapshot intact one generation up.
  // ADVTEXT_ALLOW(unpolled-loop): bounded by kSnapshotGenerations (a small constant); aborting a half-shifted rotation would corrupt the ladder
  for (std::size_t gen = kSnapshotGenerations; gen >= 2; --gen) {
    const std::string older = generation_path(base_, gen);
    const std::string newer = generation_path(base_, gen - 1);
    remove_file(older);
    rename_file(newer, older);  // no-op if newer is absent
  }
  io::save_artifact(generation_path(base_, 1), payload);
}

namespace {

// Learning-rate multiplier per consecutive rollback (handed to the loop as
// kRollbackLrBackoff^attempt), and the spike test: a finite step loss
// above kLossSpikeFactor * EWMA(loss) + 1.0 counts as divergence.
constexpr double kRollbackLrBackoff = 0.5;
constexpr double kLossSpikeFactor = 50.0;

// Names the snapshot layout: magic, this tag, the session's barrier state
// (awaiting_barrier, barriers_done), then the loop's own state. A file in
// another layout is refused by the tag, and resume falls back past it.
constexpr const char* kSnapshotTag = "train-snapshot-v1";

// The averaging barrier plus shard liveness book-keeping. All state is
// guarded by one mutex and verified by the Clang thread-safety analysis.
//
// Lifecycle of a shard, from the coordinator's point of view:
//   kRunning --arrive()--> kArrived --release--> kRunning   (another epoch)
//   kArrived --stop while waiting--> kStopped               (drain)
//   kRunning --depart(kDone/kDead/kStopped)--> terminal
//
// A barrier releases when no shard is left in kRunning and at least one is
// kArrived: the completing thread (last arriver, or a departing shard whose
// exit unblocks the group) averages parameters over the arrived shards in
// ascending shard order, bumps the generation, and flips them back to
// kRunning. A lone shard is its own last arriver, so its barrier releases
// at once. Once any stop is observed (`stop_draining_`), releases are
// forbidden forever: every shard — mid-epoch or parked — flushes where it
// is, so all per-shard snapshots describe the same pending generation.
class Coordinator {
 public:
  enum class State { kRunning, kArrived, kDone, kDead, kStopped };
  enum class Arrival { kReleased, kStopped };

  explicit Coordinator(const std::vector<ShardSpec>& shards)
      : shards_(shards) {
    MutexLock lock(mu_);
    state_.assign(shards_.size(), State::kRunning);
  }

  /// Blocks shard `k` at the averaging barrier. Returns kReleased once the
  /// barrier completed (parameters averaged; proceed to commit), or
  /// kStopped if a drain started while waiting — the shard is then already
  /// marked departed and must flush + exit without committing.
  Arrival arrive(std::size_t k) ADVTEXT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    state_[k] = State::kArrived;
    const std::size_t my_generation = generation_;
    if (!stop_draining_) maybe_release_locked();
    for (;;) {
      if (generation_ != my_generation) return Arrival::kReleased;
      if (stop_draining_ || StopToken::instance().stop_requested()) {
        // Abandon the barrier: from here on nobody may average without this
        // shard, or resume could not replay the round.
        stop_draining_ = true;
        state_[k] = State::kStopped;
        cv_.notify_all();
        return Arrival::kStopped;
      }
      // Timed wait so a StopToken signal (which carries no notify) is
      // still observed promptly.
      cv_.wait_for_ms(mu_, 50);
    }
  }

  /// Removes shard `k` from the group. A stop-departure starts the drain; a
  /// done/dead departure may complete a barrier the others are parked at.
  /// Idempotent: a shard that already departed (e.g. stopped inside
  /// arrive()) is left untouched.
  void depart(std::size_t k, State terminal) ADVTEXT_EXCLUDES(mu_) {
    ADVTEXT_CHECK(terminal == State::kDone || terminal == State::kDead ||
                  terminal == State::kStopped);
    MutexLock lock(mu_);
    if (state_[k] != State::kRunning && state_[k] != State::kArrived) return;
    state_[k] = terminal;
    if (terminal == State::kStopped) {
      stop_draining_ = true;
    } else if (!stop_draining_) {
      maybe_release_locked();
    }
    cv_.notify_all();
  }

  /// True once any shard stopped (or is about to): polled by every
  /// session's stop check, so one shard's stop drains all of them.
  bool draining() const ADVTEXT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stop_draining_;
  }

  std::size_t rounds() const ADVTEXT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return rounds_;
  }

 private:
  /// Completes the barrier if every live shard has arrived. Averaging runs
  /// under the mutex: arrivers' parameter writes happen-before via their
  /// arrive() lock acquisition, and waiters re-acquire the mutex before
  /// reading the averaged values back.
  void maybe_release_locked() ADVTEXT_REQUIRES(mu_) {
    std::size_t arrived = 0;
    for (const State state : state_) {
      if (state == State::kRunning) return;  // someone is still training
      if (state == State::kArrived) ++arrived;
    }
    if (arrived == 0) return;
    average_locked();
    ++generation_;
    ++rounds_;
    for (State& state : state_) {
      if (state == State::kArrived) state = State::kRunning;
    }
    cv_.notify_all();
  }

  /// Element-wise parameter mean over the arrived shards, accumulated in
  /// double and iterated in ascending shard order — a fixed reduction
  /// order, so the result is independent of which thread executes it.
  void average_locked() ADVTEXT_REQUIRES(mu_) {
    std::vector<std::size_t> cohort;
    for (std::size_t k = 0; k < state_.size(); ++k) {
      if (state_[k] == State::kArrived) cohort.push_back(k);
    }
    if (cohort.size() < 2) return;  // nothing to average against
    const std::vector<ParamRef>& head = shards_[cohort.front()].params;
    for (std::size_t t = 0; t < head.size(); ++t) {
      for (const std::size_t k : cohort) {
        ADVTEXT_CHECK(shards_[k].params.size() == head.size() &&
                      shards_[k].params[t].size == head[t].size)
            << "shard parameter layouts must match for averaging";
      }
      for (std::size_t i = 0; i < head[t].size; ++i) {
        const double sum = det_accumulate(
            cohort.begin(), cohort.end(), 0.0, [&](double acc, std::size_t k) {
              return acc + static_cast<double>(shards_[k].params[t].value[i]);
            });
        const float mean =
            static_cast<float>(sum / static_cast<double>(cohort.size()));
        for (const std::size_t k : cohort) {
          shards_[k].params[t].value[i] = mean;
        }
      }
    }
  }

  const std::vector<ShardSpec>& shards_;
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<State> state_ ADVTEXT_GUARDED_BY(mu_);
  std::size_t generation_ ADVTEXT_GUARDED_BY(mu_) = 0;
  std::size_t rounds_ ADVTEXT_GUARDED_BY(mu_) = 0;
  bool stop_draining_ ADVTEXT_GUARDED_BY(mu_) = false;
};

// One shard's supervised run: resume, train epoch by epoch with divergence
// detection, rollback and periodic snapshots, meet the barrier, commit
// after averaging, depart. Everything it owns is touched only by the thread
// that runs it; the averaging thread touches ShardSpec::params alone.
class SupervisorSession {
 public:
  SupervisorSession(std::size_t index, const ShardSpec& spec,
                    Coordinator& coord)
      : index_(index), loop_(*spec.loop), config_(spec.resilience),
        coord_(coord), rotation_(config_.snapshot_path) {}
  SupervisorSession(const SupervisorSession&) = delete;
  SupervisorSession& operator=(const SupervisorSession&) = delete;

  /// The shard's whole life. Must not throw (it may run on a pool worker).
  void run() {
    initialize();
    for (;;) {
      if (awaiting_barrier_) {
        if (coord_.arrive(index_) == Coordinator::Arrival::kStopped) {
          // Drained while parked: flush with awaiting_barrier still set so
          // resume re-arrives at this same barrier.
          finish(StepStatus::kStopped);
          return;  // arrive() already recorded the departure
        }
        awaiting_barrier_ = false;
        ++barriers_done_;
        // The averaged parameters become the shard's rollback target and
        // its published snapshot.
        commit_boundary();
        continue;
      }
      const StepStatus status = step_until_boundary();
      if (status == StepStatus::kBoundary) {
        awaiting_barrier_ = true;
        continue;
      }
      finish(status);
      using State = Coordinator::State;
      coord_.depart(index_, status == StepStatus::kDone      ? State::kDone
                            : status == StepStatus::kStopped ? State::kStopped
                                                             : State::kDead);
      return;
    }
  }

  std::size_t barriers_done() const { return barriers_done_; }
  SupervisorReport take_report() { return std::move(report_); }

 private:
  // [[nodiscard]]: every StepStatus encodes what run() must do next.
  enum class [[nodiscard]] StepStatus {
    kBoundary,  ///< loop hit a natural snapshot boundary (epoch end)
    kDone,      ///< loop reports done(); finish() flushes + kSucceeded
    kStopped,   ///< StopToken / max_steps / a draining group; resumable
    kError,     ///< divergence beyond max_rollbacks; shard lost
  };

  bool has_disk() const { return !config_.snapshot_path.empty(); }

  bool stop_requested() const {
    if (StopToken::instance().stop_requested()) return true;
    if (config_.max_steps != 0 && report_.steps >= config_.max_steps) {
      return true;
    }
    return coord_.draining();
  }

  std::string serialize() const {
    std::ostringstream out;
    io::write_magic(out);
    io::write_string(out, kSnapshotTag);
    io::write_u64(out, awaiting_barrier_ ? 1 : 0);
    io::write_u64(out, barriers_done_);
    loop_.save_state(out);
    return out.str();
  }

  void restore(const std::string& state) {
    std::istringstream in(state);
    io::read_magic(in);
    if (io::read_string(in) != kSnapshotTag) {
      throw std::runtime_error(std::string("not tagged '") + kSnapshotTag +
                               "' (another snapshot layout)");
    }
    awaiting_barrier_ = io::read_u64(in) != 0;
    barriers_done_ = static_cast<std::size_t>(io::read_u64(in));
    loop_.load_state(in);
  }

  void publish(const std::string& state) {
    if (!has_disk()) return;
    // Transient write failures (sporadic disk errors, injected ckpt.write
    // faults) are retried with capped backoff; the retry RNG is the
    // policy's own, so the training trajectory is bit-for-bit unperturbed.
    const RetryPolicy retry;
    const Outcome<std::size_t> outcome =
        retry.run("snapshot write", [&] { rotation_.write(state); });
    if (outcome.ok()) {
      ++report_.snapshots_written;
      if (outcome.value() > 1) {
        report_.snapshot_write_retries += outcome.value() - 1;
        report_.warnings.push_back(
            "snapshot-write-retried: publish succeeded on attempt " +
            std::to_string(outcome.value()));
      }
    } else {
      // Losing a snapshot must not lose the run: degrade, count, continue.
      ++report_.snapshot_write_failures;
      report_.warnings.push_back("snapshot-write-failed: " +
                                 outcome.failure().message);
    }
  }

  /// Resume handling (when configured) + the initial in-memory rollback
  /// target.
  void initialize() {
    if (config_.resume && has_disk()) {
      // Walk generations newest-first, validating the *complete* restore —
      // the tag and the loop state, not just the checksum.
      const std::string pristine = serialize();
      bool restored = false;
      // ADVTEXT_ALLOW(unpolled-loop): bounded by kSnapshotGenerations; startup restore scan must complete or the run resumes from a worse generation than it has
      for (std::size_t gen = 1; gen <= kSnapshotGenerations && !restored;
           ++gen) {
        const std::string path =
            SnapshotRotation::generation_path(config_.snapshot_path, gen);
        if (!file_exists(path)) continue;  // missing generation: not an error
        try {
          restore(io::load_artifact(path));
          restored = true;
          if (gen > 1) {
            report_.warnings.push_back(
                "resumed from older snapshot generation " +
                std::to_string(gen) + " (" + path + ")");
          }
        } catch (const std::runtime_error& error) {
          report_.warnings.push_back(
              "snapshot generation " + std::to_string(gen) + " (" + path +
              ") rejected: " + error.what() +
              "; falling back to older generation");
        }
      }
      if (restored) {
        report_.resumed = true;
      } else {
        // A rejected generation may have half-applied its state before the
        // failure; rebuild the fresh-start state exactly.
        restore(pristine);
        report_.warnings.push_back(
            "resume requested but no readable snapshot generation under '" +
            config_.snapshot_path + "'; starting fresh");
      }
    }

    // Rollback target. Kept in memory so divergence recovery works even
    // with no snapshot path configured.
    last_good_ = serialize();
  }

  /// Runs steps — with divergence detection, rollback and periodic
  /// snapshots — until a boundary, completion, a stop, or rollback
  /// exhaustion. A boundary is committed by run(), after the barrier.
  StepStatus step_until_boundary() {
    while (!loop_.done()) {
      if (stop_requested()) return StepStatus::kStopped;

      bool diverged = false;
      std::string divergence_note;
      try {
        const double loss = loop_.step();
        ++report_.steps;
        if (!std::isfinite(loss)) {
          diverged = true;
          divergence_note = "non-finite step loss";
        } else if (ewma_primed_ && loss > kLossSpikeFactor * ewma_ + 1.0) {
          diverged = true;
          std::ostringstream note;
          note << "loss spike " << loss << " vs EWMA " << ewma_;
          divergence_note = note.str();
        } else {
          ewma_ = ewma_primed_ ? 0.9 * ewma_ + 0.1 * loss : loss;
          ewma_primed_ = true;
        }
      } catch (const std::runtime_error& error) {
        ++report_.steps;
        diverged = true;
        divergence_note = std::string("step threw: ") + error.what();
      }

      if (diverged) {
        if (consecutive_failures_ >= config_.max_rollbacks) {
          report_.warnings.push_back(
              "divergence (" + divergence_note + ") after exhausting " +
              std::to_string(config_.max_rollbacks) +
              " consecutive rollbacks; aborting training");
          return StepStatus::kError;
        }
        ++consecutive_failures_;
        ++report_.rollbacks;
        restore(last_good_);
        loop_.on_rollback(std::pow(
            kRollbackLrBackoff, static_cast<double>(consecutive_failures_)));
        report_.warnings.push_back(
            "divergence (" + divergence_note +
            "); rolled back to last good state, attempt " +
            std::to_string(consecutive_failures_));
        // Reset the loss statistics: the backoff changes the loss scale.
        ewma_primed_ = false;
        continue;
      }
      if (consecutive_failures_ > 0) {
        // The divergence passed: let the loop undo its backoff.
        consecutive_failures_ = 0;
        loop_.on_recover();
      }

      // A boundary subsumes a coinciding periodic snapshot: its commit,
      // after the averaging barrier, covers it.
      if (loop_.at_boundary()) return StepStatus::kBoundary;
      if (config_.snapshot_every != 0 &&
          report_.steps % config_.snapshot_every == 0) {
        commit_boundary();
      }
    }
    return StepStatus::kDone;
  }

  /// Refreshes the rollback target from the current state and publishes
  /// it as a snapshot.
  void commit_boundary() {
    last_good_ = serialize();
    publish(last_good_);
  }

  /// Records the terminal status: final snapshot flush on kDone (and on
  /// kStopped when flush_on_stop), termination + stop-signal bookkeeping.
  void finish(StepStatus status) {
    switch (status) {
      case StepStatus::kDone:
        // Natural completion: flush the final state so resume of a
        // finished run is a no-op replay.
        publish(serialize());
        report_.termination = TerminationReason::kSucceeded;
        break;
      case StepStatus::kStopped:
        report_.termination = TerminationReason::kStopped;
        report_.stop_signal = StopToken::instance().signal_number();
        if (config_.flush_on_stop) publish(serialize());
        break;
      case StepStatus::kError:
        report_.termination = TerminationReason::kError;
        break;
      case StepStatus::kBoundary:
        ADVTEXT_CHECK(false) << "finish(kBoundary): boundaries are not "
                                "terminal; keep stepping";
        break;
    }
  }

  const std::size_t index_;
  ResumableTraining& loop_;
  const ResilienceConfig config_;
  Coordinator& coord_;
  const SnapshotRotation rotation_;
  SupervisorReport report_;
  std::string last_good_;
  double ewma_ = 0.0;
  bool ewma_primed_ = false;
  std::size_t consecutive_failures_ = 0;

  // Barrier state, serialized in front of the loop's own: a shard stopped
  // while parked at a barrier re-arrives at the *same* barrier on resume,
  // which is what makes a drained stop bitwise-replayable.
  bool awaiting_barrier_ = false;
  std::size_t barriers_done_ = 0;
};

}  // namespace

SupervisorReport supervise(std::vector<ShardSpec> shards) {
  const std::size_t shard_count = shards.size();
  ADVTEXT_CHECK(shard_count >= 1) << "supervise needs at least one shard";
  bool install_stop_token = false;
  for (const ShardSpec& spec : shards) {
    ADVTEXT_CHECK(spec.loop != nullptr) << "every shard needs a loop";
    install_stop_token =
        install_stop_token || spec.resilience.install_stop_token;
  }
  // Signal handling is installed once, from this thread; the sessions only
  // poll the token.
  if (install_stop_token) StopToken::instance().install();

  Coordinator coord(shards);
  std::vector<std::unique_ptr<SupervisorSession>> sessions;
  sessions.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    sessions.push_back(
        std::make_unique<SupervisorSession>(k, shards[k], coord));
  }
  if (shard_count == 1) {
    sessions[0]->run();
  } else {
    ThreadPool pool(shard_count);
    for (const std::unique_ptr<SupervisorSession>& session : sessions) {
      pool.submit([&session] { session->run(); });
    }
    pool.wait_idle();
  }  // the pool joins before any shard state is read from this thread

  SupervisorReport report;
  report.shards.reserve(shard_count);
  bool any_stopped = false;
  bool any_succeeded = false;
  for (std::size_t k = 0; k < shard_count; ++k) {
    SupervisorReport shard = sessions[k]->take_report();
    for (const std::string& warning : shard.warnings) {
      report.warnings.push_back(
          shard_count == 1 ? warning
                           : "shard " + std::to_string(k) + ": " + warning);
    }
    switch (shard.termination) {
      case TerminationReason::kStopped:
        any_stopped = true;
        break;
      case TerminationReason::kError:
        report.dead_shards.push_back(k);
        break;
      case TerminationReason::kSucceeded:
        any_succeeded = true;
        break;
      default:
        break;
    }
    report.steps += shard.steps;
    report.rollbacks += shard.rollbacks;
    report.snapshots_written += shard.snapshots_written;
    report.snapshot_write_failures += shard.snapshot_write_failures;
    report.snapshot_write_retries += shard.snapshot_write_retries;
    report.resumed = report.resumed || shard.resumed;
    if (report.stop_signal == 0) report.stop_signal = shard.stop_signal;
    report.shards.push_back(std::move(shard));
  }
  report.averaging_rounds = coord.rounds();

  if (any_stopped) {
    report.termination = TerminationReason::kStopped;
  } else if (!any_succeeded) {
    report.termination = TerminationReason::kError;
    if (shard_count > 1) {
      report.warnings.push_back("all shards exhausted their rollback budget");
    }
  } else if (!report.dead_shards.empty()) {
    report.warnings.push_back(
        "degraded: " + std::to_string(report.dead_shards.size()) + " of " +
        std::to_string(shard_count) +
        " shards died; result averaged over survivors");
  }

  // Result shard: deepest successful shard (most barriers), ties to the
  // lowest index. After a clean run every survivor in the final cohort
  // holds identical parameters, so the choice only matters under
  // degradation or stop.
  bool have_best = false;
  for (std::size_t k = 0; k < shard_count; ++k) {
    const TerminationReason termination = report.shards[k].termination;
    const bool eligible =
        termination == TerminationReason::kSucceeded ||
        (!any_succeeded && termination == TerminationReason::kStopped);
    if (!eligible) continue;
    if (!have_best || sessions[k]->barriers_done() >
                          sessions[report.result_shard]->barriers_done()) {
      report.result_shard = k;
      have_best = true;
    }
  }
  return report;
}

}  // namespace advtext

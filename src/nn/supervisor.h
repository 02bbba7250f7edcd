// Training supervisor: checkpointed, self-healing execution of long
// training loops, on one data shard or on several in parallel.
//
// Every experiment in the paper sits on top of training runs — the
// WCNN/LSTM classifiers, the skip-gram embeddings, and the adversarial-
// retraining defense (§5, Table 6) retrains on augmented data, our single
// longest code path. PR 2 made the *attack* side fault-tolerant; this layer
// is its training-side twin, reusing the same TerminationReason vocabulary:
//
//   * snapshots  — a ResumableTraining loop serializes its complete state
//                  (model params, optimizer moments, RNG streams, epoch /
//                  batch cursor) at boundaries and every snapshot_every
//                  steps. The supervisor writes a tagged header (its own
//                  barrier state) in front of it, and SnapshotRotation
//                  publishes generations <base>.ckpt.1 (newest) ..
//                  .ckpt.kSnapshotGenerations atomically with a CRC32 +
//                  version footer; a truncated, bit-flipped or untagged
//                  newest generation falls back to the previous one with a
//                  named warning. Resume replays to bitwise-identical final
//                  weights vs an uninterrupted run.
//   * divergence — a non-finite or spiking step loss rolls the loop back to
//                  the last good state with learning-rate backoff (capped
//                  retries) instead of aborting the run.
//   * shutdown   — the sigatomic StopToken (SIGINT/SIGTERM) is polled
//                  between steps; a requested stop flushes a final snapshot
//                  and returns TerminationReason::kStopped so callers exit
//                  with a distinct code.
//   * shards     — supervise() drives K >= 1 loops and averages their
//                  parameters at every aligned epoch boundary (see
//                  supervise() below and DESIGN.md §8). One loop is the
//                  same machinery with a barrier that releases at once.
//
// Fault-injection sites: "train.loss" (step-loss poisoning, armed by the
// loops), "ckpt.write" / "ckpt.read" (io::save_artifact / load_artifact),
// so every recovery path is deterministic and CI-testable.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/nn/text_classifier.h"
#include "src/util/robust.h"

namespace advtext {

/// On-disk snapshot generations kept per snapshot path: two survive a
/// corrupted newest file.
inline constexpr std::size_t kSnapshotGenerations = 2;

/// Resilience policy shared by every supervised trainer. Defaults keep an
/// un-configured run behaviourally identical to the pre-supervisor code
/// path (no disk snapshots, in-memory rollback only, no signal handlers).
struct ResilienceConfig {
  /// Base path for on-disk snapshots; generations live at
  /// <path>.ckpt.1 (newest) .. <path>.ckpt.<kSnapshotGenerations>. Empty
  /// keeps snapshots in memory only (rollback still works, resume does
  /// not).
  std::string snapshot_path;
  /// Extra mid-run snapshots every N supervisor steps (0 = only at loop
  /// boundaries, e.g. epoch ends, and on stop/completion).
  std::size_t snapshot_every = 0;
  /// Load the newest valid snapshot generation before training. All
  /// generations invalid (or none present) falls back to a fresh start
  /// with a named warning.
  bool resume = false;
  /// Consecutive failed retries of the same stretch tolerated before giving
  /// up with kError. The counter resets once a step succeeds, so sporadic
  /// transient faults (bit flips, injected NaNs) are absorbed indefinitely
  /// while a genuinely diverged run — one that keeps failing straight after
  /// every rollback — still aborts promptly.
  std::size_t max_rollbacks = 3;
  /// Operational kill switch / step budget: stop cleanly (kStopped, with a
  /// final snapshot) after this many supervisor steps. 0 = unlimited.
  std::size_t max_steps = 0;
  /// Flush a final snapshot when stopping on StopToken/max_steps. Disable
  /// to simulate a hard kill (tests) — resume then replays from the last
  /// periodic snapshot.
  bool flush_on_stop = true;
  /// Install the SIGINT/SIGTERM handlers at run start (CLIs), once, on the
  /// thread that calls supervise(). The token is polled either way, so
  /// embedders can request_stop() programmatically.
  bool install_stop_token = false;
};

/// A training loop the supervisor can drive. One step() is the unit of
/// divergence detection and the snapshot granularity (a mini-batch for the
/// classifier trainer, an epoch for skip-gram).
class ResumableTraining {
 public:
  virtual ~ResumableTraining() = default;

  /// True when training has reached its natural end (all epochs done or an
  /// early-stop condition fired).
  virtual bool done() const = 0;

  /// Runs one unit of work and returns its (mean) loss. The supervisor
  /// checks the value for divergence; exceptions derived from
  /// std::runtime_error are treated as divergence too.
  virtual double step() = 0;

  /// True when the last step() ended a natural snapshot boundary (epoch
  /// end); the supervisor always snapshots there, after the averaging
  /// barrier.
  virtual bool at_boundary() const = 0;

  /// Serializes the complete loop state — everything the remaining steps
  /// consume — such that load_state() + the same step sequence reproduces
  /// an uninterrupted run bitwise.
  virtual void save_state(std::ostream& out) const = 0;
  virtual void load_state(std::istream& in) = 0;

  /// Called after a rollback restored the last good state. `lr_scale` is
  /// 0.5^attempt, where `attempt` counts consecutive failures of the
  /// current stretch (1..max_rollbacks): the loop sets its learning rate to
  /// base * lr_scale.
  virtual void on_rollback(double lr_scale) = 0;

  /// Called once when a step succeeds after one or more rollbacks: the
  /// divergence passed, so the loop may undo its backoff (restore the base
  /// learning rate).
  virtual void on_recover() {}
};

/// Generation-rotated, checksummed snapshot files: write() publishes to
/// <base>.ckpt.1 after shifting older generations up. Resume reads the
/// generations itself (newest first), validating the full restore.
class SnapshotRotation {
 public:
  explicit SnapshotRotation(std::string base_path);

  static std::string generation_path(const std::string& base,
                                     std::size_t generation);

  /// Rotates generations then atomically publishes `payload` (with CRC32 +
  /// version footer) as generation 1. Throws std::runtime_error on write
  /// failure (the previous generations stay intact).
  void write(const std::string& payload) const;

 private:
  std::string base_;
};

/// What the supervisor did. For one supervise() call the counters are sums
/// over its shards, `resumed` is true if any shard resumed, and `warnings`
/// collects every shard's (tagged "shard k: " when there are several) plus
/// run-level degradation notes. TrainReport and SkipGramReport extend it
/// with what their loops tracked.
struct SupervisorReport {
  /// kStopped if any shard stopped (run resumable), kError if every shard
  /// died, kSucceeded otherwise — dead shards degrade, they don't abort.
  TerminationReason termination = TerminationReason::kSucceeded;
  std::size_t steps = 0;
  std::size_t rollbacks = 0;  ///< each backs the learning rate off once
  std::size_t snapshots_written = 0;
  /// Snapshot publishes that failed (disk full, injected ckpt.write fault)
  /// even after RetryPolicy ran out of attempts: training continues —
  /// losing a snapshot must not lose the run.
  std::size_t snapshot_write_failures = 0;
  /// Extra publish attempts consumed by RetryPolicy before a snapshot
  /// landed (0 when every publish succeeded first try).
  std::size_t snapshot_write_retries = 0;
  bool resumed = false;
  int stop_signal = 0;  ///< signal that requested the stop (0 = none)
  std::vector<std::string> warnings;

  /// Per-shard reports, indexed by shard (their own `shards` are empty).
  std::vector<SupervisorReport> shards;
  /// Shards that exhausted their rollback budget and were dropped.
  std::vector<std::size_t> dead_shards;
  /// Shard whose parameters are the run's result: the successful shard
  /// with the most completed barriers (ties: lowest index). After a full
  /// run all shards in the final averaging cohort hold identical params.
  std::size_t result_shard = 0;
  /// Averaging barriers released (aligned epoch boundaries).
  std::size_t averaging_rounds = 0;
};

/// One loop handed to supervise(). The loop and the parameter views are
/// borrowed; the params must stay valid for the whole run and have the
/// same tensor layout across shards (same architecture).
struct ShardSpec {
  ResumableTraining* loop = nullptr;
  /// Parameter views averaged at epoch boundaries (typically
  /// TrainableClassifier::params() of the shard's model replica; may stay
  /// empty for a single shard, which averages nothing).
  std::vector<ParamRef> params;
  /// Per-shard resilience; give each of several shards its own
  /// snapshot_path (the trainer uses "<base>.shard<k>").
  ResilienceConfig resilience;
};

/// Drives K = shards.size() >= 1 loops to completion, each under its own
/// snapshot / divergence-rollback / resume machinery:
///
///   * At every epoch boundary all live shards meet at an averaging
///     barrier: the last arriver (or a departing shard that completes the
///     group) averages parameters element-wise over the arrived shards in
///     ascending shard order — a fixed reduction order, so results are
///     bitwise reproducible regardless of thread scheduling. Then each
///     shard commits its boundary snapshot.
///   * A shard whose rollbacks run out departs; the survivors keep training
///     and averaging among themselves. Only all shards dying is kError.
///   * Any stop (StopToken signal or a shard's max_steps budget) drains the
///     whole group: no further averaging is released, and every shard
///     flushes its own snapshot at its current position — mid-epoch, or
///     "arrived at the barrier, averaging pending" (that flag rides in the
///     snapshot header). Resume replays every shard to the same barrier.
///
/// K = 1 runs on the calling thread and spawns nothing; its barrier
/// releases at once. K > 1 runs each shard on a worker of its own pool.
SupervisorReport supervise(std::vector<ShardSpec> shards);

}  // namespace advtext

// advtextd core: a fault-tolerant attack-as-a-service daemon.
//
// The expensive part of every attack sweep is fixed per task — trained
// models, paraphrase index, WMD, language model. The daemon loads them
// once, listens on a local AF_UNIX socket, and multiplexes attack jobs
// from many clients onto a worker pool, so repeated sweeps (parameter
// scans, load tests, CI benches) stop paying the startup cost.
//
// Robustness invariants, in the order they matter:
//
//   * Admission control, not queueing: a job is either REJECTED with a
//     typed RejectReason (overload, spent client budget, unknown model,
//     malformed bytes, shutdown) before any work happens, or ACCEPTED —
//     and an accepted job is journaled to disk before the accept is even
//     acknowledged. The pending queue is bounded (max_pending_jobs);
//     overload sheds load instead of growing memory.
//   * Crash recovery: accepted ⇒ eventually completed. Each job writes the
//     standard atomic checkpoints while it runs; a SIGKILLed daemon, on
//     restart, finds every journaled job without a result artifact and
//     re-runs it — resuming from its checkpoint — to a bitwise-identical
//     result (the persisted result encoding excludes wall-clock timing).
//   * Fault isolation: a client can disconnect, stall, or send garbage and
//     only its own connection dies; transient I/O failures (including the
//     service.read / service.write / service.accept injection sites) are
//     absorbed by RetryPolicy with named stat counters; job outcomes fold
//     onto the TerminationReason severity lattice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/service/net.h"
#include "src/service/protocol.h"
#include "src/util/robust.h"
#include "src/util/sync.h"

namespace advtext {

/// One model the daemon serves, keyed by JobRequest::model. The classifier
/// must outlive the daemon and is shared read-only across workers (jobs
/// never mutate it).
struct ServedModel {
  std::string name;
  const TextClassifier* model = nullptr;
};

struct DaemonConfig {
  /// AF_UNIX socket path the daemon listens on (keep it short: the kernel
  /// caps sun_path at ~107 bytes).
  std::string socket_path;
  /// Directory for job journals, checkpoints, and result artifacts — the
  /// daemon's recoverable state. Created if missing (one level).
  std::string state_dir;
  /// Attack worker threads; each runs one job at a time.
  std::size_t workers = 2;
  /// Bounded pending-job queue: admissions beyond workers + this many
  /// queued jobs are rejected kOverload. The cap is what turns overload
  /// into typed rejections instead of unbounded memory growth.
  std::size_t max_pending_jobs = 4;
  /// Lifetime model-query budget per client name (0 = unlimited). A client
  /// whose ledger is spent gets kClientBudgetExhausted at admission.
  std::size_t per_client_max_queries = 0;
  /// Cap on a job's requested job_deadline_ms (0 = no cap). Requests above
  /// the cap — or with no deadline of their own — are clamped to it.
  double max_job_deadline_ms = 0.0;
  /// Checkpoint cadence while a job runs (AttackEvalConfig::checkpoint_every).
  std::size_t checkpoint_every = 4;
  /// Receive timeout for a connected client's request frame: a stalled
  /// client costs at most this long, then its connection dies.
  double read_timeout_ms = 2000.0;
  /// Exit the accept loop after admitting this many jobs (0 = serve until
  /// stopped). Tests and benches use it for a deterministic drain.
  std::size_t max_jobs = 0;
  /// Watchdog stall bound: a worker that is busy on a job but makes no
  /// observable progress (no committed doc, no queue-wait wake) for this
  /// long is reported stalled — the client gets a typed kDeadlineExceeded
  /// JobComplete within the stall bound plus one 50 ms watchdog poll, the
  /// daemon keeps serving, and the journaled job stays recoverable. 0
  /// disables the watchdog.
  double watchdog_stall_ms = 30000.0;
};

/// Operational counters, readable after serve()/recover() return.
struct DaemonStats {
  std::size_t jobs_accepted = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_recovered = 0;  ///< re-run by recover()
  /// Jobs whose sweep failed twice (fresh retry included): a kError result
  /// artifact is persisted so recovery does not loop on them.
  std::size_t jobs_errored = 0;
  std::size_t rejected_overload = 0;
  std::size_t rejected_budget = 0;
  std::size_t rejected_unknown_model = 0;
  std::size_t rejected_malformed = 0;
  /// Jobs shed at admission because the process MemoryBudget could not
  /// cover a job's reservation (typed RejectReason::kResource).
  std::size_t rejected_resource = 0;
  /// Stall episodes the watchdog settled: the client got a typed
  /// kDeadlineExceeded JobComplete while the worker stayed stuck. The job's
  /// journal stays, so a restart re-runs it.
  std::size_t jobs_stalled = 0;
  std::size_t accept_failures = 0;       ///< accept() throws absorbed
  std::size_t stream_write_failures = 0; ///< per-doc frames a client missed
  std::size_t io_retries = 0;            ///< RetryPolicy attempts absorbed
  /// Severity fold (worse_of) over every finished job's termination.
  TerminationReason worst_job = TerminationReason::kSucceeded;
  /// The newest kMaxWarnings warnings, oldest first.
  std::vector<std::string> warnings;
  /// Warnings dropped from the front of `warnings` to keep it bounded.
  std::size_t warnings_dropped = 0;

  /// A peer that keeps failing connections must not grow a long-lived
  /// daemon's memory, so only this many warnings are kept.
  static constexpr std::size_t kMaxWarnings = 64;

  /// Appends a warning, dropping (and counting) the oldest past
  /// kMaxWarnings.
  void warn(std::string message);
};

/// The daemon. Single-owner lifecycle: construct, optionally recover(),
/// then serve() once; stats() afterwards.
class AttackDaemon {
 public:
  AttackDaemon(const SynthTask& task, const TaskAttackContext& context,
               std::vector<ServedModel> models, const DaemonConfig& config);

  /// Replays the journal directory: every accepted job without a result
  /// artifact is re-run (ascending job id, synchronously, resuming its
  /// checkpoint) to the result the original run would have produced.
  /// Returns the number of jobs re-run. Call before serve().
  std::size_t recover();

  /// Accept loop: admits jobs until StopToken fires or max_jobs is
  /// reached, drains the queue, joins the workers. Returns kStopped on a
  /// signalled stop (journaled in-flight jobs stay resumable), kSucceeded
  /// on a natural max_jobs drain.
  TerminationReason serve();

  /// Snapshot of the counters (copied under the lock, so it is safe to
  /// call while serve() is still running on other threads).
  DaemonStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  struct PendingJob {
    std::uint64_t id = 0;
    JobRequest request;
    Deadline deadline;  ///< admission-time job deadline (wall-clock)
    /// Client connection for streamed results; null for recovered jobs
    /// (their client is long gone) or when the accept ack failed.
    std::unique_ptr<Connection> conn;
    /// MemoryBudget reservation made at admission; travels with the job and
    /// releases when the job object dies. Recovered jobs run unreserved
    /// (recovery is serial and must always make progress).
    MemoryReservation memory;
  };

  /// A job currently running on a worker, registered so the watchdog's
  /// stall handler can settle its client with a typed JobComplete while the
  /// worker itself stays stuck. Every touch of the client connection after
  /// the job starts — streamed frames, the terminal JobComplete, a stall
  /// settlement — serializes on `mu`, and `settled` guarantees the client
  /// sees exactly one terminal frame.
  struct ActiveJob {
    std::uint64_t id = 0;
    Mutex mu;
    Connection* conn ADVTEXT_GUARDED_BY(mu) = nullptr;
    bool settled ADVTEXT_GUARDED_BY(mu) = false;
  };

  std::string job_path(std::uint64_t id, const char* suffix) const;
  const TextClassifier* find_model(const std::string& name) const;

  /// Worker thread body: pop accepted jobs until the queue drains at
  /// shutdown (or a stop request abandons it to recovery).
  void worker_loop();

  /// One client conversation on the accept thread: read the request frame,
  /// admit or reject, journal + ack, enqueue. All protocol and transport
  /// errors are absorbed here (the connection dies, the daemon lives).
  void handle_connection(Connection conn);

  /// Runs one accepted job on a worker: sweep with checkpointing, stream
  /// DocResult frames, persist the result artifact, settle the client
  /// ledger, send JobComplete. Never throws.
  void run_job(PendingJob job);

  void record_io_retries(const Outcome<std::size_t>& outcome)
      ADVTEXT_REQUIRES(mu_);

  /// Watchdog stall handler (monitor thread): records the stall and — if
  /// the stuck worker's job still has a live, unsettled client — sends a
  /// typed kDeadlineExceeded JobComplete so the client is released within
  /// the watchdog bound. Deliberately does NOT persist a result artifact:
  /// the journal stays, so recovery re-runs the job to its true result.
  void on_worker_stall(const Heartbeat* heart, const std::string& tag,
                       double stalled_ms);

  const SynthTask& task_;
  const TaskAttackContext& context_;
  std::map<std::string, const TextClassifier*> models_;
  DaemonConfig config_;
  /// Default-configured retries for the daemon's own transient I/O: job
  /// journals, result artifacts, and streamed result frames.
  RetryPolicy retry_;

  mutable Mutex mu_;
  CondVar queue_cv_;
  std::deque<PendingJob> queue_ ADVTEXT_GUARDED_BY(mu_);
  bool closing_ ADVTEXT_GUARDED_BY(mu_) = false;
  std::uint64_t next_job_id_ ADVTEXT_GUARDED_BY(mu_) = 1;
  /// Lifetime query ledgers keyed by client name. std::map: deterministic
  /// iteration order (matches the repo's no-unordered-iteration rule).
  std::map<std::string, std::unique_ptr<QueryBudget>> client_budgets_
      ADVTEXT_GUARDED_BY(mu_);
  /// Jobs currently running, keyed by the pool heartbeat of the worker
  /// running them — the key the watchdog's stall report hands back.
  std::map<const Heartbeat*, std::shared_ptr<ActiveJob>> active_jobs_
      ADVTEXT_GUARDED_BY(mu_);
  DaemonStats stats_ ADVTEXT_GUARDED_BY(mu_);
};

}  // namespace advtext

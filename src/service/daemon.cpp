#include "src/service/daemon.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/util/check.h"
#include "src/util/io_file.h"
#include "src/util/serialize.h"
#include "src/util/stop_token.h"

namespace advtext {

namespace {

constexpr const char* kJournalTag = "advtextd-job";
constexpr const char* kResultTag = "advtextd-result";

/// Consecutive missing job ids tolerated while scanning the journal
/// directory: a failed journal write may leave a hole in the id sequence,
/// and recovery must not orphan every job behind it.
constexpr std::uint64_t kRecoveryScanSlack = 16;

/// Accept-poll granularity: how often the accept loop re-checks its stop
/// conditions when idle.
constexpr double kAcceptTimeoutMs = 50.0;

/// Watchdog poll cadence (detection slack on top of the stall bound).
constexpr double kWatchdogPollMs = 50.0;

/// MemoryBudget bytes reserved per admitted job (stream frames, record
/// buffer, checkpoint payload). When the process budget cannot cover it the
/// job is shed with a typed RejectReason::kResource — overload shedding for
/// memory instead of an OOM abort.
constexpr std::size_t kJobMemoryBytes = std::size_t{1} << 20;

WordAttackMethod decode_method(std::uint64_t method) {
  switch (method) {
    case 1:
      return WordAttackMethod::kObjectiveGreedy;
    case 2:
      return WordAttackMethod::kGradient;
    default:
      return WordAttackMethod::kGradientGuidedGreedy;
  }
}

/// The job-wide wall clock granted at admission (and re-granted, fresh, to
/// recovered jobs: a Deadline is a live admission construct on the
/// monotonic clock, not replayable state — the *results* stay bitwise
/// deterministic regardless, because timing never enters them).
Deadline admission_deadline(const JobRequest& request,
                            const DaemonConfig& config) {
  double ms = request.job_deadline_ms;
  if (config.max_job_deadline_ms > 0.0 &&
      (ms <= 0.0 || ms > config.max_job_deadline_ms)) {
    ms = config.max_job_deadline_ms;
  }
  return ms > 0.0 ? Deadline::after_ms(ms) : Deadline::unlimited();
}

/// Best-effort frame send: the peer may be gone; that is its problem, not
/// the daemon's. Returns false when the write failed.
bool try_write_frame(Connection& conn, const std::string& payload) {
  if (!conn.valid()) return false;
  try {
    conn.write_frame(payload);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

/// A result file is a done-marker only if it is a complete, checksummed
/// result artifact. Presence alone is not enough: a torn write can leave a
/// partial file at the final path, which load_artifact refuses.
bool result_artifact_valid(const std::string& path) {
  try {
    std::istringstream in(io::load_artifact(path));
    io::read_magic(in);
    return io::read_string(in) == kResultTag;
  } catch (const std::runtime_error&) {
    return false;
  }
}

std::string encode_result_artifact(std::uint64_t job_id,
                                   const JobComplete& summary,
                                   const std::string& record_bytes,
                                   std::uint64_t record_count) {
  std::ostringstream out;
  io::write_magic(out);
  io::write_string(out, kResultTag);
  io::write_u64(out, job_id);
  io::write_u64(out, static_cast<std::uint64_t>(summary.termination));
  io::write_u64(out, summary.docs_evaluated);
  io::write_u64(out, summary.docs_attacked);
  io::write_u64(out, summary.docs_failed);
  io::write_u64(out, summary.sweep_queries_used);
  io::write_double(out, summary.success_rate);
  io::write_double(out, summary.adversarial_accuracy);
  io::write_u64(out, record_count);
  out << record_bytes;
  return out.str();
}

}  // namespace

void DaemonStats::warn(std::string message) {
  if (warnings.size() == kMaxWarnings) {
    warnings.erase(warnings.begin());
    ++warnings_dropped;
  }
  warnings.push_back(std::move(message));
}

AttackDaemon::AttackDaemon(const SynthTask& task,
                           const TaskAttackContext& context,
                           std::vector<ServedModel> models,
                           const DaemonConfig& config)
    : task_(task), context_(context), config_(config) {
  ADVTEXT_CHECK(!config_.state_dir.empty())
      << "AttackDaemon needs a state_dir (its recoverable state lives there)";
  ADVTEXT_CHECK(config_.workers >= 1) << "AttackDaemon needs >= 1 worker";
  ADVTEXT_CHECK(!models.empty()) << "AttackDaemon needs a served model";
  for (ServedModel& served : models) {
    ADVTEXT_CHECK(served.model != nullptr)
        << "AttackDaemon: served model '" << served.name << "' is null";
    const bool inserted =
        models_.emplace(served.name, served.model).second;
    ADVTEXT_CHECK(inserted)
        << "AttackDaemon: duplicate served model name '" << served.name
        << "'";
  }
  if (::mkdir(config_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("advtextd: cannot create state dir '" +
                             config_.state_dir +
                             "': " + std::strerror(errno));
  }
}

std::string AttackDaemon::job_path(std::uint64_t id,
                                   const char* suffix) const {
  return config_.state_dir + "/job" + std::to_string(id) + suffix;
}

const TextClassifier* AttackDaemon::find_model(
    const std::string& name) const {
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

void AttackDaemon::record_io_retries(const Outcome<std::size_t>& outcome) {
  if (outcome.ok() && outcome.value() > 1) {
    stats_.io_retries += outcome.value() - 1;
  }
}

void AttackDaemon::handle_connection(Connection conn) {
  try {
    conn.set_read_timeout_ms(config_.read_timeout_ms);
    std::string payload;
    if (!conn.read_frame(payload)) return;  // connected, then left cleanly
    const JobRequest request = decode_job_request(payload);

    // Admission control under the lock: the job is typed-rejected here or
    // owns a journaled id beyond here — never silently queued unbounded.
    std::uint64_t id = 0;
    bool rejected = false;
    JobRejected rejection;
    MemoryReservation memory;
    {
      MutexLock lock(mu_);
      if (closing_) {
        rejected = true;
        rejection = {RejectReason::kShuttingDown, "daemon is draining"};
      } else if (find_model(request.model) == nullptr) {
        rejected = true;
        ++stats_.rejected_unknown_model;
        rejection = {RejectReason::kUnknownModel,
                     "no served model named '" + request.model + "'"};
      } else if (queue_.size() >= config_.max_pending_jobs) {
        rejected = true;
        ++stats_.rejected_overload;
        rejection = {RejectReason::kOverload,
                     "pending queue is full (" +
                         std::to_string(config_.max_pending_jobs) +
                         " jobs); retry later"};
      } else {
        if (config_.per_client_max_queries > 0) {
          auto& slot = client_budgets_[request.client];
          if (slot == nullptr) {
            slot = std::make_unique<QueryBudget>(
                config_.per_client_max_queries);
          }
          if (slot->exhausted()) {
            rejected = true;
            ++stats_.rejected_budget;
            rejection = {RejectReason::kClientBudgetExhausted,
                         "client '" + request.client +
                             "' has spent its query budget"};
          }
        }
        if (!rejected) {
          // Resource governance: a job that cannot reserve its working
          // memory is shed with a typed rejection — memory pressure behaves
          // like overload, never like an OOM abort.
          memory = MemoryReservation::try_acquire(kJobMemoryBytes);
          if (!memory.ok()) {
            rejected = true;
            ++stats_.rejected_resource;
            rejection = {RejectReason::kResource,
                         "process memory budget exhausted; retry later"};
          }
        }
        if (!rejected) {
          id = next_job_id_++;
          ++stats_.jobs_accepted;
        }
      }
    }
    if (rejected) {
      (void)try_write_frame(conn, encode_job_rejected(rejection));
      return;
    }

    // Journal before acknowledging: "accepted" must mean "survives a
    // SIGKILL". The journal is the request verbatim, so recovery re-runs
    // exactly what was admitted.
    std::ostringstream journal;
    io::write_magic(journal);
    io::write_string(journal, kJournalTag);
    io::write_u64(journal, id);
    io::write_string(journal, encode_job_request(request));
    const std::string journal_path = job_path(id, ".job");
    const Outcome<std::size_t> saved = retry_.run(
        "job journal write",
        [&] { io::save_artifact(journal_path, journal.str()); });
    {
      MutexLock lock(mu_);
      record_io_retries(saved);
      if (!saved.ok()) {
        // Unjournaled means unaccepted: give the id back statistically
        // (the id hole itself is fine — recovery scans past holes).
        --stats_.jobs_accepted;
        stats_.warn("job-journal-failed: " + saved.failure().message);
      }
    }
    if (!saved.ok()) {
      // Drop any torn fragment the failed write left at the final path:
      // "unjournaled means unaccepted", and recovery must not conjure a
      // kError result for an id the client was told is not accepted.
      (void)remove_file(journal_path);
      (void)try_write_frame(
          conn, encode_job_rejected(
                    {RejectReason::kInternal,
                     "could not journal the job; not accepted"}));
      return;
    }

    // Ack, then enqueue. A failed ack does NOT cancel the job — it is
    // journaled, and journaled jobs always complete; the client just will
    // not see the stream.
    const bool acked =
        try_write_frame(conn, encode_job_accepted(JobAccepted{id}));
    PendingJob job;
    job.id = id;
    job.request = request;
    job.deadline = admission_deadline(request, config_);
    job.memory = std::move(memory);
    if (acked) job.conn = std::make_unique<Connection>(std::move(conn));
    {
      MutexLock lock(mu_);
      queue_.push_back(std::move(job));
      queue_cv_.notify_one();
    }
  } catch (const ProtocolError& error) {
    // Bad bytes kill the conversation, never the daemon. Typed reply is
    // best-effort: the peer may already be gone.
    {
      MutexLock lock(mu_);
      ++stats_.rejected_malformed;
    }
    if (conn.valid()) {
      (void)try_write_frame(
          conn,
          encode_job_rejected({RejectReason::kMalformed, error.what()}));
    }
    // ADVTEXT_ALLOW(severity-drop): connection-scope failure — no job exists yet, so there is no job severity to fold; the drop is counted in accept_failures and warned
  } catch (const std::runtime_error& error) {
    // Transport-level failure (vanished peer, injected service.read /
    // service.write fault): drop the connection, count it, keep serving.
    MutexLock lock(mu_);
    ++stats_.accept_failures;
    stats_.warn(std::string("connection-failed: ") + error.what());
  }
}

void AttackDaemon::worker_loop() {
  Heartbeat* const heart = ThreadPool::current();
  while (true) {
    PendingJob job;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !closing_) {
        (void)queue_cv_.wait_for_ms(mu_, 100);
        // Waiting for work is liveness, not a stall: each wait slice beats
        // so the watchdog only fires on jobs that stop making progress.
        if (heart != nullptr) heart->beat();
      }
      if (StopToken::instance().stop_requested()) {
        // Abandon the queue: every queued job is journaled and will be
        // re-run by recover() on the next start.
        break;
      }
      if (queue_.empty()) break;  // closing_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      run_job(std::move(job));
    } catch (const std::runtime_error& error) {
      // run_job absorbs its own failures; anything surfacing here is
      // unexpected but must not take the worker (and the pool) down.
      MutexLock lock(mu_);
      ++stats_.jobs_errored;
      stats_.worst_job = worse_of(stats_.worst_job, TerminationReason::kError);
      stats_.warn(std::string("job-failed: ") + error.what());
    }
  }
}

void AttackDaemon::run_job(PendingJob job) {
  // Register with the watchdog: while this job runs, a stall report on this
  // worker's heartbeat maps back to the job, and every client-connection
  // write serializes through `active` so the stall handler and the worker
  // never race on the socket.
  Heartbeat* const heart = ThreadPool::current();
  auto active = std::make_shared<ActiveJob>();
  active->id = job.id;
  {
    MutexLock conn_lock(active->mu);
    active->conn = job.conn.get();
  }
  if (heart != nullptr) {
    heart->set_tag("job" + std::to_string(job.id));
    heart->beat();
    MutexLock lock(mu_);
    active_jobs_[heart] = active;
  }
  // Deregister on every exit path; past this, the stall handler can no
  // longer reach the (about to die) connection.
  struct Deregister {
    AttackDaemon* daemon;
    Heartbeat* heart;
    std::shared_ptr<ActiveJob> active;
    ~Deregister() {
      {
        MutexLock conn_lock(active->mu);
        active->conn = nullptr;
      }
      if (heart != nullptr) {
        MutexLock lock(daemon->mu_);
        daemon->active_jobs_.erase(heart);
      }
    }
  } deregister{this, heart, active};

  // Exactly-one-terminal-frame send: suppressed if the watchdog already
  // settled this client with a typed kDeadlineExceeded.
  const auto send_terminal = [&](const JobComplete& summary) {
    MutexLock conn_lock(active->mu);
    if (active->settled || active->conn == nullptr) return;
    active->settled = true;
    (void)try_write_frame(*active->conn, encode_job_complete(summary));
  };

  const TextClassifier* model = find_model(job.request.model);
  if (model == nullptr) {
    // Only reachable for recovered jobs whose model set changed across the
    // restart. Persist a kError result so recovery does not loop on it.
    JobComplete summary;
    summary.job_id = job.id;
    summary.termination = TerminationReason::kError;
    const std::string artifact =
        encode_result_artifact(job.id, summary, std::string(), 0);
    const Outcome<std::size_t> saved = retry_.run(
        "result write",
        [&] { io::save_artifact(job_path(job.id, ".result"), artifact); });
    MutexLock lock(mu_);
    record_io_retries(saved);
    ++stats_.jobs_errored;
    stats_.worst_job = worse_of(stats_.worst_job, TerminationReason::kError);
    stats_.warn(
        "job " + std::to_string(job.id) + " names unknown model '" +
        job.request.model + "' after recovery; recorded as kError");
    return;
  }

  // Per-client ledger: the pointer is stable (map slots are unique_ptrs and
  // never erased); remaining() is read once so the job's sweep cap is fixed
  // at start.
  QueryBudget* ledger = nullptr;
  std::size_t client_remaining = 0;
  if (config_.per_client_max_queries > 0) {
    MutexLock lock(mu_);
    auto& slot = client_budgets_[job.request.client];
    if (slot == nullptr) {
      slot = std::make_unique<QueryBudget>(config_.per_client_max_queries);
    }
    ledger = slot.get();
    client_remaining = ledger->remaining();
  }

  AttackEvalConfig eval;
  eval.joint.sentence_fraction = job.request.sentence_fraction;
  eval.joint.word_fraction = job.request.word_fraction;
  eval.joint.deadline_ms = job.request.deadline_ms;
  eval.joint.max_queries = static_cast<std::size_t>(job.request.max_queries);
  eval.joint.word_method = decode_method(job.request.method);
  eval.max_docs = static_cast<std::size_t>(job.request.max_docs);
  eval.checkpoint_path = job_path(job.id, ".ckpt");
  eval.checkpoint_every = config_.checkpoint_every;
  eval.resume = file_exists(eval.checkpoint_path);
  eval.threads = 1;  // one worker per job; jobs are the parallelism unit
  eval.sweep_deadline = job.deadline;
  std::size_t sweep_cap = static_cast<std::size_t>(job.request.job_max_queries);
  if (ledger != nullptr) {
    // Admission already vetoed an exhausted ledger, but concurrent jobs of
    // the same client may have drained it since; a zero grant must read as
    // "stop almost immediately", not "unlimited".
    const std::size_t grant = client_remaining == 0 ? 1 : client_remaining;
    sweep_cap = sweep_cap == 0 ? grant : (sweep_cap < grant ? sweep_cap : grant);
  }
  eval.sweep_max_queries = sweep_cap;

  // Stream each committed record to the client AND into the result-artifact
  // byte stream. Both use the wire encoding (timing excluded), so the
  // artifact is bitwise-deterministic and the client stream mirrors it.
  std::ostringstream record_bytes;
  std::uint64_t record_count = 0;
  bool client_gone = (job.conn == nullptr);
  eval.on_commit = [&](const DocRecord& record) {
    // Each committed doc is observable progress for the watchdog.
    if (heart != nullptr) heart->beat();
    write_record(record_bytes, record);
    ++record_count;
    if (client_gone) return;
    MutexLock conn_lock(active->mu);
    if (active->settled || active->conn == nullptr) {
      // The watchdog already settled this client with a typed terminal
      // frame; results keep persisting to disk only.
      client_gone = true;
      return;
    }
    Connection* conn = active->conn;
    const std::string frame = encode_doc_result(record);
    const Outcome<std::size_t> sent =
        retry_.run("doc result stream", [&] { conn->write_frame(frame); });
    MutexLock lock(mu_);
    record_io_retries(sent);
    if (!sent.ok()) {
      // The job outlives its client: results still persist to disk.
      client_gone = true;
      ++stats_.stream_write_failures;
    }
  };

  AttackEvalResult result;
  bool ran = false;
  std::string sweep_error;
  for (int attempt = 0; attempt < 2 && !ran; ++attempt) {
    try {
      result = evaluate_attack(*model, task_, context_, eval);
      ran = true;
      // ADVTEXT_ALLOW(severity-drop): first-strike retry — the second strike persists a kError JobComplete just below (!ran path), so a repeated failure does reach the severity lattice
    } catch (const std::runtime_error& error) {
      // A throwing sweep at this level means an unreadable/corrupt
      // checkpoint (per-doc failures are isolated inside the sweep). Drop
      // the checkpoint and retry once from scratch; replayed records from
      // the aborted first try are discarded.
      sweep_error = error.what();
      remove_file(eval.checkpoint_path);
      eval.resume = false;
      record_bytes.str(std::string());
      record_count = 0;
    }
  }
  if (!ran) {
    // Two strikes: persist a kError result so the job is terminally
    // recorded (recovery must not re-run it forever).
    JobComplete summary;
    summary.job_id = job.id;
    summary.termination = TerminationReason::kError;
    const std::string artifact =
        encode_result_artifact(job.id, summary, std::string(), 0);
    const Outcome<std::size_t> saved = retry_.run(
        "result write",
        [&] { io::save_artifact(job_path(job.id, ".result"), artifact); });
    if (!saved.ok()) (void)remove_file(job_path(job.id, ".result"));
    if (!client_gone) send_terminal(summary);
    MutexLock lock(mu_);
    record_io_retries(saved);
    ++stats_.jobs_errored;
    stats_.worst_job = worse_of(stats_.worst_job, TerminationReason::kError);
    stats_.warn("job " + std::to_string(job.id) + " failed twice: " +
                sweep_error);
    return;
  }

  JobComplete summary;
  summary.job_id = job.id;
  summary.termination = result.termination;
  summary.docs_evaluated = result.docs_evaluated;
  summary.docs_attacked = result.docs_attacked;
  summary.docs_failed = result.docs_failed;
  summary.sweep_queries_used = result.sweep_queries_used;
  summary.success_rate = result.success_rate;
  summary.adversarial_accuracy = result.adversarial_accuracy;

  if (result.termination == TerminationReason::kStopped) {
    // Interrupted, not finished: keep the journal and checkpoint so the
    // next start resumes the job; tell the client what happened.
    if (!client_gone) send_terminal(summary);
    MutexLock lock(mu_);
    stats_.worst_job =
        worse_of(stats_.worst_job, TerminationReason::kStopped);
    return;
  }

  // Done: persist the result artifact (the done-marker recovery checks),
  // settle the client's ledger, release the checkpoint, ack the client.
  const std::string artifact = encode_result_artifact(
      job.id, summary, record_bytes.str(), record_count);
  const Outcome<std::size_t> saved = retry_.run(
      "result write",
      [&] { io::save_artifact(job_path(job.id, ".result"), artifact); });
  if (saved.ok()) {
    remove_file(eval.checkpoint_path);
  }
  if (ledger != nullptr) {
    // Post-hoc clamped settlement, same idiom as the sweep budget itself.
    (void)ledger->charge_up_to(result.sweep_queries_used);
  }
  if (!client_gone) send_terminal(summary);
  MutexLock lock(mu_);
  record_io_retries(saved);
  if (!saved.ok()) {
    // The client got its answer but the done-marker did not land: drop any
    // torn fragment and leave journal + checkpoint so recovery re-runs
    // (deterministically) rather than lose the job.
    (void)remove_file(job_path(job.id, ".result"));
    stats_.warn("result-write-failed for job " + std::to_string(job.id) +
                ": " + saved.failure().message);
  }
  ++stats_.jobs_completed;
  stats_.worst_job = worse_of(stats_.worst_job, result.termination);
}

void AttackDaemon::on_worker_stall(const Heartbeat* heart,
                                   const std::string& tag,
                                   double stalled_ms) {
  std::shared_ptr<ActiveJob> active;
  {
    MutexLock lock(mu_);
    ++stats_.jobs_stalled;
    stats_.worst_job =
        worse_of(stats_.worst_job, TerminationReason::kDeadlineExceeded);
    stats_.warn(
        "watchdog-stall: '" + tag + "' made no progress for " +
        std::to_string(static_cast<long>(stalled_ms)) + " ms");
    const auto it = active_jobs_.find(heart);
    if (it != active_jobs_.end()) active = it->second;
  }
  if (active == nullptr) return;
  // Best-effort settlement. If the stuck worker is wedged INSIDE a client
  // write (it holds active->mu), skip: the stall is already counted, and
  // blocking the monitor thread here would un-watch every other worker.
  if (!active->mu.try_lock()) return;
  if (!active->settled && active->conn != nullptr) {
    active->settled = true;
    JobComplete summary;
    summary.job_id = active->id;
    summary.termination = TerminationReason::kDeadlineExceeded;
    (void)try_write_frame(*active->conn, encode_job_complete(summary));
  }
  active->mu.unlock();
}

std::size_t AttackDaemon::recover() {
  // Scan the journal directory by id. Holes (failed journal writes) are
  // tolerated up to kRecoveryScanSlack consecutive misses.
  std::vector<std::uint64_t> todo;
  std::uint64_t last_seen = 0;
  std::uint64_t miss_streak = 0;
  for (std::uint64_t id = 1; miss_streak < kRecoveryScanSlack; ++id) {
    // A shutdown request during a long journal scan must win immediately;
    // anything not yet scanned is still journaled and recovers next start.
    if (StopToken::instance().stop_requested()) break;
    if (!file_exists(job_path(id, ".job"))) {
      ++miss_streak;
      continue;
    }
    miss_streak = 0;
    last_seen = id;
    // Validate the done-marker, not just its existence: partial/corrupt
    // results re-run (idempotent — the re-run's save overwrites them with
    // the bitwise-identical true result).
    if (!file_exists(job_path(id, ".result")) ||
        !result_artifact_valid(job_path(id, ".result"))) {
      todo.push_back(id);
    }
  }
  {
    MutexLock lock(mu_);
    if (next_job_id_ <= last_seen) next_job_id_ = last_seen + 1;
  }

  std::size_t recovered = 0;
  for (const std::uint64_t id : todo) {
    JobRequest request;
    try {
      std::istringstream in(io::load_artifact(job_path(id, ".job")));
      io::read_magic(in);
      if (io::read_string(in) != kJournalTag) {
        throw std::runtime_error("not an advtextd job journal");
      }
      const std::uint64_t journaled_id = io::read_u64(in);
      if (journaled_id != id) {
        throw std::runtime_error("journal id does not match its filename");
      }
      request = decode_job_request(io::read_string(in));
    } catch (const std::runtime_error& error) {
      // Unreadable journal: the request is gone, so the job cannot be
      // re-run. Record a terminal kError result (otherwise every future
      // recovery rescans it) and say so loudly.
      JobComplete summary;
      summary.job_id = id;
      summary.termination = TerminationReason::kError;
      const std::string artifact =
          encode_result_artifact(id, summary, std::string(), 0);
      const Outcome<std::size_t> saved = retry_.run(
          "result write",
          [&] { io::save_artifact(job_path(id, ".result"), artifact); });
      MutexLock lock(mu_);
      record_io_retries(saved);
      ++stats_.jobs_errored;
      stats_.worst_job =
          worse_of(stats_.worst_job, TerminationReason::kError);
      stats_.warn("job " + std::to_string(id) + " journal unreadable: " +
                  error.what());
      continue;
    }
    // Re-run synchronously, ascending id: deterministic order, and the
    // checkpoint (if any) resumes the interrupted sweep bitwise.
    PendingJob job;
    job.id = id;
    job.request = request;
    job.deadline = admission_deadline(request, config_);
    run_job(std::move(job));
    ++recovered;
    MutexLock lock(mu_);
    ++stats_.jobs_recovered;
  }
  return recovered;
}

TerminationReason AttackDaemon::serve() {
  ADVTEXT_CHECK(!config_.socket_path.empty())
      << "AttackDaemon::serve needs a socket_path";
  ServerSocket server(config_.socket_path);
  bool stopped = false;
  {
    ThreadPool pool(config_.workers);
    // The watchdog watches the pool's heartbeats and must die before the
    // pool does (declaration order gives reverse destruction). Its handler
    // settles the stuck job's client with a typed terminal frame; the job's
    // journal stays, so a restart still re-runs it to the true result.
    const std::vector<const Heartbeat*> hearts = pool.heartbeats();
    std::optional<Watchdog> watchdog;
    if (config_.watchdog_stall_ms > 0.0) {
      Watchdog::Config wd;
      wd.stall_ms = config_.watchdog_stall_ms;
      wd.poll_ms = kWatchdogPollMs;
      watchdog.emplace(hearts, wd,
                       [this, hearts](std::size_t index,
                                      const std::string& tag,
                                      double stalled_ms) {
                         on_worker_stall(hearts[index], tag, stalled_ms);
                       });
    }
    for (std::size_t w = 0; w < config_.workers; ++w) {
      // A fresh pool never rejects; the return only matters at shutdown.
      (void)pool.submit([this] { worker_loop(); });
    }
    while (true) {
      if (StopToken::instance().stop_requested()) {
        stopped = true;
        break;
      }
      {
        MutexLock lock(mu_);
        if (config_.max_jobs != 0 &&
            stats_.jobs_accepted >= config_.max_jobs) {
          break;
        }
      }
      std::optional<Connection> conn;
      try {
        conn = server.accept(kAcceptTimeoutMs);
        // ADVTEXT_ALLOW(severity-drop): accept-loop failure — no job exists, so no severity to fold; counted in accept_failures and the daemon keeps listening by design
      } catch (const std::runtime_error&) {
        // Includes injected service.accept faults: count, keep listening.
        MutexLock lock(mu_);
        ++stats_.accept_failures;
        continue;
      }
      if (!conn.has_value()) continue;
      handle_connection(std::move(*conn));
    }
    {
      MutexLock lock(mu_);
      closing_ = true;
      queue_cv_.notify_all();
    }
    pool.wait_idle();
  }  // joins the workers
  return stopped ? TerminationReason::kStopped
                 : TerminationReason::kSucceeded;
}

}  // namespace advtext

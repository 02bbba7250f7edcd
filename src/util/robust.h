// Robustness layer: deadlines, query budgets, typed failure outcomes and a
// deterministic fault-injection harness.
//
// The paper's headline claim is wall-clock efficiency (Tables 2/4 report
// per-document attack time and query counts), so every long-running path in
// advtext must be *bounded* and *interruptible*: a single slow or throwing
// document must never kill a table run. This header provides the shared
// vocabulary:
//
//   * Deadline      — absolute monotonic wall-clock limit, checked at every
//                     greedy step (the production "deadline propagation"
//                     pattern: one Deadline is created per document and
//                     passed down through both attack phases and the WMD
//                     transport solves).
//   * QueryBudget   — bound on classifier forward evaluations, the
//                     budgeted-greedy framing of Mirzasoleiman et al.;
//                     shared across the sentence and word phases of Alg. 1.
//   * TerminationReason / Failure / Outcome<T>
//                   — why a bounded computation stopped, and a typed
//                     value-or-failure result for isolation boundaries.
//   * FaultInjector — singleton with named injection points that can
//                     probabilistically throw, delay, or NaN-poison,
//                     seeded through advtext::rng so failure schedules are
//                     reproducible. Drives tests/robustness_test.cpp and
//                     the CI fault-injection leg (ADVTEXT_INJECT=all:0.05).
//
// Timing policy (enforced by tools/lint.py rule `raw-clock`): no src/ file
// outside util/ reads std::chrono clocks directly; all timing flows through
// Stopwatch and Deadline so fault injection and determinism stay possible.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/sync.h"

namespace advtext {

/// Why a bounded computation returned. Ordered by severity: larger values
/// are worse, so callers can aggregate with worse_of() and assert
/// "kDeadlineExceeded or better".
enum class TerminationReason : int {
  kSucceeded = 0,           ///< reached its goal (e.g. τ crossed)
  kExhaustedCandidates = 1, ///< natural stop: no improving move left
  kBudgetExhausted = 2,     ///< query budget hit; best-so-far returned
  kDeadlineExceeded = 3,    ///< wall-clock deadline hit; best-so-far returned
  kStopped = 4,             ///< cooperative shutdown (StopToken / step cap);
                            ///< state flushed, work resumable
  kError = 5,               ///< exception / injected fault; work isolated
};

/// Severity-max aggregation over phases.
inline TerminationReason worse_of(TerminationReason a, TerminationReason b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// Stable short name ("succeeded", "deadline_exceeded", ...).
const char* to_string(TerminationReason reason);

/// Absolute wall-clock limit on the monotonic clock. Value type: copy it
/// freely down a call chain ("deadline propagation"); every copy refers to
/// the same absolute instant. A default-constructed Deadline never expires.
class Deadline {
 public:
  /// Unlimited (never expires).
  Deadline() : unlimited_(true), when_() {}

  /// Expires `ms` milliseconds from now. Non-positive values are already
  /// expired (useful in tests).
  static Deadline after_ms(double ms);

  /// Never expires.
  static Deadline unlimited() { return Deadline(); }

  bool is_unlimited() const { return unlimited_; }

  /// True once the monotonic clock passes the limit. O(1); cheap enough to
  /// call once per candidate evaluation (a clock read against a model
  /// forward pass).
  bool expired() const {
    return !unlimited_ && std::chrono::steady_clock::now() >= when_;
  }

  /// Milliseconds until expiry (+inf when unlimited, <= 0 when expired).
  double remaining_ms() const;

 private:
  bool unlimited_;
  std::chrono::steady_clock::time_point when_;
};

/// Bound on model forward evaluations (the query-count metric the paper
/// reports). Shared across attack phases: joint_attack owns one and both
/// phases charge it. A limit of 0 means unlimited.
///
/// Thread-safe by construction: the usage counter is a per-instance atomic,
/// so one budget may be shared as a cap across parallel attack workers
/// (evaluate_attack's sweep budget). Charging is clamped, so the accounted
/// total never exceeds the limit. Not copyable (atomics pin the identity: a
/// copy would silently fork the pool).
class QueryBudget {
 public:
  explicit QueryBudget(std::size_t limit = 0) : limit_(limit) {}

  QueryBudget(const QueryBudget&) = delete;
  QueryBudget& operator=(const QueryBudget&) = delete;

  /// Atomically charges min(n, remaining()) and returns the amount actually
  /// charged, so concurrent chargers can never push the accounted total past
  /// the limit. Unlimited budgets charge and return n. [[nodiscard]]: a
  /// caller that ignores the grant cannot know how much work it is allowed
  /// to account.
  [[nodiscard]] std::size_t charge_up_to(std::size_t n) {
    if (limit_ == 0) {
      used_.fetch_add(n, std::memory_order_relaxed);
      return n;
    }
    std::size_t current = used_.load(std::memory_order_relaxed);
    while (true) {
      if (current >= limit_) return 0;
      const std::size_t room = limit_ - current;
      const std::size_t grant = n < room ? n : room;
      if (used_.compare_exchange_weak(current, current + grant,
                                      std::memory_order_relaxed)) {
        return grant;
      }
    }
  }

  bool exhausted() const {
    return limit_ != 0 && used_.load(std::memory_order_relaxed) >= limit_;
  }

  std::size_t used() const { return used_.load(std::memory_order_relaxed); }
  std::size_t limit() const { return limit_; }

  /// Queries left before exhaustion (max size_t when unlimited).
  std::size_t remaining() const {
    if (limit_ == 0) return std::numeric_limits<std::size_t>::max();
    const std::size_t u = used_.load(std::memory_order_relaxed);
    return u >= limit_ ? 0 : limit_ - u;
  }

 private:
  std::size_t limit_;
  std::atomic<std::size_t> used_{0};
};

/// Shared run controls threaded through the attack algorithms. The deadline
/// is copied (absolute instant); the budget is borrowed and mutated so all
/// phases of one document draw from the same pool. Both default to
/// unconstrained, keeping existing call sites valid. Every forward an
/// attack runs is admitted by try_charge() first: evaluator rows by the
/// SwapEvaluator shell, anchors, gradient calls and verifications by the
/// attack itself.
struct AttackControl {
  Deadline deadline;
  QueryBudget* budget = nullptr;  ///< may be null (unlimited)

  bool budget_exhausted() const {
    return budget != nullptr && budget->exhausted();
  }
  /// Forwards the budget can still admit (max size_t when none is bound).
  std::size_t budget_remaining() const {
    return budget == nullptr ? std::numeric_limits<std::size_t>::max()
                             : budget->remaining();
  }
  /// Admits one forward: charges it and returns true, or returns false,
  /// charging nothing, when the budget is spent. No forward runs without
  /// this, so a per-document cap is never passed. const: the control block
  /// is shared read-only; the mutation happens in the borrowed QueryBudget,
  /// which is non-const by construction.
  [[nodiscard]] bool try_charge() const {
    return budget == nullptr || budget->charge_up_to(1) == 1;
  }
};

/// Typed failure at an isolation boundary.
struct Failure {
  TerminationReason reason = TerminationReason::kError;
  std::string message;
};

/// Value-or-failure result for fault-isolation boundaries (per-document
/// attack isolation in evaluate_attack). Deliberately minimal: holds either
/// a T or a Failure, never neither. [[nodiscard]]: dropping an Outcome
/// drops the failure with it, which is exactly the silent-swallow the type
/// exists to prevent.
template <typename T>
class [[nodiscard]] Outcome {
 public:
  Outcome(T value) : state_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Outcome(Failure failure) : state_(std::move(failure)) {}  // NOLINT(google-explicit-constructor)

  static Outcome error(TerminationReason reason, std::string message) {
    return Outcome(Failure{reason, std::move(message)});
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  const T& value() const {
    ADVTEXT_CHECK(ok()) << "Outcome::value on a failed outcome: "
                        << std::get<Failure>(state_).message;
    return std::get<T>(state_);
  }
  T& value() {
    ADVTEXT_CHECK(ok()) << "Outcome::value on a failed outcome: "
                        << std::get<Failure>(state_).message;
    return std::get<T>(state_);
  }

  const Failure& failure() const {
    ADVTEXT_CHECK(!ok()) << "Outcome::failure on a successful outcome";
    return std::get<Failure>(state_);
  }

 private:
  std::variant<T, Failure> state_;
};

/// Thrown by FaultInjector at a firing injection point (and by nothing
/// else), so tests and isolation code can tell injected faults from real
/// ones.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// Bounded retry with capped exponential backoff and deterministic seeded
/// jitter, for *transient* I/O failure sites: checkpoint / snapshot
/// publishes and the service layer's socket frame writes. The jitter for a
/// given (seed, attempt) pair is a pure function — no shared RNG state — so
/// a policy value can be shared across threads and a fixed seed reproduces
/// the exact backoff schedule (the same determinism contract as
/// FaultInjector). Backoffs default to single-digit milliseconds: retries
/// exist to absorb sporadic faults (injected ckpt.write throws, EINTR-class
/// socket hiccups), not to wait out a dead disk.
class RetryPolicy {
 public:
  struct Config {
    /// Total tries including the first (>= 1). 1 disables retrying.
    std::size_t max_attempts = 3;
    /// Sleep after the first failed attempt.
    double initial_backoff_ms = 1.0;
    /// Growth factor per further failed attempt.
    double multiplier = 2.0;
    /// Cap on the un-jittered backoff.
    double max_backoff_ms = 8.0;
    /// Uniform extra fraction in [0, jitter) added on top of the base
    /// backoff, decorrelating retry storms across concurrent callers.
    double jitter = 0.5;
  };

  // Defaults in a separate delegating constructor: `const Config& = {}`
  // would need Config's NSDMIs inside the enclosing class definition, which
  // is not a complete-class context for them.
  RetryPolicy() : RetryPolicy(Config()) {}
  explicit RetryPolicy(const Config& config, std::uint64_t seed = 0x5eed);

  /// Backoff slept after failed attempt `attempt` (1-based), jitter
  /// included. Deterministic in (seed, attempt).
  double backoff_ms(std::size_t attempt) const;

  /// Runs `fn` up to max_attempts times, absorbing std::runtime_error (and
  /// subclasses, including InjectedFault) per attempt and sleeping
  /// backoff_ms between attempts. Returns the 1-based attempt number that
  /// succeeded, or a kError Failure naming `what` and the last error once
  /// every attempt failed. Non-runtime_error exceptions (contract
  /// violations) propagate immediately — a bug is not transient.
  Outcome<std::size_t> run(const char* what,
                           const std::function<void()>& fn) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
  std::uint64_t seed_;
};

/// RAII thread-local instance tag for fault sites. While a scope named
/// "doc12" is active on a thread, an injection point "wmd.distance" on that
/// thread matches rules as if it were written "wmd.distance@doc12"
/// (exact scoped rule → bare base rule → "all" wildcard, the normal
/// FaultInjector fallback chain). Sites that already carry an explicit
/// "@instance" are left untouched. evaluate_attack wraps each document's
/// attack in FaultScope("doc<i>") so a spec like "attack.word@doc3:1.0"
/// kills the same document no matter which worker thread picks it up or in
/// what order — the scheduling-independent determinism the parallel sweep
/// tests rely on. Scopes nest (the previous tag is restored on
/// destruction) and are strictly per-thread.
class FaultScope {
 public:
  explicit FaultScope(std::string instance);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// The calling thread's innermost active scope ("" when none).
  static const std::string& current();

 private:
  std::string previous_;
};

/// Deterministic fault-injection harness. Library code marks *named
/// injection points*; a configuration string arms a subset of them with a
/// probability and a fault mode. Disabled (the default) every point is a
/// single predicted branch.
///
/// Point naming convention: "<module>.<operation>", e.g. "wmd.distance",
/// "transport.exact", "attack.word", "pipeline.doc". An optional
/// "@<instance>" suffix scopes a point to one instance of a replicated
/// component — sharded training arms "train.loss@shard1" to kill exactly
/// one shard. Matching order: exact "site@instance", then the bare "site"
/// (a rule without a suffix hits every instance), then the wildcard "all".
///
/// Spec grammar (comma- or semicolon-separated):  site[:mode]:probability
///   modes: throw (default) | delay | nan
///          | torn | enospc | short-read | eintr | corrupt   (IO modes)
///   examples: "all:0.05"
///             "wmd.distance:0.2,transport.exact:delay:0.5"
///             "train.loss:nan:0.02;ckpt.write:throw:0.05"
///             "train.loss@shard1:nan:1.0"
///             "io.write:torn:0.1;io.read:short-read:0.1"
///
/// The IO modes are executed by util/io_file (see io_fault()); at a plain
/// maybe_fault() site they degrade to throw, so an IO-mode rule armed on a
/// non-IO site still produces a fault rather than silently matching
/// nothing.
///
/// Faults are drawn from one advtext::Rng stream *per effective site*
/// (seeded seed ^ hash(site)), so a fixed (spec, seed) pair reproduces the
/// exact failure schedule at every site independently of thread
/// interleaving — the Nth draw at "io.write@w3" is the same fire/no-fire
/// decision no matter what other sites drew in between. Checkpoint /
/// resume, isolation tests, and the chaos harness's parallel run-twice
/// oracle rely on this. Thread-safe: the disabled fast path is one atomic
/// load, and armed draws serialize on an internal mutex. Do not call
/// configure() while other threads are inside injection points.
class FaultInjector {
 public:
  enum class Mode {
    kThrow,
    kDelay,
    kNan,
    // Storage fault modes, executed by util/io_file at the "io.*" sites.
    kTorn,       ///< a strict prefix lands under the final path, then throw
    kEnospc,     ///< write fails mid-stream; the final path stays untouched
    kShortRead,  ///< a read returns a strict prefix of the file
    kEintr,      ///< transient failure; io_file retries it away (bounded)
    kCorrupt,    ///< one deterministically chosen bit flips
  };

  /// What an armed IO mode should do, handed to util/io_file for execution.
  /// `fraction` is a deterministic draw in [0, 1) from the site's own
  /// seeded RNG stream: the prefix fraction for torn/enospc/short-read,
  /// the bit position fraction for corrupt (unused for eintr).
  struct IoFaultPlan {
    Mode mode = Mode::kThrow;
    double fraction = 0.0;
  };

  /// Process-wide instance. On first use it arms itself from the
  /// ADVTEXT_INJECT environment variable (empty/absent = disabled), which
  /// is how the CI fault-injection leg reaches release binaries.
  static FaultInjector& instance();

  /// Replaces the active configuration (empty spec disables), resets the
  /// fire counters, and reseeds the RNG. Throws std::invalid_argument on a
  /// malformed spec.
  void configure(const std::string& spec, std::uint64_t seed = 0x5eed);

  /// configure() from ADVTEXT_INJECT (absent = disabled).
  void configure_from_env();

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Marks an injection point. No-op when disabled or the draw does not
  /// fire. Fires as: kThrow — throws InjectedFault naming the site;
  /// kDelay — sleeps ~1ms (deadline-pressure fault); kNan — records the
  /// fire so a following poison() call returns NaN.
  void maybe_fault(const char* site) {
    if (!enabled()) return;
    fault_slow(site);
  }

  /// Value-poisoning injection point: returns NaN if a kNan rule fires for
  /// `site`, otherwise `value` unchanged.
  double poison(const char* site, double value) {
    if (!enabled()) return value;
    return poison_slow(site, value);
  }

  /// IO-aware injection point for util/io_file. Behaves like maybe_fault()
  /// for throw/delay rules (throws / sleeps here); for the IO modes it
  /// returns the plan the IO layer executes (nullopt = proceed normally;
  /// kNan rules never fire at IO sites).
  std::optional<IoFaultPlan> io_fault(const char* site) {
    if (!enabled()) return std::nullopt;
    return io_fault_slow(site);
  }

  /// Total faults fired since the last configure().
  std::size_t fires() const ADVTEXT_EXCLUDES(mu_);

 private:
  struct Rule {
    Mode mode = Mode::kThrow;
    double probability = 0.0;
  };

  FaultInjector() { configure_from_env(); }

  void fault_slow(const char* site) ADVTEXT_EXCLUDES(mu_);
  double poison_slow(const char* site, double value) ADVTEXT_EXCLUDES(mu_);
  std::optional<IoFaultPlan> io_fault_slow(const char* site)
      ADVTEXT_EXCLUDES(mu_);
  const Rule* match(const char* site) const ADVTEXT_REQUIRES(mu_);
  // The thread's FaultScope composed into an unsuffixed site:
  // "ckpt.write" inside FaultScope("w3") becomes "ckpt.write@w3".
  static std::string effective_site(const char* site);
  // Lazily-created independent RNG stream for one effective site.
  Rng& stream(const std::string& site) ADVTEXT_REQUIRES(mu_);

  // Guards the armed state; enabled_ doubles as the lock-free fast path
  // (released by configure(), acquired by every injection point).
  mutable Mutex mu_;
  // Site-specific rules win over the "all" wildcard.
  std::vector<std::pair<std::string, Rule>> rules_ ADVTEXT_GUARDED_BY(mu_);
  bool has_all_ ADVTEXT_GUARDED_BY(mu_) = false;
  Rule all_ ADVTEXT_GUARDED_BY(mu_);
  std::atomic<bool> enabled_{false};
  // One independent RNG stream per effective (scope-composed) site, lazily
  // created and seeded seed ^ fnv1a(site). With a single shared stream the
  // fire schedule at one site depended on how many draws *other* threads'
  // sites had interleaved before it; per-site streams make every site's
  // schedule a pure function of (spec, seed, site, draw index), so
  // multi-threaded runs fire identically regardless of interleaving.
  std::uint64_t seed_ ADVTEXT_GUARDED_BY(mu_) = 0x5eed;
  std::unordered_map<std::string, Rng> streams_ ADVTEXT_GUARDED_BY(mu_);
  std::size_t fires_ ADVTEXT_GUARDED_BY(mu_) = 0;
};

/// Process-wide soft memory budget for the big allocation sites (candidate
/// sets, model replicas, service frames). A reservation that would push
/// accounted usage past the limit is *denied* — the caller degrades (shrink
/// the candidate neighbourhood, drop to fewer replicas, shed the job with a
/// typed `resource` rejection) instead of letting the allocator OOM-abort
/// the process. Accounting is cooperative and approximate: only the named
/// big sites charge it, so the limit bounds the dominant allocations, not
/// every byte of the process.
///
/// Thread-safe; unlimited (limit 0) by default, so existing call sites are
/// unaffected until a limit is armed (`--mem-budget-mb`). Degradation is
/// deterministic in the configuration: whether a reservation is denied
/// depends only on the limit and the accounted usage at that point, both of
/// which are reproducible for a fixed config on a serial path (parallel
/// paths must degrade per-worker, not per-race, to keep bitwise contracts).
class MemoryBudget {
 public:
  /// Process-wide instance (the daemon and CLI arm it from flags).
  static MemoryBudget& instance();

  /// Sets the budget in bytes (0 = unlimited). Does not evict existing
  /// reservations; an over-limit state simply denies new ones.
  void set_limit_bytes(std::size_t limit) {
    limit_.store(limit, std::memory_order_relaxed);
  }
  std::size_t limit_bytes() const {
    return limit_.load(std::memory_order_relaxed);
  }

  /// Reserves `bytes` if the limit allows; false (and a counted denial)
  /// otherwise. [[nodiscard]]: ignoring a denial is exactly the OOM path
  /// this class exists to close.
  [[nodiscard]] bool try_reserve(std::size_t bytes) {
    const std::size_t limit = limit_.load(std::memory_order_relaxed);
    if (limit == 0) {
      used_.fetch_add(bytes, std::memory_order_relaxed);
      return true;
    }
    std::size_t current = used_.load(std::memory_order_relaxed);
    while (true) {
      if (bytes > limit || current > limit - bytes) {
        denials_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (used_.compare_exchange_weak(current, current + bytes,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  void release(std::size_t bytes) {
    ADVTEXT_CHECK(used_.load(std::memory_order_relaxed) >= bytes)
        << "MemoryBudget::release of more than is reserved";
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::size_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  std::size_t denials() const {
    return denials_.load(std::memory_order_relaxed);
  }

  /// Test hook: back to unlimited with zeroed accounting.
  void reset() {
    limit_.store(0, std::memory_order_relaxed);
    used_.store(0, std::memory_order_relaxed);
    denials_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> limit_{0};
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> denials_{0};
};

/// RAII handle on a MemoryBudget reservation: releases on destruction.
/// A default-constructed (or denied) reservation holds nothing; ok() says
/// whether the reserve succeeded. Move-only — copying would double-release.
class MemoryReservation {
 public:
  MemoryReservation() = default;

  /// Tries to reserve `bytes` from the process budget; check ok().
  static MemoryReservation try_acquire(std::size_t bytes) {
    MemoryReservation r;
    if (MemoryBudget::instance().try_reserve(bytes)) {
      r.bytes_ = bytes;
      r.held_ = true;
    }
    return r;
  }

  ~MemoryReservation() { release(); }

  MemoryReservation(MemoryReservation&& other) noexcept
      : bytes_(other.bytes_), held_(other.held_) {
    other.held_ = false;
    other.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      release();
      bytes_ = other.bytes_;
      held_ = other.held_;
      other.held_ = false;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  bool ok() const { return held_; }
  std::size_t bytes() const { return bytes_; }

  /// Returns the bytes to the budget early (idempotent).
  void release() {
    if (held_) {
      MemoryBudget::instance().release(bytes_);
      held_ = false;
      bytes_ = 0;
    }
  }

 private:
  std::size_t bytes_ = 0;
  bool held_ = false;
};

}  // namespace advtext

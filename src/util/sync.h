// Concurrency primitives with compile-time thread-safety analysis.
//
// The north star is parallel shard training and batched attack serving, and
// the first data race that ships costs more than every lock it would have
// taken to prevent it. This header makes racy code fail to *compile* under
// Clang instead of failing under TSan at 2am:
//
//   * Capability annotations — ADVTEXT_CAPABILITY / ADVTEXT_GUARDED_BY /
//     ADVTEXT_REQUIRES / ADVTEXT_ACQUIRE / ADVTEXT_RELEASE wrap Clang's
//     -Wthread-safety attribute set (no-op on GCC and other compilers, so
//     the tree stays portable). cmake/AdvtextToolchain.cmake turns the
//     analysis on for every target whenever the compiler is Clang, and
//     promotes it to an error under ADVTEXT_WERROR — the CI `thread-safety`
//     leg builds exactly that way, plus a deliberately misannotated target
//     (tests/thread_safety_neg.cpp) that must FAIL to compile, proving the
//     analysis is live and not silently disabled.
//   * advtext::Mutex / MutexLock / CondVar — annotated wrappers over the
//     standard primitives. Rule `raw-mutex` / `raw-thread` in tools/lint.py:
//     no std::thread, std::mutex, std::condition_variable, std::lock_guard
//     (or friends) anywhere outside src/util/sync.*; all concurrency flows
//     through these wrappers so every lock is visible to the analysis.
//   * TaskQueue / ThreadPool — a bounded MPMC queue and a fixed-size worker
//     pool, the only place worker threads are spawned. Shared state is
//     ADVTEXT_GUARDED_BY its mutex, so the analysis proves the lock
//     discipline of the pool itself.
//
//   * Heartbeat / Watchdog — per-worker liveness signals and the monitor
//     that turns "a worker stopped beating while busy" into a typed stall
//     report within a bound, instead of a silent hang. The daemon's job
//     watchdog and the chaos campaign's no-hang oracle are built on these.
//
//   * parallel_for — splits one call's independent shares over the caller
//     and a process-wide set of helpers (one per other CPU of the
//     affinity mask), so a serial caller can use every core it may run on.
//
// Determinism note: threads make *scheduling* nondeterministic, never
// results — consumers (the sharded trainer's supervise()) are designed so
// that all cross-thread reductions happen at barriers in a fixed order. Nothing in
// this file draws randomness; clocks are read only by CondVar's timed wait
// and the Watchdog's stall timer (sync.* lives in util/, the one layer the
// raw-clock rule allows).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

// ---- Clang thread-safety attribute wrappers --------------------------------
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html. Each
// macro expands to the corresponding attribute under Clang and to nothing
// elsewhere, so annotated headers compile unchanged under GCC.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ADVTEXT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ADVTEXT_THREAD_ANNOTATION
#define ADVTEXT_THREAD_ANNOTATION(x)  // no-op on non-Clang compilers
#endif

/// Marks a type as a lockable capability ("mutex").
#define ADVTEXT_CAPABILITY(x) ADVTEXT_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose lifetime acquires/releases a capability.
#define ADVTEXT_SCOPED_CAPABILITY ADVTEXT_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the named capability.
#define ADVTEXT_GUARDED_BY(x) ADVTEXT_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named capability.
#define ADVTEXT_PT_GUARDED_BY(x) ADVTEXT_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the capability held on entry (and does not release it).
#define ADVTEXT_REQUIRES(...) \
  ADVTEXT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the capability (held on return, not on entry).
#define ADVTEXT_ACQUIRE(...) \
  ADVTEXT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on return).
#define ADVTEXT_RELEASE(...) \
  ADVTEXT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `result`.
#define ADVTEXT_TRY_ACQUIRE(result, ...) \
  ADVTEXT_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))
/// Function must NOT be called with the capability held (deadlock guard).
#define ADVTEXT_EXCLUDES(...) \
  ADVTEXT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (trusted by the analysis).
#define ADVTEXT_ASSERT_CAPABILITY(x) \
  ADVTEXT_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the named capability.
#define ADVTEXT_RETURN_CAPABILITY(x) \
  ADVTEXT_THREAD_ANNOTATION(lock_returned(x))
/// Lock-ordering declaration for deadlock detection (-Wthread-safety-beta).
#define ADVTEXT_ACQUIRED_BEFORE(...) \
  ADVTEXT_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ADVTEXT_ACQUIRED_AFTER(...) \
  ADVTEXT_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Escape hatch for functions the analysis cannot follow (keep rare; every
/// use is a hole in the proof).
#define ADVTEXT_NO_THREAD_SAFETY_ANALYSIS \
  ADVTEXT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace advtext {

/// CPUs this process may run on: the count of its CPU affinity mask
/// (`taskset -c 0` gives 1), falling back to
/// std::thread::hardware_concurrency, with a floor of 1. Lives here because
/// sync.* is the only code allowed to name std::thread; callers size worker
/// pools and stamp benchmark records with it.
std::size_t hardware_threads();

/// The most shares one parallel_for call runs at once: the caller plus one
/// helper per other CPU, i.e. hardware_threads() when first read.
std::size_t parallel_width();

/// Runs fn(s) once for every share s in [0, shares) and returns when all
/// have finished. The caller runs share 0, then claims every share no
/// helper has claimed yet, so progress never waits for a free helper; it
/// waits only for shares a helper already runs. Helpers are created on the
/// first call that has a share for them and live for the process; a one-CPU
/// process, a one-share call and a child forked after the helpers exist run
/// every share inline. Shares must be independent of one another. An
/// exception a share throws is caught; once every claimed share has
/// finished, the lowest-indexed share's exception is rethrown on the caller
/// with its type.
void parallel_for(std::size_t shares,
                  const std::function<void(std::size_t)>& fn);

/// Annotated exclusive mutex. Prefer MutexLock for scoped acquisition;
/// lock()/unlock() exist for the rare hand-over-hand pattern and for
/// CondVar's re-acquisition.
class ADVTEXT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ADVTEXT_ACQUIRE() { mu_.lock(); }
  void unlock() ADVTEXT_RELEASE() { mu_.unlock(); }
  bool try_lock() ADVTEXT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over an advtext::Mutex.
class ADVTEXT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ADVTEXT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ADVTEXT_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to advtext::Mutex. Callers must hold the mutex
/// they pass (ADVTEXT_REQUIRES), re-check their predicate after every wake
/// (spurious wakeups happen), and hold the same mutex when mutating the
/// predicate state so waiters never miss a notify.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning.
  void wait(Mutex& mu) ADVTEXT_REQUIRES(mu);

  /// wait() with a timeout; returns false on timeout (mutex re-acquired
  /// either way). Waiters that also poll an external flag (StopToken) use
  /// this so a signal that carries no notify still gets noticed.
  bool wait_for_ms(Mutex& mu, long ms) ADVTEXT_REQUIRES(mu);

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Bounded MPMC queue of tasks. push() blocks while full, pop() blocks
/// while empty; close() wakes everyone, after which push() is rejected and
/// pop() drains the remaining tasks then reports empty.
class TaskQueue {
 public:
  using Task = std::function<void()>;

  explicit TaskQueue(std::size_t capacity);

  /// Enqueues (blocking while at capacity). Returns false iff the queue was
  /// closed, in which case the task was not enqueued.
  bool push(Task task) ADVTEXT_EXCLUDES(mu_);

  /// Dequeues (blocking while empty). Returns false iff the queue is closed
  /// and fully drained; `out` is untouched then.
  bool pop(Task& out) ADVTEXT_EXCLUDES(mu_);

  /// Rejects future push() calls and wakes all blocked producers/consumers.
  /// Already-queued tasks still drain.
  void close() ADVTEXT_EXCLUDES(mu_);

  std::size_t size() const ADVTEXT_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<Task> items_ ADVTEXT_GUARDED_BY(mu_);
  bool closed_ ADVTEXT_GUARDED_BY(mu_) = false;
};

/// One worker's liveness signal. The worker beats whenever it makes
/// observable progress (task picked up, document committed, wait loop
/// iterated); a Watchdog reads the beat counter and the busy flag from its
/// monitor thread. The tag names what the worker is doing ("job12") so a
/// stall report can say *what* is stuck, not just *where*.
class Heartbeat {
 public:
  /// Progress signal; call at every unit of observable progress.
  void beat() { beats_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t beats() const {
    return beats_.load(std::memory_order_relaxed);
  }

  /// Busy workers that stop beating are stalls; idle workers never are.
  /// Entering busy also counts as a beat so the stall clock starts fresh.
  void set_busy(bool busy) {
    busy_.store(busy, std::memory_order_relaxed);
    beat();
  }
  bool busy() const { return busy_.load(std::memory_order_relaxed); }

  void set_tag(const std::string& tag) {
    MutexLock lock(mu_);
    tag_ = tag;
  }
  std::string tag() const {
    MutexLock lock(mu_);
    return tag_;
  }

 private:
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<bool> busy_{false};
  mutable Mutex mu_;
  std::string tag_ ADVTEXT_GUARDED_BY(mu_);
};

/// Monitors a fixed set of Heartbeats from its own thread and reports every
/// worker that has been busy without beating for longer than the stall
/// bound — the liveness guarantee behind "no hangs, ever": a stuck job is
/// *detected* within stall_ms + poll_ms and converted to a typed outcome by
/// the owner's handler, even though the stuck thread itself cannot be
/// killed. One report fires per stall episode; a worker that resumes
/// beating re-arms its detector.
class Watchdog {
 public:
  struct Config {
    double stall_ms = 1000.0;  ///< busy-without-beating bound
    double poll_ms = 50.0;     ///< monitor wake cadence (detection slack)
  };

  /// Called on the monitor thread, outside any Watchdog lock. Keep it
  /// non-blocking-ish: the monitor does not poll while a handler runs.
  using StallHandler = std::function<void(
      std::size_t index, const std::string& tag, double stalled_ms)>;

  /// The heartbeats must outlive the Watchdog (e.g. a ThreadPool's workers'
  /// heartbeats, with the pool destroyed after the watchdog).
  Watchdog(std::vector<const Heartbeat*> hearts, const Config& config,
           StallHandler on_stall);

  /// Stops and joins the monitor thread.
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stall episodes reported so far.
  std::size_t stalls() const ADVTEXT_EXCLUDES(mu_);

  /// Stops the monitor early (idempotent; the destructor calls it).
  void stop() ADVTEXT_EXCLUDES(mu_);

 private:
  void monitor_loop() ADVTEXT_EXCLUDES(mu_);

  const std::vector<const Heartbeat*> hearts_;
  const Config config_;
  const StallHandler on_stall_;
  mutable Mutex mu_;
  CondVar wake_;
  bool stopping_ ADVTEXT_GUARDED_BY(mu_) = false;
  std::size_t stalls_ ADVTEXT_GUARDED_BY(mu_) = 0;
  std::thread monitor_;
};

/// Fixed-size worker pool over a bounded TaskQueue — the only place in the
/// tree that spawns threads. Tasks must not throw (an escaped exception
/// from a task would terminate the process); wrap fallible work and record
/// its failure into state you own.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). `queue_capacity` bounds the backlog
  /// of not-yet-started tasks (defaults to 2x the worker count).
  explicit ThreadPool(std::size_t threads, std::size_t queue_capacity = 0);

  /// Closes the queue, drains remaining tasks, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task (blocking while the queue is full). Returns false iff
  /// the pool is shutting down.
  bool submit(TaskQueue::Task task) ADVTEXT_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished (queue empty and no
  /// task running). The pool stays usable afterwards.
  void wait_idle() ADVTEXT_EXCLUDES(mu_);

  std::size_t threads() const { return workers_.size(); }

  /// Worker `index`'s heartbeat: busy while a task runs, beaten around each
  /// task. Long-running tasks beat it themselves through current().
  const Heartbeat& heartbeat(std::size_t index) const {
    return *hearts_[index];
  }

  /// Heartbeat views for a Watchdog over this pool's workers.
  std::vector<const Heartbeat*> heartbeats() const;

  /// The calling pool worker's own heartbeat (null off-pool), so task
  /// bodies can beat per unit of progress and tag what they are doing
  /// without threading a pointer through every capture.
  static Heartbeat* current();

 private:
  void worker_loop(std::size_t index);

  TaskQueue queue_;
  mutable Mutex mu_;
  CondVar idle_;
  std::size_t in_flight_ ADVTEXT_GUARDED_BY(mu_) = 0;  ///< queued + running
  /// unique_ptr: Heartbeat is immovable (atomics + mutex) but workers_
  /// sizing happens at run time.
  std::vector<std::unique_ptr<Heartbeat>> hearts_;
  std::vector<std::thread> workers_;
};

}  // namespace advtext

#include "src/util/sync.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <utility>

#include "src/util/check.h"

namespace advtext {

std::size_t hardware_threads() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t parallel_width() {
  static const std::size_t width = hardware_threads();
  return width;
}

namespace {

/// One parallel_for call, on its caller's stack. Shares are claimed through
/// `next`; `inside` counts the helpers that may still claim or run one, and
/// the caller returns only once it is 0.
struct ParallelJob {
  ParallelJob(std::size_t count, const std::function<void(std::size_t)>& body)
      : shares(count), fn(body) {}

  const std::size_t shares;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{1};  ///< the caller runs share 0 unclaimed

  Mutex mu;
  CondVar left;  ///< a helper left the job
  std::size_t inside ADVTEXT_GUARDED_BY(mu) = 0;
  std::size_t error_share ADVTEXT_GUARDED_BY(mu) =
      std::numeric_limits<std::size_t>::max();
  std::exception_ptr error ADVTEXT_GUARDED_BY(mu);

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= shares;
  }

  void run_share(std::size_t share) ADVTEXT_EXCLUDES(mu) {
    try {
      fn(share);
    } catch (...) {
      MutexLock lock(mu);
      if (share < error_share) {
        error_share = share;
        error = std::current_exception();
      }
    }
  }

  void run_unclaimed() ADVTEXT_EXCLUDES(mu) {
    for (std::size_t share = next.fetch_add(1); share < shares;
         share = next.fetch_add(1)) {
      run_share(share);
    }
  }

  void rethrow() ADVTEXT_EXCLUDES(mu) {
    std::exception_ptr first;
    {
      MutexLock lock(mu);
      first = error;
    }
    if (first) std::rethrow_exception(first);
  }
};

/// The process-wide helpers behind parallel_for. Created once and never
/// destroyed: a forked child inherits the object without its threads, and
/// parked helpers hold nothing that exit() tears down.
class ParallelHelpers {
 public:
  explicit ParallelHelpers(std::size_t helpers) : owner_(getpid()) {
    threads_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
      threads_.emplace_back([this] { helper_loop(); });
    }
  }

  /// The helpers are this process's own, not a forked parent's.
  bool owned() const { return getpid() == owner_; }

  /// Posts `job`, runs its shares with the helpers, and waits for the
  /// helpers that entered it.
  void share_out(ParallelJob& job) ADVTEXT_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      open_.push_back(&job);
    }
    const std::size_t wake = std::min(job.shares - 1, threads_.size());
    for (std::size_t i = 0; i < wake; ++i) wake_.notify_one();
    job.run_share(0);
    job.run_unclaimed();
    {
      // Off the list, no helper can enter the job any more.
      MutexLock lock(mu_);
      std::erase(open_, &job);
    }
    MutexLock lock(job.mu);
    while (job.inside != 0) job.left.wait(job.mu);
  }

 private:
  void helper_loop() ADVTEXT_EXCLUDES(mu_) {
    while (true) {
      ParallelJob& job = enter();
      job.run_unclaimed();
      MutexLock lock(job.mu);
      if (--job.inside == 0) job.left.notify_all();
    }
  }

  /// Parks until a posted job has an unclaimed share, then enters it.
  ParallelJob& enter() ADVTEXT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (true) {
      std::erase_if(open_,
                    [](const ParallelJob* job) { return job->exhausted(); });
      if (!open_.empty()) {
        ParallelJob& job = *open_.front();
        MutexLock job_lock(job.mu);
        ++job.inside;
        return job;
      }
      wake_.wait(mu_);
    }
  }

  const pid_t owner_;
  Mutex mu_;
  CondVar wake_;
  std::vector<ParallelJob*> open_ ADVTEXT_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
};

ParallelHelpers& parallel_helpers() {
  static ParallelHelpers* const helpers =
      new ParallelHelpers(parallel_width() - 1);
  return *helpers;
}

}  // namespace

void parallel_for(std::size_t shares,
                  const std::function<void(std::size_t)>& fn) {
  if (shares <= 1) {
    if (shares == 1) fn(0);
    return;
  }
  ParallelJob job(shares, fn);
  if (parallel_width() > 1 && parallel_helpers().owned()) {
    parallel_helpers().share_out(job);
  } else {
    job.run_share(0);
    job.run_unclaimed();
  }
  job.rethrow();
}

void CondVar::wait(Mutex& mu) {
  // Adopt the already-held lock for the duration of the wait, then release
  // ownership back to the caller; the capability bookkeeping stays with the
  // caller's MutexLock / ADVTEXT_REQUIRES contract.
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
}

bool CondVar::wait_for_ms(Mutex& mu, long ms) {
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  const std::cv_status status =
      cv_.wait_for(lock, std::chrono::milliseconds(ms));
  lock.release();
  return status == std::cv_status::no_timeout;
}

TaskQueue::TaskQueue(std::size_t capacity) : capacity_(capacity) {
  ADVTEXT_CHECK(capacity_ >= 1) << "TaskQueue needs capacity >= 1";
}

bool TaskQueue::push(Task task) {
  MutexLock lock(mu_);
  while (!closed_ && items_.size() >= capacity_) {
    not_full_.wait(mu_);
  }
  if (closed_) return false;
  items_.push_back(std::move(task));
  not_empty_.notify_one();
  return true;
}

bool TaskQueue::pop(Task& out) {
  MutexLock lock(mu_);
  while (items_.empty() && !closed_) {
    not_empty_.wait(mu_);
  }
  if (items_.empty()) return false;  // closed and drained
  out = std::move(items_.front());
  items_.pop_front();
  not_full_.notify_one();
  return true;
}

void TaskQueue::close() {
  MutexLock lock(mu_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::size_t TaskQueue::size() const {
  MutexLock lock(mu_);
  return items_.size();
}

Watchdog::Watchdog(std::vector<const Heartbeat*> hearts,
                   const Config& config, StallHandler on_stall)
    : hearts_(std::move(hearts)),
      config_(config),
      on_stall_(std::move(on_stall)) {
  ADVTEXT_CHECK(config_.stall_ms > 0.0) << "Watchdog needs stall_ms > 0";
  ADVTEXT_CHECK(config_.poll_ms > 0.0) << "Watchdog needs poll_ms > 0";
  for (const Heartbeat* heart : hearts_) {
    ADVTEXT_CHECK(heart != nullptr) << "Watchdog given a null heartbeat";
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

Watchdog::~Watchdog() {
  stop();
  if (monitor_.joinable()) monitor_.join();
}

void Watchdog::stop() {
  MutexLock lock(mu_);
  stopping_ = true;
  wake_.notify_all();
}

std::size_t Watchdog::stalls() const {
  MutexLock lock(mu_);
  return stalls_;
}

void Watchdog::monitor_loop() {
  struct HeartState {
    std::uint64_t last_beats = 0;
    std::chrono::steady_clock::time_point last_change;
    bool reported = false;
  };
  std::vector<HeartState> states(hearts_.size());
  const auto start = std::chrono::steady_clock::now();
  for (HeartState& state : states) state.last_change = start;

  while (true) {
    {
      MutexLock lock(mu_);
      if (stopping_) return;
      (void)wake_.wait_for_ms(mu_, static_cast<long>(config_.poll_ms));
      if (stopping_) return;
    }
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < hearts_.size(); ++i) {
      const Heartbeat& heart = *hearts_[i];
      HeartState& state = states[i];
      const std::uint64_t beats = heart.beats();
      if (beats != state.last_beats || !heart.busy()) {
        state.last_beats = beats;
        state.last_change = now;
        state.reported = false;  // progress (or idleness) re-arms the check
        continue;
      }
      const double stalled_ms =
          std::chrono::duration<double, std::milli>(now - state.last_change)
              .count();
      if (stalled_ms < config_.stall_ms || state.reported) continue;
      state.reported = true;  // one report per stall episode
      {
        MutexLock lock(mu_);
        ++stalls_;
      }
      if (on_stall_) on_stall_(i, heart.tag(), stalled_ms);
    }
  }
}

namespace {
// The calling pool worker's own heartbeat; null on non-pool threads.
thread_local Heartbeat* t_pool_heartbeat = nullptr;
}  // namespace

Heartbeat* ThreadPool::current() { return t_pool_heartbeat; }

ThreadPool::ThreadPool(std::size_t threads, std::size_t queue_capacity)
    : queue_(queue_capacity != 0 ? queue_capacity
                                 : std::max<std::size_t>(1, threads) * 2) {
  ADVTEXT_CHECK(threads >= 1) << "ThreadPool needs at least one worker";
  hearts_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    hearts_.push_back(std::make_unique<Heartbeat>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::submit(TaskQueue::Task task) {
  {
    MutexLock lock(mu_);
    ++in_flight_;
  }
  if (queue_.push(std::move(task))) return true;
  // Rejected by a closed queue: undo the accounting.
  MutexLock lock(mu_);
  --in_flight_;
  if (in_flight_ == 0) idle_.notify_all();
  return false;
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) {
    idle_.wait(mu_);
  }
}

std::vector<const Heartbeat*> ThreadPool::heartbeats() const {
  std::vector<const Heartbeat*> out;
  out.reserve(hearts_.size());
  for (const auto& heart : hearts_) out.push_back(heart.get());
  return out;
}

void ThreadPool::worker_loop(std::size_t index) {
  Heartbeat& heart = *hearts_[index];
  t_pool_heartbeat = &heart;
  TaskQueue::Task task;
  while (queue_.pop(task)) {
    heart.set_busy(true);
    task();
    heart.set_tag(std::string());
    heart.set_busy(false);
    task = nullptr;  // release captures before signalling idle
    MutexLock lock(mu_);
    --in_flight_;
    if (in_flight_ == 0) idle_.notify_all();
  }
  t_pool_heartbeat = nullptr;
}

}  // namespace advtext

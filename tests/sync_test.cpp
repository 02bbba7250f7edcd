// Concurrency-primitive tests: Mutex/MutexLock/CondVar, the bounded MPMC
// TaskQueue, ThreadPool lifecycle, hardware_threads() against the affinity
// mask, parallel_for (each share once, share 0 on the caller, typed
// rethrow, concurrent callers, a forked child), and the FaultInjector's
// thread-safety (deterministic combined fire counts under concurrent
// sites, '@'-scoped site matching).
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/util/check.h"
#include "src/util/robust.h"
#include "src/util/stopwatch.h"
#include "src/util/sync.h"

namespace advtext {
namespace {

struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().configure(""); }
  ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
};

TEST(MutexTest, GuardedCounterSurvivesContention) {
  Mutex mu;
  std::size_t counter = 0;
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIncrementsPerTask = 250;
  {
    ThreadPool pool(4);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit([&mu, &counter] {
        for (std::size_t i = 0; i < kIncrementsPerTask; ++i) {
          MutexLock lock(mu);
          ++counter;
        }
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter, kTasks * kIncrementsPerTask);
}

TEST(CondVarTest, NotifyWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool observed = false;
  {
    ThreadPool pool(1);
    pool.submit([&] {
      MutexLock lock(mu);
      while (!ready) cv.wait(mu);
      observed = true;
    });
    {
      MutexLock lock(mu);
      ready = true;
      cv.notify_one();
    }
    pool.wait_idle();
  }
  EXPECT_TRUE(observed);
}

TEST(CondVarTest, TimedWaitTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.wait_for_ms(mu, 1));
}

TEST(TaskQueueTest, CloseRejectsPushAndDrainsRemaining) {
  TaskQueue queue(4);
  int ran = 0;
  EXPECT_TRUE(queue.push([&ran] { ++ran; }));
  EXPECT_TRUE(queue.push([&ran] { ++ran; }));
  queue.close();
  EXPECT_FALSE(queue.push([&ran] { ++ran; }));  // rejected, not enqueued
  TaskQueue::Task task;
  while (queue.pop(task)) task();
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(queue.pop(task));  // closed and drained
}

TEST(TaskQueueTest, BoundedCapacityBlocksProducersUntilDrained) {
  // Queue capacity far below the task count: submit() must block while the
  // 2 workers drain, and every task must still run exactly once.
  Mutex mu;
  std::size_t ran = 0;
  constexpr std::size_t kTasks = 100;
  {
    ThreadPool pool(2, /*queue_capacity=*/2);
    for (std::size_t t = 0; t < kTasks; ++t) {
      EXPECT_TRUE(pool.submit([&mu, &ran] {
        MutexLock lock(mu);
        ++ran;
      }));
    }
    pool.wait_idle();
  }
  EXPECT_EQ(ran, kTasks);
}

TEST(ThreadPoolTest, WaitIdleThenReuse) {
  Mutex mu;
  std::size_t first = 0;
  std::size_t second = 0;
  ThreadPool pool(3);
  for (int t = 0; t < 10; ++t) {
    pool.submit([&mu, &first] {
      MutexLock lock(mu);
      ++first;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(first, 10u);
  // The pool stays usable after an idle barrier.
  for (int t = 0; t < 10; ++t) {
    pool.submit([&mu, &second] {
      MutexLock lock(mu);
      ++second;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(second, 10u);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  EXPECT_EQ(pool.threads(), 2u);
}

std::size_t affinity_count() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&mask));
}

TEST(HardwareThreadsTest, CountsTheAffinityMask) {
  const std::size_t mask = affinity_count();
  ASSERT_GT(mask, 0u);
  EXPECT_EQ(hardware_threads(), mask);
  EXPECT_GE(parallel_width(), 1u);

  // A process pinned to one CPU (as under `taskset -c 0`) reads 1.
  EXPECT_EXIT(
      {
        cpu_set_t mask_now;
        CPU_ZERO(&mask_now);
        (void)sched_getaffinity(0, sizeof(mask_now), &mask_now);
        int first = 0;
        while (!CPU_ISSET(first, &mask_now)) ++first;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(first, &one);
        const bool pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
        std::_Exit(pinned && hardware_threads() == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// Distinguishes threads without naming std::thread: each thread has its
// own instance of a thread_local.
const void* thread_marker() {
  thread_local const char marker = 0;
  return &marker;
}

TEST(ParallelForTest, RunsEachShareOnceWithShareZeroOnTheCaller) {
  const std::size_t width = parallel_width();
  for (const std::size_t shares :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, width,
        3 * width + 1}) {
    SCOPED_TRACE(testing::Message() << "shares=" << shares);
    const auto runs = std::make_unique<std::atomic<int>[]>(shares + 1);
    const void* share0_thread = nullptr;
    parallel_for(shares, [&](std::size_t s) {
      runs[s].fetch_add(1);
      if (s == 0) share0_thread = thread_marker();
    });
    for (std::size_t s = 0; s < shares; ++s) {
      EXPECT_EQ(runs[s].load(), 1) << "share " << s;
    }
    if (shares > 0) {
      EXPECT_EQ(share0_thread, thread_marker());
    }
  }
}

TEST(ParallelForTest, RethrowsTheLowestThrowingShareWithItsType) {
  constexpr std::size_t kShares = 12;
  std::atomic<std::size_t> finished{0};
  const auto body = [&finished](std::size_t s) {
    if (s == 5) throw std::out_of_range("share 5");
    ADVTEXT_CHECK_SHAPE(s != 9) << "share 9";
    Stopwatch clock;
    while (clock.elapsed_ms() < 2.0) {
    }
    finished.fetch_add(1);
  };
  try {
    parallel_for(kShares, body);
    ADD_FAILURE() << "no exception";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "share 5");
  }
  // Every other share ran to its end before the rethrow.
  EXPECT_EQ(finished.load(), kShares - 2);

  // Alone, the later share's ShapeError comes back as a ShapeError.
  const auto shape_only = [](std::size_t s) {
    ADVTEXT_CHECK_SHAPE(s != 3) << "share 3";
  };
  EXPECT_THROW(parallel_for(kShares, shape_only), ShapeError);
  EXPECT_THROW(parallel_for(1, [](std::size_t) {
                 throw std::out_of_range("one share");
               }),
               std::out_of_range);
}

// Four callers on a pool share the helpers; each gets exactly its own
// results.
TEST(ParallelForTest, ConcurrentCallersFromAPoolEachGetTheirOwnResults) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kShares = 16;
  constexpr std::size_t kRounds = 50;
  std::vector<std::vector<std::size_t>> results(
      kCallers, std::vector<std::size_t>(kShares, 0));
  {
    ThreadPool pool(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      pool.submit([&results, c] {
        std::vector<std::size_t>& mine = results[c];
        for (std::size_t round = 1; round <= kRounds; ++round) {
          parallel_for(kShares, [&mine, c, round](std::size_t s) {
            mine[s] += (c + 1) * 1000 + s * round;
          });
        }
      });
    }
    pool.wait_idle();
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t s = 0; s < kShares; ++s) {
      EXPECT_EQ(results[c][s],
                kRounds * (c + 1) * 1000 + s * kRounds * (kRounds + 1) / 2)
          << "caller " << c << " share " << s;
    }
  }
}

// A child forked after the helpers exist inherits them without their
// threads; its parallel_for runs every share inline and completes.
TEST(ParallelForTest, ForkedChildCompletesInline) {
  const std::size_t shares = 2 * parallel_width() + 1;
  parallel_for(shares, [](std::size_t) {});  // the helpers exist now
  EXPECT_EXIT(
      {
        std::vector<std::size_t> out(shares, 0);
        parallel_for(shares, [&out](std::size_t s) { out[s] = s + 1; });
        bool ok = true;
        for (std::size_t s = 0; s < shares; ++s) ok = ok && out[s] == s + 1;
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(FaultInjectorScoping, AtSuffixMatchesExactThenBaseThenWildcard) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();

  // Exact instance rule: only that instance fires.
  injector.configure("train.loss@shard1:nan:1.0");
  EXPECT_TRUE(std::isnan(injector.poison("train.loss@shard1", 1.0)));
  EXPECT_EQ(injector.poison("train.loss@shard0", 1.0), 1.0);
  EXPECT_EQ(injector.poison("train.loss", 1.0), 1.0);

  // Bare base rule: every instance of the site fires.
  injector.configure("train.loss:nan:1.0");
  EXPECT_TRUE(std::isnan(injector.poison("train.loss", 1.0)));
  EXPECT_TRUE(std::isnan(injector.poison("train.loss@shard2", 1.0)));
  EXPECT_EQ(injector.poison("other.site@shard2", 1.0), 1.0);

  // Wildcard reaches scoped sites too.
  injector.configure("all:nan:1.0");
  EXPECT_TRUE(std::isnan(injector.poison("train.loss@shard7", 1.0)));
}

// Each armed site draws from its own seeded RNG stream, so the fire
// schedule at one site is a pure function of (spec, seed, site, draw
// index) — two threads hammering different instances of a site must each
// observe the exact count a serial run of their site observes, no matter
// how the scheduler interleaves them.
TEST(FaultInjectorThreading, PerSiteSchedulesAreInterleavingInvariant) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  constexpr std::size_t kDrawsPerThread = 1000;

  struct Counts {
    std::size_t a = 0;
    std::size_t b = 0;
  };
  auto count_nans = [&injector](const char* site) -> std::size_t {
    std::size_t local = 0;
    for (std::size_t i = 0; i < kDrawsPerThread; ++i) {
      if (std::isnan(injector.poison(site, 0.0))) ++local;
    }
    return local;
  };
  auto run_pair = [&]() -> Counts {
    injector.configure("sync.test:nan:0.5", /*seed=*/1234);
    Mutex mu;
    Counts counts;
    {
      ThreadPool pool(2);
      pool.submit([&] {
        const std::size_t local = count_nans("sync.test@a");
        MutexLock lock(mu);
        counts.a = local;
      });
      pool.submit([&] {
        const std::size_t local = count_nans("sync.test@b");
        MutexLock lock(mu);
        counts.b = local;
      });
      pool.wait_idle();
    }
    EXPECT_EQ(counts.a + counts.b, injector.fires());
    return counts;
  };

  const Counts first = run_pair();
  const Counts second = run_pair();
  EXPECT_EQ(first.a, second.a);
  EXPECT_EQ(first.b, second.b);
  EXPECT_GT(first.a + first.b, 0u);
  EXPECT_LT(first.a + first.b, 2 * kDrawsPerThread);

  // The same draws made serially land on identical *per-site* counts —
  // the old shared-stream injector only guaranteed the combined total.
  injector.configure("sync.test:nan:0.5", /*seed=*/1234);
  Counts serial;
  serial.a = count_nans("sync.test@a");
  serial.b = count_nans("sync.test@b");
  EXPECT_EQ(serial.a, first.a);
  EXPECT_EQ(serial.b, first.b);

  // Distinct instances of one base site get uncorrelated streams: with
  // 1000 draws at p=0.5 each, identical schedules would be a hash bug.
  EXPECT_NE(serial.a, 0u);
  EXPECT_NE(serial.b, 0u);
}

}  // namespace
}  // namespace advtext

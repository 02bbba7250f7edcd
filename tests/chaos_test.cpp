// Chaos-model conformance tests: the IO fault modes through the io_file
// choke point and the artifact envelope, MemoryBudget / MemoryReservation
// semantics, Heartbeat/Watchdog stall detection and re-arming, expiry
// promptness (Deadline / query-budget consumers return best-so-far with a
// typed termination promptly, never hang), memory-pressure degradation of
// the parallel sweep, and the daemon's torn-result / torn-journal recovery
// validation. These are the in-process halves of the invariants the seeded
// campaign in tools/chaos/ checks end-to-end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/joint_attack.h"
#include "src/data/synthetic.h"
#include "src/eval/pipeline.h"
#include "src/nn/checkpoint.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/service/daemon.h"
#include "src/service/protocol.h"
#include "src/util/io_file.h"
#include "src/util/robust.h"
#include "src/util/serialize.h"
#include "src/util/stop_token.h"
#include "src/util/stopwatch.h"
#include "src/util/sync.h"
#include "tests/state_dir.h"

namespace advtext {
namespace {

// Restores the environment-driven injector configuration (the CI
// fault-injection legs) when a test that armed its own spec finishes.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().configure(""); }
  ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
};

// Returns the process MemoryBudget to unlimited with zeroed accounting on
// scope exit (it is a singleton; a leaked limit would poison later tests).
struct BudgetGuard {
  ~BudgetGuard() { MemoryBudget::instance().reset(); }
};

// A scratch file for one test, named per process and removed with it.
ScopedTempFile test_file(const std::string& name) {
  return ScopedTempFile("advtext_chaos_", name);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Overwrites `path` with raw bytes, bypassing the atomic writer — this is
// how the tests forge the torn fragments that AtomicFileWriter can never
// produce on its own.
void clobber(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// IO fault modes through io_file + the artifact envelope

TEST(IoFileFaults, TornWritePublishesOnlyARejectableFragment) {
  InjectorGuard guard;
  const ScopedTempFile file = test_file("torn.bin");
  const std::string& path = file.path();
  const std::string payload(256, 'x');

  FaultInjector::instance().configure("io.write:torn:1");
  EXPECT_THROW(io::save_artifact(path, payload), std::runtime_error);
  // The fragment lands under the FINAL path (that is the fault model), but
  // it has lost its footer, so the envelope refuses it.
  ASSERT_TRUE(file_exists(path));
  const std::string fragment = slurp(path);
  EXPECT_LT(fragment.size(), payload.size() + 16u);  // strict prefix
  FaultInjector::instance().configure("");
  EXPECT_THROW((void)io::load_artifact(path), std::runtime_error);

  // A clean re-save fully repairs the file (recovery's overwrite path).
  io::save_artifact(path, payload);
  EXPECT_EQ(io::load_artifact(path), payload);
}

TEST(IoFileFaults, EnospcLeavesThePreviousArtifactIntact) {
  InjectorGuard guard;
  const ScopedTempFile file = test_file("enospc.bin");
  const std::string& path = file.path();
  const std::string old_payload = "the good bytes";
  io::save_artifact(path, old_payload);

  FaultInjector::instance().configure("io.write:enospc:1");
  try {
    io::save_artifact(path, std::string(512, 'y'));
    FAIL() << "enospc mode must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("ENOSPC"), std::string::npos);
  }
  FaultInjector::instance().configure("");

  // Atomic publication: a full disk mid-write never touches the final
  // path, so the previous artifact is still bitwise intact.
  EXPECT_EQ(io::load_artifact(path), old_payload);
}

TEST(IoFileFaults, ShortReadAndCorruptNeverYieldAVerifiedWrongPayload) {
  InjectorGuard guard;
  const ScopedTempFile file = test_file("readfaults.bin");
  const std::string& path = file.path();
  const std::string payload(300, 'z');
  io::save_artifact(path, payload);

  // A racing truncation (strict prefix) loses the footer: the load fails.
  FaultInjector::instance().configure("io.read:short-read:1");
  EXPECT_THROW((void)io::load_artifact(path), std::runtime_error);

  // A flipped bit must be caught by the CRC footer — or, if it lands in the
  // footer itself, by the footer check. Never a silently-wrong payload.
  FaultInjector::instance().configure("io.read:corrupt:1");
  try {
    (void)io::load_artifact(path);
    FAIL() << "corrupt read returned a verified payload";
  } catch (const std::runtime_error&) {
    // CRC mismatch or a damaged footer: both refuse the bytes.
  }

  FaultInjector::instance().configure("");
  EXPECT_EQ(io::load_artifact(path), payload);
}

TEST(IoFileFaults, EintrIsTransparentAtModerateRateAndTypedInAStorm) {
  InjectorGuard guard;
  const ScopedTempFile file = test_file("eintr.bin");
  const std::string& path = file.path();

  // Sporadic EINTR-class hiccups are retried inside the shim: every save
  // and load below must succeed as if no fault were armed. The schedule is
  // seeded, so this is deterministic, not flaky.
  FaultInjector::instance().configure("io.write:eintr:0.2,io.read:eintr:0.2");
  for (int i = 0; i < 20; ++i) {
    const std::string payload = "round " + std::to_string(i);
    io::save_artifact(path, payload);
    EXPECT_EQ(io::load_artifact(path), payload);
  }

  // A p=1.0 storm exhausts the bounded retries and throws — typed, never
  // an infinite retry loop.
  FaultInjector::instance().configure("io.write:eintr:1");
  EXPECT_THROW(io::save_artifact(path, "doomed"), std::runtime_error);
  FaultInjector::instance().configure("io.read:eintr:1");
  EXPECT_THROW((void)io::load_artifact(path), std::runtime_error);
  FaultInjector::instance().configure("");
}

TEST(IoFileFaults, TornDamageIsDeterministicUnderFixedSpecAndSeed) {
  InjectorGuard guard;
  const ScopedTempFile file_a = test_file("torn_a.bin");
  const ScopedTempFile file_b = test_file("torn_b.bin");
  const std::string& path_a = file_a.path();
  const std::string& path_b = file_b.path();
  const std::string payload(513, 'q');

  FaultInjector::instance().configure("io.write:torn:1");
  EXPECT_THROW(io::save_artifact(path_a, payload), std::runtime_error);
  FaultInjector::instance().configure("io.write:torn:1");  // reseed
  EXPECT_THROW(io::save_artifact(path_b, payload), std::runtime_error);
  FaultInjector::instance().configure("");

  // Same spec, same (default) seed, same write sequence: the fragments are
  // bitwise identical. The chaos campaign's run-twice oracle needs exactly
  // this reproducibility of the damage itself.
  EXPECT_EQ(slurp(path_a), slurp(path_b));
}

// ---------------------------------------------------------------------------
// MemoryBudget / MemoryReservation

TEST(MemoryBudgetTest, ReservesDeniesAndReleasesWithCountedDenials) {
  BudgetGuard guard;
  MemoryBudget& budget = MemoryBudget::instance();
  budget.reset();
  budget.set_limit_bytes(1000);

  ASSERT_TRUE(budget.try_reserve(600));
  EXPECT_EQ(budget.used_bytes(), 600u);
  EXPECT_FALSE(budget.try_reserve(600));  // 1200 > 1000
  EXPECT_EQ(budget.denials(), 1u);
  EXPECT_EQ(budget.used_bytes(), 600u) << "a denial must not charge";
  ASSERT_TRUE(budget.try_reserve(400));  // exactly at the limit
  EXPECT_FALSE(budget.try_reserve(1));
  budget.release(1000);
  EXPECT_EQ(budget.used_bytes(), 0u);

  // A request larger than the whole limit is denied even from empty.
  EXPECT_FALSE(budget.try_reserve(1001));
  // Unlimited (0) admits anything and only tracks usage.
  budget.set_limit_bytes(0);
  EXPECT_TRUE(budget.try_reserve(std::size_t{1} << 30));
  budget.release(std::size_t{1} << 30);
}

TEST(MemoryBudgetTest, ReservationIsRaiiAndMoveOnly) {
  BudgetGuard guard;
  MemoryBudget& budget = MemoryBudget::instance();
  budget.reset();
  budget.set_limit_bytes(100);

  {
    MemoryReservation r = MemoryReservation::try_acquire(80);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(budget.used_bytes(), 80u);

    MemoryReservation denied = MemoryReservation::try_acquire(80);
    EXPECT_FALSE(denied.ok());
    EXPECT_EQ(budget.denials(), 1u);

    // Move transfers ownership without double-charging...
    MemoryReservation moved = std::move(r);
    EXPECT_TRUE(moved.ok());
    EXPECT_EQ(budget.used_bytes(), 80u);
    // ...and move-assignment releases the destination's old holding.
    MemoryReservation other = MemoryReservation::try_acquire(20);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(budget.used_bytes(), 100u);
    other = std::move(moved);
    EXPECT_EQ(budget.used_bytes(), 80u);
  }
  // Scope exit releases everything: the budget is whole again.
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_TRUE(budget.try_reserve(100));
  budget.release(100);
}

// ---------------------------------------------------------------------------
// Heartbeat / Watchdog

TEST(WatchdogTest, ReportsOneStallPerEpisodeAndReArms) {
  ThreadPool pool(1);
  Mutex mu;
  CondVar cv;
  bool release = false;  // guarded by mu

  Watchdog::Config config;
  config.stall_ms = 40.0;
  config.poll_ms = 5.0;
  Watchdog watchdog(pool.heartbeats(), config,
                    [](std::size_t index, const std::string&, double) {
                      EXPECT_EQ(index, 0u);
                    });

  const auto stall_until_released = [&] {
    MutexLock lock(mu);
    while (!release) cv.wait(mu);  // busy, never beating: a stalled worker
    release = false;
  };
  const auto wait_for_stall_count = [&](std::size_t want) {
    Stopwatch clock;
    while (watchdog.stalls() < want && clock.elapsed_ms() < 5000.0) {
      MutexLock lock(mu);
      (void)cv.wait_for_ms(mu, 5);
    }
    return watchdog.stalls();
  };
  const auto release_worker = [&] {
    MutexLock lock(mu);
    release = true;
    cv.notify_all();
  };

  (void)pool.submit(stall_until_released);
  ASSERT_EQ(wait_for_stall_count(1), 1u) << "stall not detected";
  // Still stalled several poll periods later: it is STILL one episode — a
  // detector that re-fires every poll would flood the daemon's warning log.
  {
    Stopwatch clock;
    while (clock.elapsed_ms() < 8 * config.poll_ms) {
      MutexLock lock(mu);
      (void)cv.wait_for_ms(mu, 10);
    }
  }
  EXPECT_EQ(watchdog.stalls(), 1u) << "one report per stall episode";
  release_worker();
  pool.wait_idle();

  // Progress re-arms the detector: a NEW stall is a new episode.
  (void)pool.submit(stall_until_released);
  const std::size_t stalls = wait_for_stall_count(2);
  release_worker();
  pool.wait_idle();
  EXPECT_EQ(stalls, 2u) << "watchdog did not re-arm after progress";
}

// The stall bound is far beyond any time a loaded scheduler keeps a
// runnable thread off a CPU, so only a real stall could trip it; each
// window spans two stall bounds.
TEST(WatchdogTest, QuietWhileIdleAndWhileBeating) {
  ThreadPool pool(1);
  Watchdog::Config config;
  config.stall_ms = 250.0;
  config.poll_ms = 5.0;
  const double window_ms = 2 * config.stall_ms;
  Watchdog watchdog(pool.heartbeats(), config, nullptr);

  // A beating worker is never a stall, no matter how long it runs.
  (void)pool.submit([window_ms] {
    Heartbeat* heart = ThreadPool::current();
    if (heart == nullptr) return;
    Stopwatch clock;
    while (clock.elapsed_ms() < window_ms) heart->beat();
  });
  pool.wait_idle();
  EXPECT_EQ(watchdog.stalls(), 0u);

  // An idle pool (no task, not busy) is never a stall either.
  Mutex mu;
  CondVar cv;
  {
    MutexLock lock(mu);
    Stopwatch clock;
    while (clock.elapsed_ms() < window_ms) {
      (void)cv.wait_for_ms(mu, 10);
    }
  }
  EXPECT_EQ(watchdog.stalls(), 0u);
}

// ---------------------------------------------------------------------------
// Shared trained model for the attack-level and daemon-level tests

class ChaosAttackFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new SynthTask(make_yelp(71));
    context_ = new TaskAttackContext(*task_);
    model_ = new WCnn(wcnn_config(), Matrix(task_->paragram));
    TrainConfig train;
    train.epochs = 8;
    train_classifier(*model_, task_->train, train);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete context_;
    delete task_;
    model_ = nullptr;
    context_ = nullptr;
    task_ = nullptr;
  }
  void TearDown() override { StopToken::instance().clear(); }

  static WCnnConfig wcnn_config() {
    WCnnConfig config;
    config.embed_dim = task_->config.embedding_dim;
    config.num_filters = 32;
    return config;
  }

  // Replica-factory contract: fresh WCnn over the same task, trained
  // weights copied bitwise, no shared mutable state.
  static std::unique_ptr<TextClassifier> make_replica() {
    auto replica =
        std::make_unique<WCnn>(wcnn_config(), Matrix(task_->paragram));
    copy_model_params(*model_, *replica);
    return replica;
  }

  static SynthTask* task_;
  static TaskAttackContext* context_;
  static WCnn* model_;
};

SynthTask* ChaosAttackFixture::task_ = nullptr;
TaskAttackContext* ChaosAttackFixture::context_ = nullptr;
WCnn* ChaosAttackFixture::model_ = nullptr;

// ---------------------------------------------------------------------------
// Expiry promptness: deadline and query-budget consumers return typed
// best-so-far results promptly — the liveness half of "no hangs, ever".

TEST_F(ChaosAttackFixture, EveryWordMethodHonorsAnExpiredDeadlinePromptly) {
  InjectorGuard guard;
  const Document& doc = task_->test.docs.front();
  const std::size_t target = 1 - static_cast<std::size_t>(doc.label);
  for (const WordAttackMethod method :
       {WordAttackMethod::kGradientGuidedGreedy,
        WordAttackMethod::kObjectiveGreedy, WordAttackMethod::kGradient}) {
    JointAttackConfig config;
    config.word_method = method;
    config.success_threshold = 1.1;  // unreachable: only expiry can end it
    config.deadline_ms = 1e-4;       // expired at the first check
    Stopwatch clock;
    const JointAttackResult result =
        joint_attack(*model_, doc, target, context_->resources(), config);
    EXPECT_EQ(result.termination, TerminationReason::kDeadlineExceeded)
        << "method " << static_cast<int>(method);
    EXPECT_FALSE(result.success);
    EXPECT_LT(clock.elapsed_ms(), 2000.0)
        << "an expired deadline must end the attack promptly, not after "
           "more search";
    // Best-so-far contract: a structurally valid document comes back.
    EXPECT_EQ(result.adv_doc.sentences.size(), doc.sentences.size());
  }
}

TEST_F(ChaosAttackFixture, JointQueryBudgetExhaustionIsTypedAndPrompt) {
  InjectorGuard guard;
  const Document& doc = task_->test.docs.front();
  const std::size_t target = 1 - static_cast<std::size_t>(doc.label);
  JointAttackConfig config;
  config.success_threshold = 1.1;
  config.max_queries = 1;
  Stopwatch clock;
  const JointAttackResult result =
      joint_attack(*model_, doc, target, context_->resources(), config);
  EXPECT_EQ(result.termination, TerminationReason::kBudgetExhausted);
  EXPECT_FALSE(result.success);
  EXPECT_LT(clock.elapsed_ms(), 2000.0);
  EXPECT_EQ(result.adv_doc.sentences.size(), doc.sentences.size());
}

TEST_F(ChaosAttackFixture, SweepDeadlineExpiryIsTypedAndPrompt) {
  InjectorGuard guard;
  AttackEvalConfig config;
  config.max_docs = 4;
  config.sweep_deadline = Deadline::after_ms(-1.0);  // already expired
  Stopwatch clock;
  const AttackEvalResult result =
      evaluate_attack(*model_, *task_, *context_, config);
  EXPECT_EQ(result.termination, TerminationReason::kDeadlineExceeded);
  EXPECT_LT(clock.elapsed_ms(), 2000.0);
  EXPECT_LT(result.docs_evaluated, 4u)
      << "an expired sweep deadline must stop admission before the sweep "
         "finishes";
}

// ---------------------------------------------------------------------------
// Memory-pressure degradation of the parallel sweep

TEST_F(ChaosAttackFixture, ParallelSweepDegradesToSerialUnderMemoryPressure) {
  InjectorGuard injector;
  BudgetGuard guard;
  AttackEvalConfig config;
  config.max_docs = 4;
  const AttackEvalResult serial =
      evaluate_attack(*model_, *task_, *context_, config);

  // A budget just below one model replica's estimated footprint: the
  // 2-thread sweep must shed its extra worker (counted denial) and still
  // produce results bitwise identical to the serial run — worker-count
  // degradation changes throughput, never output. The limit stays large
  // enough for the word phase's per-document candidate reservations, so
  // the candidate shrink ladder (which DOES change trajectories) never
  // engages.
  const std::size_t replica_bytes =
      model_->embedding_table().size() * sizeof(float) +
      (std::size_t{1} << 16);
  MemoryBudget::instance().reset();
  MemoryBudget::instance().set_limit_bytes(replica_bytes - 1);
  AttackEvalConfig squeezed = config;
  squeezed.threads = 2;
  squeezed.make_model_replica = [] { return make_replica(); };
  const AttackEvalResult degraded =
      evaluate_attack(*model_, *task_, *context_, squeezed);

  EXPECT_GE(MemoryBudget::instance().denials(), 1u)
      << "the replica reservation was never attempted";
  EXPECT_EQ(degraded.termination, serial.termination);
  EXPECT_EQ(degraded.docs_evaluated, serial.docs_evaluated);
  EXPECT_EQ(degraded.docs_attacked, serial.docs_attacked);
  EXPECT_EQ(degraded.success_rate, serial.success_rate);
  EXPECT_EQ(degraded.adversarial_accuracy, serial.adversarial_accuracy);
  EXPECT_EQ(degraded.sweep_queries_used, serial.sweep_queries_used);
  ASSERT_EQ(degraded.adv_docs.size(), serial.adv_docs.size());
  for (std::size_t i = 0; i < serial.adv_docs.size(); ++i) {
    EXPECT_EQ(degraded.adv_docs[i].flatten(), serial.adv_docs[i].flatten())
        << "adv doc " << i << " diverged under degradation";
  }
}

// ---------------------------------------------------------------------------
// Daemon recovery validation under forged torn files

TEST_F(ChaosAttackFixture, TornResultFragmentIsReRunBitwiseIdentically) {
  InjectorGuard guard;  // bitwise claims need clean storage
  const ScopedStateDir scoped_dir("advtext_chaos_", "torn_result");
  const std::string& state_dir = scoped_dir.path();
  DaemonConfig config;
  config.state_dir = state_dir;
  config.workers = 1;

  // Seed the state dir with one completed job by forging its journal (the
  // exact bytes handle_connection writes) and recovering it — no sockets.
  JobRequest request;
  request.client = "chaos";
  request.model = "wcnn";
  request.max_docs = 2;
  {
    AttackDaemon mkdir_only(*task_, *context_, {{"wcnn", model_}}, config);
    ASSERT_EQ(mkdir_only.recover(), 0u);
    std::ostringstream journal;
    io::write_magic(journal);
    io::write_string(journal, "advtextd-job");
    io::write_u64(journal, 1);
    io::write_string(journal, encode_job_request(request));
    io::save_artifact(state_dir + "/job1.job", journal.str());
    AttackDaemon fresh(*task_, *context_, {{"wcnn", model_}}, config);
    ASSERT_EQ(fresh.recover(), 1u);
  }
  const std::string result_path = state_dir + "/job1.result";
  const std::string good_result = slurp(result_path);
  ASSERT_FALSE(good_result.empty());

  // Forge a torn fragment: a strict prefix under the final path, exactly
  // what io.write:torn leaves behind when the process dies mid-publish.
  clobber(result_path, good_result.substr(0, good_result.size() / 2));

  // Recovery must treat the fragment as NOT done (presence is not a
  // done-marker), re-run the job, and converge to the identical bytes.
  AttackDaemon again(*task_, *context_, {{"wcnn", model_}}, config);
  EXPECT_EQ(again.recover(), 1u);
  EXPECT_EQ(slurp(result_path), good_result);

  // And a valid result IS a done-marker: one more recovery is a no-op.
  AttackDaemon done(*task_, *context_, {{"wcnn", model_}}, config);
  EXPECT_EQ(done.recover(), 0u);
}

TEST_F(ChaosAttackFixture, UnreadableJournalBecomesOneTypedErrorResult) {
  InjectorGuard guard;
  const ScopedStateDir scoped_dir("advtext_chaos_", "torn_journal");
  const std::string& state_dir = scoped_dir.path();
  DaemonConfig config;
  config.state_dir = state_dir;
  config.workers = 1;
  {
    // Construct once to create the state dir, then forge a torn journal.
    AttackDaemon mkdir_only(*task_, *context_, {{"wcnn", model_}}, config);
  }
  clobber(state_dir + "/job1.job", "ADVTEXT1 but torn mid-");

  // The request bytes are gone, so the job cannot be re-run: recovery must
  // park a typed kError result and warn — not loop, not throw.
  AttackDaemon daemon(*task_, *context_, {{"wcnn", model_}}, config);
  EXPECT_EQ(daemon.recover(), 0u);
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.jobs_errored, 1u);
  EXPECT_EQ(stats.worst_job, TerminationReason::kError);
  ASSERT_FALSE(stats.warnings.empty());
  EXPECT_NE(stats.warnings.front().find("journal unreadable"),
            std::string::npos);

  // The typed kError result is durable: the NEXT recovery neither rescans
  // nor double-counts the dead job.
  AttackDaemon next(*task_, *context_, {{"wcnn", model_}}, config);
  EXPECT_EQ(next.recover(), 0u);
  EXPECT_EQ(next.stats().jobs_errored, 0u);
}

}  // namespace
}  // namespace advtext

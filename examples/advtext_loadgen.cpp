// advtext_loadgen — concurrent load generator for advtextd.
//
// Spawns K client threads, each submitting N attack jobs to a running
// daemon and draining the streamed per-document results. Used by the
// bench-service CI job (sustained docs/sec, p50/p99 job latency) and as a
// manual smoke test for admission control: point it at a small daemon
// (--workers 1 --max-pending 1) and watch overload come back as typed
// kOverload rejections instead of hangs.
//
//   advtext_loadgen --socket /tmp/advtextd.sock --clients 4 --jobs 2
//                   --docs 3 --json BENCH_service.json
//
// Exit code 0 means every job got a *typed* response (JobComplete or
// JobRejected) — the daemon shed load correctly even if it rejected
// everything; 1 means a job saw a transport error, EOF mid-stream, or no
// daemon at all.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/service/net.h"
#include "src/service/protocol.h"
#include "src/util/args.h"
#include "src/util/robust.h"
#include "src/util/stopwatch.h"
#include "src/util/sync.h"

namespace {

using namespace advtext;

int usage() {
  std::printf(
      "usage: advtext_loadgen --socket PATH [--clients K] [--jobs N]\n"
      "                       [--docs D] [--model KIND]\n"
      "                       [--deadline-ms X] [--max-queries N]\n"
      "                       [--job-deadline-ms X] [--job-max-queries N]\n"
      "                       [--read-timeout-ms X] [--json FILE]\n"
      "exit codes: 0 every job got a typed response, 1 errors, 2 usage\n");
  return 2;
}

// Every flag main() reads; anything else is a usage error.
const std::vector<std::string> kFlags = {
    "clients", "deadline-ms", "docs", "job-deadline-ms", "job-max-queries",
    "jobs", "json", "max-queries", "model", "read-timeout-ms", "socket"};

/// One job's fate, written only by its own client thread (preallocated
/// slot: no shared mutation, no lock).
struct JobOutcome {
  bool responded = false;  ///< saw JobComplete or JobRejected
  bool completed = false;
  bool rejected = false;
  RejectReason reason = RejectReason::kInternal;  ///< valid iff rejected
  bool timed_out = false;        ///< read timeout waiting on the daemon
  bool protocol_error = false;   ///< malformed or out-of-order frame
  bool transport_error = false;  ///< connect/transport failure
  std::size_t docs = 0;  ///< DocResult frames streamed back
  double latency_ms = 0.0;
};

/// Typed per-client tallies: admission control is per client, so operators
/// need to see WHICH client was shed and WHY, not just a global count.
struct ClientTally {
  std::size_t completed = 0;
  std::size_t rejected_overload = 0;
  std::size_t rejected_budget = 0;
  std::size_t rejected_resource = 0;
  std::size_t rejected_other = 0;
  std::size_t timeouts = 0;
  std::size_t protocol_errors = 0;
  std::size_t transport_errors = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::vector<std::string> unknown = args.unknown_flags(kFlags);
  if (!unknown.empty()) {
    std::fprintf(stderr, "advtext_loadgen: unknown flag --%s\n",
                 unknown.front().c_str());
    return usage();
  }
  const std::string socket_path = args.get_string("socket");
  if (socket_path.empty()) return usage();
  const std::size_t clients =
      static_cast<std::size_t>(args.get_int("clients", 2));
  const std::size_t jobs_per_client =
      static_cast<std::size_t>(args.get_int("jobs", 2));
  const std::string model = args.get_string("model", "wcnn");
  const double read_timeout_ms = args.get_double("read-timeout-ms", 120000.0);
  const std::string json_path = args.get_string("json");

  JobRequest base;
  base.model = model;
  base.max_docs = static_cast<std::uint64_t>(args.get_int("docs", 3));
  base.deadline_ms = args.get_double("deadline-ms", 0.0);
  base.max_queries = static_cast<std::uint64_t>(args.get_int("max-queries", 0));
  base.job_deadline_ms = args.get_double("job-deadline-ms", 0.0);
  base.job_max_queries =
      static_cast<std::uint64_t>(args.get_int("job-max-queries", 0));

  // The daemon may still be starting when we launch (CI starts both with
  // `&`): connect under a generous deterministic retry schedule.
  RetryPolicy::Config connect_retry;
  connect_retry.max_attempts = 40;
  connect_retry.initial_backoff_ms = 5.0;
  connect_retry.multiplier = 1.5;
  connect_retry.max_backoff_ms = 250.0;

  std::vector<JobOutcome> outcomes(clients * jobs_per_client);
  Stopwatch wall;
  {
    ThreadPool pool(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      (void)pool.submit([&, c] {
        const RetryPolicy retry(connect_retry, 0x10adull + c);
        for (std::size_t j = 0; j < jobs_per_client; ++j) {
          JobOutcome& slot = outcomes[c * jobs_per_client + j];
          Stopwatch job_clock;
          try {
            Connection conn;
            const Outcome<std::size_t> connected =
                retry.run("connect", [&] { conn = connect_unix(socket_path); });
            if (!connected.ok()) {
              slot.transport_error = true;
              std::fprintf(stderr, "loadgen: client %zu job %zu: %s\n", c, j,
                           connected.failure().message.c_str());
              continue;
            }
            conn.set_read_timeout_ms(read_timeout_ms);
            JobRequest request = base;
            request.client = "client" + std::to_string(c);
            conn.write_frame(encode_job_request(request));
            std::string payload;
            bool done = false;
            while (!done && conn.read_frame(payload)) {
              switch (peek_type(payload)) {
                case MessageType::kJobAccepted:
                  break;  // stream follows
                case MessageType::kDocResult:
                  ++slot.docs;
                  break;
                case MessageType::kJobRejected: {
                  const JobRejected rejected = decode_job_rejected(payload);
                  slot.responded = true;
                  slot.rejected = true;
                  slot.reason = rejected.reason;
                  done = true;
                  break;
                }
                case MessageType::kJobComplete:
                  slot.responded = true;
                  slot.completed = true;
                  done = true;
                  break;
                default:
                  // Protocol confusion: give up on this job, and make the
                  // run exit nonzero — an out-of-order frame is a daemon
                  // bug, not load shedding.
                  slot.protocol_error = true;
                  done = true;
                  break;
              }
            }
          } catch (const ProtocolError& error) {
            // net.cpp types a receive-timeout stall as a ProtocolError;
            // split it out so a slow daemon reads as "timeout", not "the
            // daemon spoke garbage".
            if (std::string(error.what()).find("timed out") !=
                std::string::npos) {
              slot.timed_out = true;
            } else {
              slot.protocol_error = true;
            }
            std::fprintf(stderr, "loadgen: client %zu job %zu: %s\n", c, j,
                         error.what());
          } catch (const std::runtime_error& error) {
            slot.transport_error = true;
            std::fprintf(stderr, "loadgen: client %zu job %zu: %s\n", c, j,
                         error.what());
          }
          slot.latency_ms = job_clock.elapsed_ms();
        }
      });
    }
    pool.wait_idle();
  }
  const double wall_seconds = wall.elapsed_seconds();

  std::size_t completed = 0;
  std::size_t overloaded = 0;
  std::size_t rejected_budget = 0;
  std::size_t rejected_resource = 0;
  std::size_t rejected_other = 0;
  std::size_t timeouts = 0;
  std::size_t protocol_errors = 0;
  std::size_t unresponded = 0;
  std::size_t docs_streamed = 0;
  std::vector<ClientTally> per_client(clients);
  std::vector<double> latencies;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const JobOutcome& slot = outcomes[i];
    ClientTally& tally = per_client[i / jobs_per_client];
    if (slot.completed) {
      ++completed;
      ++tally.completed;
      latencies.push_back(slot.latency_ms);
    } else if (slot.rejected) {
      switch (slot.reason) {
        case RejectReason::kOverload:
          ++overloaded;
          ++tally.rejected_overload;
          break;
        case RejectReason::kClientBudgetExhausted:
          ++rejected_budget;
          ++tally.rejected_budget;
          break;
        case RejectReason::kResource:
          ++rejected_resource;
          ++tally.rejected_resource;
          break;
        default:
          ++rejected_other;
          ++tally.rejected_other;
          break;
      }
    } else {
      ++unresponded;
    }
    if (slot.timed_out) {
      ++timeouts;
      ++tally.timeouts;
    }
    if (slot.protocol_error) {
      ++protocol_errors;
      ++tally.protocol_errors;
    }
    if (slot.transport_error) ++tally.transport_errors;
    docs_streamed += slot.docs;
  }
  std::sort(latencies.begin(), latencies.end());
  const std::size_t n = latencies.size();
  const double p50 = n == 0 ? 0.0 : latencies[n / 2];
  const double p99 = n == 0 ? 0.0 : latencies[std::min(n - 1, (99 * n) / 100)];
  const double docs_per_sec =
      wall_seconds <= 0.0 ? 0.0
                          : static_cast<double>(docs_streamed) / wall_seconds;

  std::printf(
      "loadgen: %zu clients x %zu jobs in %.2fs: %zu completed, rejected "
      "%zu overload / %zu budget / %zu resource / %zu other, %zu timeouts, "
      "%zu protocol errors, %zu unresponded; %zu docs streamed (%.2f "
      "docs/sec), job latency p50 %.1f ms p99 %.1f ms\n",
      clients, jobs_per_client, wall_seconds, completed, overloaded,
      rejected_budget, rejected_resource, rejected_other, timeouts,
      protocol_errors, unresponded, docs_streamed, docs_per_sec, p50, p99);
  for (std::size_t c = 0; c < clients; ++c) {
    const ClientTally& tally = per_client[c];
    std::printf(
        "  client%zu: %zu completed, rejected %zu overload / %zu budget / "
        "%zu resource / %zu other, %zu timeouts, %zu protocol errors, %zu "
        "transport errors\n",
        c, tally.completed, tally.rejected_overload, tally.rejected_budget,
        tally.rejected_resource, tally.rejected_other, tally.timeouts,
        tally.protocol_errors, tally.transport_errors);
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\"bench\": \"service\", \"clients\": %zu, \"jobs_requested\": %zu, "
        "\"jobs_completed\": %zu, \"jobs_rejected_overload\": %zu, "
        "\"jobs_rejected_budget\": %zu, \"jobs_rejected_resource\": %zu, "
        "\"jobs_rejected_other\": %zu, \"timeouts\": %zu, "
        "\"protocol_errors\": %zu, \"docs_streamed\": %zu, "
        "\"wall_seconds\": %.3f, \"docs_per_sec\": %.3f, "
        "\"p50_job_ms\": %.3f, \"p99_job_ms\": %.3f, "
        "\"hardware_threads\": %zu}\n",
        clients, outcomes.size(), completed, overloaded, rejected_budget,
        rejected_resource, rejected_other, timeouts, protocol_errors,
        docs_streamed, wall_seconds, docs_per_sec, p50, p99,
        hardware_threads());
    std::fclose(out);
  }
  // 0 strictly means "every job got a typed response and the daemon spoke
  // the protocol correctly"; protocol errors fail the run even when every
  // job eventually resolved.
  return (unresponded == 0 && protocol_errors == 0) ? 0 : 1;
}

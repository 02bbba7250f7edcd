// The daemon side of the benchmark: spawning the real advtextd and driving
// it from one generator process over at most a fixed number of
// connections. Every frame a job exchanges is timestamped on arrival.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/service/protocol.h"

namespace perfbench {

/// One advtextd process. The destructor kills and reaps a daemon that was
/// not stopped, so no path out of the driver leaves it running.
class DaemonProcess {
 public:
  /// Spawns argv[0] with argv; stdout and stderr go to `log_path`.
  DaemonProcess(const std::vector<std::string>& argv,
                const std::string& log_path);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Seconds from spawn until a connection to `socket` is accepted. Throws
  /// if the daemon exits or is not ready within `timeout_s`.
  double wait_ready(const std::string& socket, double timeout_s);

  /// SIGTERM, then reap (SIGKILL after `grace_s`). Returns the wait status;
  /// `maxrss_kb` receives the daemon's peak resident set.
  int stop(double grace_s, long* maxrss_kb);

 private:
  pid_t pid_ = -1;
  std::chrono::steady_clock::time_point spawned_;
};

/// One job's timeline, in seconds since the phase started.
struct JobTrace {
  std::uint64_t docs_requested = 0;
  double due = 0.0;
  double connect = -1.0;   ///< generator started connecting
  double accepted = -1.0;  ///< JobAccepted arrived
  double complete = -1.0;  ///< JobComplete or JobRejected arrived
  std::vector<double> doc_times;          ///< each DocResult's arrival
  std::vector<std::string> doc_payloads;  ///< raw DocResult payloads
  std::string complete_payload;
  bool completed = false;
  bool rejected = false;
  advtext::RejectReason reject_reason = advtext::RejectReason::kInternal;
  bool timed_out = false;
  bool protocol_error = false;
  bool transport_error = false;
};

/// Open loop: job i is due at `due[i]` seconds after the phase starts,
/// whether or not earlier jobs finished. At most `conns` jobs are in flight;
/// a due job that finds every connection busy waits, and its latency still
/// counts from its due time.
std::vector<JobTrace> run_open_loop(const std::string& socket,
                                    const advtext::JobRequest& base,
                                    const std::vector<double>& due,
                                    const std::vector<std::uint64_t>& sizes,
                                    std::size_t conns);

/// Closed loop: `conns` connections each send their next job as soon as
/// the previous one completes, until `seconds` have passed. Sizes are
/// taken in order from `sizes` (cycled).
std::vector<JobTrace> run_closed_loop(const std::string& socket,
                                      const advtext::JobRequest& base,
                                      const std::vector<std::uint64_t>& sizes,
                                      std::size_t conns, double seconds);

}  // namespace perfbench

#include "service_load.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "src/service/net.h"

namespace perfbench {

using advtext::Connection;
using advtext::JobRequest;
using advtext::MessageType;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kReadTimeoutMs = 20000.0;

double seconds_since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// One job over one fresh connection; every frame is stamped on arrival.
void run_job(const std::string& socket, const JobRequest& request,
             Clock::time_point origin, JobTrace& job) {
  job.connect = seconds_since(origin);
  try {
    Connection conn = advtext::connect_unix(socket);
    conn.set_read_timeout_ms(kReadTimeoutMs);
    conn.write_frame(advtext::encode_job_request(request));
    std::string payload;
    while (conn.read_frame(payload)) {
      const double t = seconds_since(origin);
      switch (advtext::peek_type(payload)) {
        case MessageType::kJobAccepted:
          job.accepted = t;
          continue;
        case MessageType::kDocResult:
          job.doc_times.push_back(t);
          job.doc_payloads.push_back(payload);
          continue;
        case MessageType::kJobRejected:
          job.complete = t;
          job.rejected = true;
          job.reject_reason = advtext::decode_job_rejected(payload).reason;
          return;
        case MessageType::kJobComplete:
          job.complete = t;
          job.completed = true;
          job.complete_payload = payload;
          return;
        default:
          job.protocol_error = true;
          return;
      }
    }
    job.protocol_error = true;  // closed before a terminal frame
  } catch (const advtext::ProtocolError& error) {
    if (std::string(error.what()).find("timed out") != std::string::npos) {
      job.timed_out = true;
    } else {
      job.protocol_error = true;
    }
  } catch (const std::exception&) {
    job.transport_error = true;  // connect or socket failure
  }
}

JobRequest sized(const JobRequest& base, std::uint64_t docs) {
  JobRequest request = base;
  request.max_docs = docs;
  return request;
}

}  // namespace

DaemonProcess::DaemonProcess(const std::vector<std::string>& argv,
                             const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                         0644);
  if (log < 0) throw std::runtime_error("cannot open " + log_path);
  spawned_ = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  if (pid_ < 0) throw std::runtime_error("fork failed");
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

double DaemonProcess::wait_ready(const std::string& socket,
                                 double timeout_s) {
  while (seconds_since(spawned_) < timeout_s) {
    try {
      Connection probe = advtext::connect_unix(socket);
      const double ready = seconds_since(spawned_);
      probe.close();
      return ready;
    } catch (const std::runtime_error&) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("advtextd exited before it was ready");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  throw std::runtime_error("advtextd not ready in time");
}

int DaemonProcess::stop(double grace_s, long* maxrss_kb) {
  ::kill(pid_, SIGTERM);
  const Clock::time_point asked = Clock::now();
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid_, &status, WNOHANG, &usage) == 0) {
    if (seconds_since(asked) > grace_s) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (maxrss_kb != nullptr) *maxrss_kb = usage.ru_maxrss;
  return status;
}

std::vector<JobTrace> run_open_loop(const std::string& socket,
                                    const JobRequest& base,
                                    const std::vector<double>& due,
                                    const std::vector<std::uint64_t>& sizes,
                                    std::size_t conns) {
  std::vector<JobTrace> jobs(due.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point origin = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t c = 0; c < conns; ++c) {
      workers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1)) {
          jobs[i].due = due[i];
          jobs[i].docs_requested = sizes[i];
          std::this_thread::sleep_until(
              origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due[i])));
          run_job(socket, sized(base, sizes[i]), origin, jobs[i]);
        }
      });
    }
  }  // jthreads join here
  return jobs;
}

std::vector<JobTrace> run_closed_loop(const std::string& socket,
                                      const JobRequest& base,
                                      const std::vector<std::uint64_t>& sizes,
                                      std::size_t conns, double seconds) {
  std::vector<std::vector<JobTrace>> per_conn(conns);
  std::atomic<std::size_t> next{0};
  const Clock::time_point origin = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t c = 0; c < conns; ++c) {
      workers.emplace_back([&, c] {
        while (seconds_since(origin) < seconds) {
          const std::uint64_t docs = sizes[next.fetch_add(1) % sizes.size()];
          JobTrace job;
          job.docs_requested = docs;
          job.due = seconds_since(origin);
          run_job(socket, sized(base, docs), origin, job);
          per_conn[c].push_back(std::move(job));
        }
      });
    }
  }
  std::vector<JobTrace> jobs;
  for (auto& list : per_conn) {
    for (auto& job : list) jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace perfbench

// advtextd wire protocol: typed, length-prefixed messages over a local
// stream socket.
//
// Framing (net.h): every message travels as a 4-byte little-endian payload
// length followed by the payload; payloads above kMaxFramePayloadBytes are
// rejected before any allocation, so a hostile or corrupt length prefix can
// never balloon daemon memory. Inside a payload the first u64 is the
// MessageType tag, then the message's fields in io:: serialization (the
// same fixed-width little-endian encoding the checkpoint artifacts use).
//
// Conversation, client side:
//   -> JobRequest
//   <- JobRejected (typed reason; connection done)            | or
//   <- JobAccepted, then zero or more DocResult frames streamed strictly
//      in ascending doc_index order as the sweep commits them, then one
//      JobComplete with the job's aggregate summary.
//
// Determinism contract: the wire encoding of a DocRecord (write_record,
// src/eval/pipeline.h) deliberately EXCLUDES attack.seconds — timing is a
// measurement of a particular run, not replayable state — so the byte
// stream a client sees (and the result artifact the daemon persists, which
// reuses this encoding) is bitwise-identical between an uninterrupted job
// and a killed-and-recovered one. Everything else in the record is
// replayed raw from the checkpoint.
//
// Malformed input (bad tag, out-of-range enum, trailing bytes, truncated
// payload) throws ProtocolError: the daemon kills that connection with a
// typed rejection and keeps serving — a client can never crash the daemon
// with bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/eval/pipeline.h"

namespace advtext {

/// Hard ceiling on a single frame's payload. Large enough for any DocResult
/// (documents are capped well below this by io::kMaxStringBytes-style
/// guards), small enough that a forged length prefix cannot OOM the daemon.
constexpr std::size_t kMaxFramePayloadBytes = 1u << 20;

/// A peer sent bytes that do not parse as the protocol (bad tag, bad enum,
/// truncated or oversized frame, trailing garbage). Kills the connection,
/// never the daemon.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class MessageType : std::uint64_t {
  kJobRequest = 1,
  kJobAccepted = 2,
  kJobRejected = 3,
  kDocResult = 4,
  kJobComplete = 5,
};

/// Why admission control refused a job. Typed so load generators and tests
/// can distinguish overload shedding from client error.
enum class RejectReason : std::uint64_t {
  kOverload = 1,               ///< pending-job queue full: back off, retry
  kClientBudgetExhausted = 2,  ///< this client's query ledger is spent
  kUnknownModel = 3,           ///< no served model under that name
  kShuttingDown = 4,           ///< daemon is draining; no new admissions
  kMalformed = 5,              ///< request did not parse / violated limits
  kInternal = 6,               ///< daemon-side failure before the job ran
  kResource = 7,               ///< MemoryBudget denied the job's reservation
};

const char* to_string(RejectReason reason);

/// One attack job. `client` keys the per-client admission budget; `model`
/// names a served model. Per-doc knobs mirror JointAttackConfig; job-wide
/// knobs (job_deadline_ms / job_max_queries) map onto the sweep-granular
/// controls of AttackEvalConfig.
struct JobRequest {
  std::string client;
  std::string model;
  std::uint64_t max_docs = 0;       ///< 0 = whole test set
  double deadline_ms = 0.0;         ///< per-document wall clock (0 = none)
  std::uint64_t max_queries = 0;    ///< per-document query cap (0 = none)
  double job_deadline_ms = 0.0;     ///< whole-job wall clock (0 = none)
  std::uint64_t job_max_queries = 0;  ///< whole-job query cap (0 = none)
  double sentence_fraction = 0.2;   ///< λs
  double word_fraction = 0.2;       ///< λw
  /// 0 = gradient-guided greedy (Alg. 3), 1 = objective greedy, 2 = gradient.
  std::uint64_t method = 0;
};

struct JobAccepted {
  std::uint64_t job_id = 0;
};

struct JobRejected {
  RejectReason reason = RejectReason::kInternal;
  std::string message;
};

/// Job-level aggregate, sent after the last DocResult. `termination` is the
/// sweep's worst-of severity fold (kSucceeded / kBudgetExhausted /
/// kDeadlineExceeded / kStopped / kError).
struct JobComplete {
  std::uint64_t job_id = 0;
  TerminationReason termination = TerminationReason::kSucceeded;
  std::uint64_t docs_evaluated = 0;
  std::uint64_t docs_attacked = 0;
  std::uint64_t docs_failed = 0;
  std::uint64_t sweep_queries_used = 0;
  double success_rate = 0.0;
  double adversarial_accuracy = 0.0;
};

// Payload encoders: the returned string is one frame payload (type tag +
// fields), ready for Connection::write_frame.
std::string encode_job_request(const JobRequest& request);
std::string encode_job_accepted(const JobAccepted& accepted);
std::string encode_job_rejected(const JobRejected& rejected);
std::string encode_doc_result(const DocRecord& record);
std::string encode_job_complete(const JobComplete& complete);

/// Type tag of a received payload without consuming it (dispatch).
MessageType peek_type(const std::string& payload);

// Payload decoders. Each validates the type tag, every enum range, and
// that the payload has no trailing bytes; violations throw ProtocolError.
JobRequest decode_job_request(const std::string& payload);
JobAccepted decode_job_accepted(const std::string& payload);
JobRejected decode_job_rejected(const std::string& payload);
DocRecord decode_doc_result(const std::string& payload);
JobComplete decode_job_complete(const std::string& payload);

}  // namespace advtext

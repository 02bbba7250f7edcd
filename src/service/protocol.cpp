#include "src/service/protocol.h"

#include <sstream>
#include <string>

#include "src/util/serialize.h"

namespace advtext {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kOverload:
      return "overload";
    case RejectReason::kClientBudgetExhausted:
      return "client_budget_exhausted";
    case RejectReason::kUnknownModel:
      return "unknown_model";
    case RejectReason::kShuttingDown:
      return "shutting_down";
    case RejectReason::kMalformed:
      return "malformed";
    case RejectReason::kResource:
      return "resource";
    case RejectReason::kInternal:
      return "internal";
  }
  return "unknown";
}

namespace {

void write_type(std::ostream& out, MessageType type) {
  io::write_u64(out, static_cast<std::uint64_t>(type));
}

MessageType decode_type(std::uint64_t raw) {
  if (raw < static_cast<std::uint64_t>(MessageType::kJobRequest) ||
      raw > static_cast<std::uint64_t>(MessageType::kJobComplete)) {
    throw ProtocolError("protocol: unknown message type tag " +
                        std::to_string(raw));
  }
  return static_cast<MessageType>(raw);
}

void expect_type(std::istream& in, MessageType want, const char* name) {
  const MessageType got = decode_type(io::read_u64(in));
  if (got != want) {
    throw ProtocolError(std::string("protocol: expected a ") + name +
                        " payload, got message type " +
                        std::to_string(static_cast<std::uint64_t>(got)));
  }
}

/// Every decoder ends here: trailing bytes mean the peer and we disagree
/// about the message layout — reject rather than silently ignore.
void expect_consumed(std::istream& in, const char* name) {
  if (in.peek() != std::char_traits<char>::eof()) {
    throw ProtocolError(std::string("protocol: trailing bytes after ") +
                        name + " payload");
  }
}

TerminationReason read_wire_termination(std::istream& in) {
  const std::uint64_t raw = io::read_u64(in);
  if (raw > static_cast<std::uint64_t>(TerminationReason::kError)) {
    throw ProtocolError("protocol: invalid termination reason " +
                        std::to_string(raw));
  }
  return static_cast<TerminationReason>(raw);
}

RejectReason read_wire_reject_reason(std::istream& in) {
  const std::uint64_t raw = io::read_u64(in);
  if (raw < static_cast<std::uint64_t>(RejectReason::kOverload) ||
      raw > static_cast<std::uint64_t>(RejectReason::kResource)) {
    throw ProtocolError("protocol: invalid reject reason " +
                        std::to_string(raw));
  }
  return static_cast<RejectReason>(raw);
}

}  // namespace

std::string encode_job_request(const JobRequest& request) {
  std::ostringstream out;
  write_type(out, MessageType::kJobRequest);
  io::write_string(out, request.client);
  io::write_string(out, request.model);
  io::write_u64(out, request.max_docs);
  io::write_double(out, request.deadline_ms);
  io::write_u64(out, request.max_queries);
  io::write_double(out, request.job_deadline_ms);
  io::write_u64(out, request.job_max_queries);
  io::write_double(out, request.sentence_fraction);
  io::write_double(out, request.word_fraction);
  io::write_u64(out, request.method);
  return out.str();
}

std::string encode_job_accepted(const JobAccepted& accepted) {
  std::ostringstream out;
  write_type(out, MessageType::kJobAccepted);
  io::write_u64(out, accepted.job_id);
  return out.str();
}

std::string encode_job_rejected(const JobRejected& rejected) {
  std::ostringstream out;
  write_type(out, MessageType::kJobRejected);
  io::write_u64(out, static_cast<std::uint64_t>(rejected.reason));
  io::write_string(out, rejected.message);
  return out.str();
}

std::string encode_doc_result(const DocRecord& record) {
  std::ostringstream out;
  write_type(out, MessageType::kDocResult);
  write_record(out, record);
  return out.str();
}

std::string encode_job_complete(const JobComplete& complete) {
  std::ostringstream out;
  write_type(out, MessageType::kJobComplete);
  io::write_u64(out, complete.job_id);
  io::write_u64(out, static_cast<std::uint64_t>(complete.termination));
  io::write_u64(out, complete.docs_evaluated);
  io::write_u64(out, complete.docs_attacked);
  io::write_u64(out, complete.docs_failed);
  io::write_u64(out, complete.sweep_queries_used);
  io::write_double(out, complete.success_rate);
  io::write_double(out, complete.adversarial_accuracy);
  return out.str();
}

MessageType peek_type(const std::string& payload) {
  std::istringstream in(payload);
  try {
    return decode_type(io::read_u64(in));
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::runtime_error& error) {
    // A truncated tag read surfaces as an io:: error; it is still a
    // malformed payload, so report it as one.
    throw ProtocolError(std::string("protocol: unreadable message type: ") +
                        error.what());
  }
}

namespace {

/// Runs a decoder body, converting io:: stream failures (truncation, size
/// guards) into ProtocolError so callers see exactly one malformed-input
/// exception type.
template <typename T, typename Fn>
T decode_payload(const std::string& payload, const char* name, Fn body) {
  std::istringstream in(payload);
  try {
    T value = body(in);
    expect_consumed(in, name);
    return value;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::runtime_error& error) {
    throw ProtocolError(std::string("protocol: malformed ") + name +
                        " payload: " + error.what());
  }
}

}  // namespace

JobRequest decode_job_request(const std::string& payload) {
  return decode_payload<JobRequest>(
      payload, "JobRequest", [](std::istream& in) {
        expect_type(in, MessageType::kJobRequest, "JobRequest");
        JobRequest request;
        request.client = io::read_string(in);
        request.model = io::read_string(in);
        request.max_docs = io::read_u64(in);
        request.deadline_ms = io::read_double(in);
        request.max_queries = io::read_u64(in);
        request.job_deadline_ms = io::read_double(in);
        request.job_max_queries = io::read_u64(in);
        request.sentence_fraction = io::read_double(in);
        request.word_fraction = io::read_double(in);
        request.method = io::read_u64(in);
        if (request.method > 2) {
          throw ProtocolError("protocol: unknown word-attack method " +
                              std::to_string(request.method));
        }
        if (request.client.empty()) {
          throw ProtocolError(
              "protocol: JobRequest needs a non-empty client name");
        }
        return request;
      });
}

JobAccepted decode_job_accepted(const std::string& payload) {
  return decode_payload<JobAccepted>(
      payload, "JobAccepted", [](std::istream& in) {
        expect_type(in, MessageType::kJobAccepted, "JobAccepted");
        JobAccepted accepted;
        accepted.job_id = io::read_u64(in);
        return accepted;
      });
}

JobRejected decode_job_rejected(const std::string& payload) {
  return decode_payload<JobRejected>(
      payload, "JobRejected", [](std::istream& in) {
        expect_type(in, MessageType::kJobRejected, "JobRejected");
        JobRejected rejected;
        rejected.reason = read_wire_reject_reason(in);
        rejected.message = io::read_string(in);
        return rejected;
      });
}

DocRecord decode_doc_result(const std::string& payload) {
  return decode_payload<DocRecord>(
      payload, "DocResult", [](std::istream& in) {
        expect_type(in, MessageType::kDocResult, "DocResult");
        return read_record(in);
      });
}

JobComplete decode_job_complete(const std::string& payload) {
  return decode_payload<JobComplete>(
      payload, "JobComplete", [](std::istream& in) {
        expect_type(in, MessageType::kJobComplete, "JobComplete");
        JobComplete complete;
        complete.job_id = io::read_u64(in);
        complete.termination = read_wire_termination(in);
        complete.docs_evaluated = io::read_u64(in);
        complete.docs_attacked = io::read_u64(in);
        complete.docs_failed = io::read_u64(in);
        complete.sweep_queries_used = io::read_u64(in);
        complete.success_rate = io::read_double(in);
        complete.adversarial_accuracy = io::read_double(in);
        return complete;
      });
}

}  // namespace advtext

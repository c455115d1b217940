#include "util/status.h"

namespace aethereal {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kVerificationFailed: return "VERIFICATION_FAILED";
    case StatusCode::kTimeout: return "TIMEOUT";
    case StatusCode::kRetriesExhausted: return "RETRIES_EXHAUSTED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status AlreadyExistsError(std::string message) {
  return Status(StatusCode::kAlreadyExists, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}
Status VerificationFailedError(std::string message) {
  return Status(StatusCode::kVerificationFailed, std::move(message));
}
Status TimeoutError(std::string message) {
  return Status(StatusCode::kTimeout, std::move(message));
}
Status RetriesExhaustedError(std::string message) {
  return Status(StatusCode::kRetriesExhausted, std::move(message));
}

}  // namespace aethereal

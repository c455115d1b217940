// Lightweight Status / Result error handling for recoverable failures.
//
// Configuration of a NoC can fail at run time (e.g. a tentative slot
// reservation is rejected in distributed configuration, Section 3 of the
// paper), so those paths return Status/Result instead of throwing.
// Programming errors (contract violations) use AETHEREAL_CHECK and abort.
#ifndef AETHEREAL_UTIL_STATUS_H
#define AETHEREAL_UTIL_STATUS_H

#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace aethereal {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something out of contract
  kNotFound,          // id / resource lookup failed
  kAlreadyExists,     // duplicate open, double reservation
  kResourceExhausted, // no free slots / queues / channels
  kFailedPrecondition,// operation in wrong state (e.g. channel not enabled)
  kOutOfRange,        // index outside table
  kVerificationFailed,// a runtime invariant or analytical GT bound broke
  kTimeout,           // a bounded wait (drain, config ack) expired
  kRetriesExhausted,  // retried up to the policy bound, every attempt lost
};

/// Human-readable name of a status code (stable, for logs and tests).
const char* StatusCodeName(StatusCode code);

/// Result of an operation that can fail without a value.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

inline Status OkStatus() { return Status::Ok(); }
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status ResourceExhaustedError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status VerificationFailedError(std::string message);
Status TimeoutError(std::string message);
Status RetriesExhaustedError(std::string message);

/// Result<T>: either a value or an error status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_STATUS_H

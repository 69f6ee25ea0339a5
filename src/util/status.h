// Lightweight Status / StatusOr error-handling vocabulary, in the style of
// Arrow / Abseil. Library code returns Status (or StatusOr<T>) instead of
// throwing; callers branch on ok().
#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace mrvd {

/// Error category for a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kIoError,
  kInternal,
};

/// Returns a human-readable name for a StatusCode ("OK", "InvalidArgument"...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error result. Cheap to copy in the OK case (no allocation).
/// [[nodiscard]]: silently dropping a Status hides failures (a campaign
/// artifact that never landed, a stream that died mid-run), so the compiler
/// flags every ignored return; discard deliberately with `(void)` plus a
/// comment saying why the failure cannot matter.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// IoError carrying the calling thread's current errno as strerror text:
/// "<context>: <strerror(errno)> (errno <n>)". Call immediately after the
/// failing operation, before anything else can clobber errno; with errno 0
/// (streams don't always preserve it) the suffix is dropped.
Status IoErrorFromErrno(const std::string& context);

/// Either a value of type T or an error Status. Mirrors arrow::Result /
/// absl::StatusOr with the subset of API this project needs.
/// [[nodiscard]] for the same reason as Status: an ignored StatusOr is an
/// ignored failure.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from value (success).
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Implicit from error status. Must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Requires ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value if ok(), otherwise `fallback`.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the current function.
#define MRVD_RETURN_NOT_OK(expr)            \
  do {                                      \
    ::mrvd::Status _st = (expr);            \
    if (!_st.ok()) return _st;              \
  } while (0)

}  // namespace mrvd

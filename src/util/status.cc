#include "util/status.h"

#include <cerrno>
#include <cstring>

namespace mrvd {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

Status IoErrorFromErrno(const std::string& context) {
  const int err = errno;
  if (err == 0) return Status::IoError(context);
  return Status::IoError(context + ": " + std::strerror(err) + " (errno " +
                         std::to_string(err) + ")");
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

}  // namespace mrvd

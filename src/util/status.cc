#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace ringo {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "Invalid argument";
    case StatusCode::kNotFound: return "Not found";
    case StatusCode::kAlreadyExists: return "Already exists";
    case StatusCode::kOutOfRange: return "Out of range";
    case StatusCode::kTypeMismatch: return "Type mismatch";
    case StatusCode::kIOError: return "IO error";
    case StatusCode::kNotImplemented: return "Not implemented";
    case StatusCode::kInternal: return "Internal error";
    case StatusCode::kCorruption: return "Corruption";
    case StatusCode::kDeadlineExceeded: return "Deadline exceeded";
    case StatusCode::kOverloaded: return "Overloaded";
    case StatusCode::kPermissionDenied: return "Permission denied";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  if (!message().empty()) {
    out += ": ";
    out += message();
  }
  return out;
}

void Status::Abort(const char* context) const {
  if (ok()) return;
  if (context != nullptr) {
    std::fprintf(stderr, "ringo: fatal status in %s: %s\n", context,
                 ToString().c_str());
  } else {
    std::fprintf(stderr, "ringo: fatal status: %s\n", ToString().c_str());
  }
  std::abort();
}

}  // namespace ringo

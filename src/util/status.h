// Status: lightweight error propagation for Ringo, modeled on the
// Arrow/RocksDB idiom. Functions that can fail return a Status (or a
// Result<T>, see util/result.h) instead of throwing; hot paths stay
// exception-free.
#ifndef RINGO_UTIL_STATUS_H_
#define RINGO_UTIL_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace ringo {

enum class StatusCode : char {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kTypeMismatch = 5,
  kIOError = 6,
  kNotImplemented = 7,
  kInternal = 8,
  kCorruption = 9,
  kDeadlineExceeded = 10,
  kOverloaded = 11,
  kPermissionDenied = 12,
};

// Returns a stable human-readable name for `code` ("Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

// A Status holds either success (the common case, represented without any
// allocation) or an error code plus message. Statuses are cheap to move and
// to copy in the OK case.
class Status {
 public:
  // Default constructed Status is OK.
  Status() noexcept = default;

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      state_ = std::make_unique<State>(State{code, std::move(msg)});
    }
  }

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status TypeMismatch(std::string msg) {
    return Status(StatusCode::kTypeMismatch, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  // Malformed or inconsistent persisted data (files that parse but violate
  // the format), as opposed to kIOError for filesystem-level failures.
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  // The query's deadline passed before (or while) it ran; any partial
  // result was discarded (src/serve/engine.h).
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  // The serving engine's admission queue was full and the query was shed
  // instead of queued unboundedly; safe to retry after backoff.
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  // The caller's policy forbids the operation (e.g. a served script's
  // load() of a server file); retrying the same request will not help.
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->msg : kEmpty;
  }

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsTypeMismatch() const { return code() == StatusCode::kTypeMismatch; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsNotImplemented() const { return code() == StatusCode::kNotImplemented; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsOverloaded() const { return code() == StatusCode::kOverloaded; }
  bool IsPermissionDenied() const {
    return code() == StatusCode::kPermissionDenied;
  }

  // "OK" or "<code name>: <message>".
  std::string ToString() const;

  // Aborts the process with the status message if not OK. Use only where an
  // error genuinely indicates a programming bug.
  void Abort(const char* context = nullptr) const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  std::unique_ptr<State> state_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace ringo

// Propagates a non-OK Status to the caller.
#define RINGO_RETURN_NOT_OK(expr)                  \
  do {                                             \
    ::ringo::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                     \
  } while (false)

// Aborts on a non-OK Status; for contexts (tests, examples) where failure is
// a bug rather than a recoverable condition.
#define RINGO_CHECK_OK(expr)                       \
  do {                                             \
    ::ringo::Status _st = (expr);                  \
    if (!_st.ok()) _st.Abort(#expr);               \
  } while (false)

#endif  // RINGO_UTIL_STATUS_H_

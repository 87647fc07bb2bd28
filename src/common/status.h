// Error handling primitives for the VAQ library.
//
// The library does not use exceptions (RocksDB/Arrow idiom). Fallible
// operations return `Status`, or `StatusOr<T>` when they also produce a
// value. Both are cheap to move and cheap to test for success.
#ifndef VAQ_COMMON_STATUS_H_
#define VAQ_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace vaq {

// Machine-readable error category carried by a `Status`. Checkpoints
// store a code by its number, so an enumerator keeps its value even when
// nothing constructs it (kAlreadyExists).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kAlreadyExists,
  kFailedPrecondition,
  kIoError,
  kCorruption,
  kUnimplemented,
  kInternal,
  kUnavailable,        // Transient outage; retrying later may succeed.
  kDeadlineExceeded,   // The operation ran past its time budget.
  kResourceExhausted,  // A quota or capacity limit was hit; shed load.
};

// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

// The result of an operation that can fail.
//
// A default-constructed `Status` is OK. Non-OK statuses carry a code and a
// message. Statuses are value types: copyable, movable, comparable for
// success.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

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
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// The result of an operation that either fails or yields a `T`.
//
// Access the value only after checking `ok()`; accessing the value of a
// non-OK result aborts in debug builds and is undefined otherwise.
template <typename T>
class StatusOr {
 public:
  // Implicit conversions mirror absl::StatusOr ergonomics: returning either
  // a `T` or a `Status` from a `StatusOr<T>` function "just works".
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

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

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace vaq

// Propagates a non-OK status from the evaluated expression.
#define VAQ_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::vaq::Status _vaq_status = (expr);          \
    if (!_vaq_status.ok()) return _vaq_status;   \
  } while (false)

// Evaluates a StatusOr expression, propagating errors and otherwise binding
// the value to `lhs`. `lhs` may include a declaration, e.g.
//   VAQ_ASSIGN_OR_RETURN(auto table, OpenTable(path));
#define VAQ_ASSIGN_OR_RETURN(lhs, expr)                        \
  VAQ_ASSIGN_OR_RETURN_IMPL_(                                  \
      VAQ_STATUS_CONCAT_(_vaq_statusor, __LINE__), lhs, expr)

#define VAQ_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr) \
  auto var = (expr);                               \
  if (!var.ok()) return var.status();              \
  lhs = std::move(var).value()

#define VAQ_STATUS_CONCAT_(a, b) VAQ_STATUS_CONCAT_IMPL_(a, b)
#define VAQ_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // VAQ_COMMON_STATUS_H_

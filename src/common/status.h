#ifndef PIOQO_COMMON_STATUS_H_
#define PIOQO_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace pioqo {

/// Error categories used across the library. Modeled after the
/// Arrow/RocksDB convention of a small fixed set of codes plus a free-form
/// message; no exceptions cross public API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kIoError,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kCancelled,
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeName(StatusCode code);

/// A success-or-error result for operations that return no value.
///
/// `Status` is cheap to copy in the success case (no allocation) and carries
/// a code plus message otherwise. Use the factory functions
/// (`Status::InvalidArgument(...)` etc.) to construct errors.
///
/// [[nodiscard]]: a dropped Status is a silently-ignored failure path, and
/// every build compiles with -Werror=unused-result, so it does not compile.
/// The compiler cannot see a Status discarded by a bare `co_await
/// device.Read(...);`; the lint suite's ERR001 rule flags that shape.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

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
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
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
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value of type `T` or an error `Status`. Never holds an OK
/// status without a value.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value or from an error status keeps call
  /// sites terse (`return value;` / `return Status::NotFound(...)`).
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : rep_(std::move(status)) {
    if (std::get<Status>(rep_).ok()) {
      rep_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(rep_);
  }

  /// Requires `ok()`.
  T& value() & { return std::get<T>(rep_); }
  const T& value() const& { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

/// Propagates a non-OK `Status` to the caller.
#define PIOQO_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::pioqo::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (false)

#define PIOQO_STATUS_CONCAT_IMPL(a, b) a##b
#define PIOQO_STATUS_CONCAT(a, b) PIOQO_STATUS_CONCAT_IMPL(a, b)

/// Evaluates `rexpr` (a StatusOr) and assigns the value to `lhs`, or
/// propagates the error.
#define PIOQO_ASSIGN_OR_RETURN(lhs, rexpr)                          \
  auto PIOQO_STATUS_CONCAT(_statusor_, __LINE__) = (rexpr);         \
  if (!PIOQO_STATUS_CONCAT(_statusor_, __LINE__).ok())              \
    return PIOQO_STATUS_CONCAT(_statusor_, __LINE__).status();      \
  lhs = std::move(PIOQO_STATUS_CONCAT(_statusor_, __LINE__)).value()

}  // namespace pioqo

#endif  // PIOQO_COMMON_STATUS_H_

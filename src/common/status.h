#ifndef INFERTURBO_COMMON_STATUS_H_
#define INFERTURBO_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace inferturbo {

/// Error categories used across the library. Modeled after the
/// RocksDB/Arrow convention: operations on hot paths report failure via
/// Status instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kOutOfMemory,   ///< A simulated or real memory budget was exceeded.
  kIoError,
  kInternal,
  kNotImplemented,
  kAborted,
  kDeadlineExceeded,  ///< An attempt overran its per-attempt deadline.
  kUnavailable,       ///< Transient failure; the operation may be retried.
};

/// Returns a stable human-readable name for `code` (e.g. "OutOfMemory").
std::string_view StatusCodeToString(StatusCode code);

/// A cheap value type carrying success or an error code plus message.
///
/// The OK state allocates nothing. Construct errors through the static
/// factories: `Status::InvalidArgument("bad dim")`.
class Status {
 public:
  Status() = default;

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

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
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// The same code with `msg` as the message — how a layer that adds
  /// context keeps the code it was handed. Must not be called on OK.
  Status WithMessage(std::string msg) const {
    return Status(code_, std::move(msg));
  }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Propagates a non-OK status to the caller. Usable only in functions
/// returning Status.
#define INFERTURBO_RETURN_NOT_OK(expr)             \
  do {                                             \
    ::inferturbo::Status _s = (expr);              \
    if (!_s.ok()) return _s;                       \
  } while (0)

}  // namespace inferturbo

#endif  // INFERTURBO_COMMON_STATUS_H_

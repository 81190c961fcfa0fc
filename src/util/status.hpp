#pragma once
/// \file status.hpp
/// \brief Recoverable-error taxonomy for library code.
///
/// `Status` carries *recoverable* outcomes — malformed input, an
/// unroutable net, a cancelled search, an exhausted budget — through
/// return values instead of exceptions or aborts. `OCR_ASSERT` remains
/// reserved for programming contracts (see assert.hpp); everything a
/// caller could reasonably handle travels as a Status.
///
/// A Status is a kind plus optional context: the pipeline stage that
/// produced it, the net it concerns, and (for parsers) a line/column
/// position. `StatusOr<T>` is the value-or-status composite used by
/// factory-style functions.

#include <optional>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace ocr::util {

/// Failure taxonomy. Stable small set: callers switch on it to pick a
/// degradation rung, and tools map it to exit codes.
enum class StatusKind {
  kOk = 0,
  kInvalidArgument,    ///< caller passed something unusable
  kParseError,         ///< malformed input text (line/column set)
  kUnroutable,         ///< no path exists in the search space
  kCancelled,          ///< a cancellation token fired mid-operation
  kDeadlineExceeded,   ///< wall-clock deadline hit (util::CancelSource)
  kBudgetExhausted,    ///< per-net effort budget spent
  kFaultInjected,      ///< a registered fault fired (tests/CI only)
  kTaskFailed,         ///< a pool task threw; exception captured
  kIoError,            ///< file system failure
  kInternal,           ///< invariant violated but recoverable in context
};

/// Short lower-case tag for messages and trace events ("parse", ...).
const char* status_kind_name(StatusKind kind);

class [[nodiscard]] Status {
 public:
  /// Default = OK.
  Status() = default;
  Status(StatusKind kind, std::string message)
      : kind_(kind), message_(std::move(message)) {}

  static Status invalid_argument(std::string msg) {
    return Status(StatusKind::kInvalidArgument, std::move(msg));
  }
  static Status parse_error(std::string msg) {
    return Status(StatusKind::kParseError, std::move(msg));
  }
  static Status unroutable(std::string msg) {
    return Status(StatusKind::kUnroutable, std::move(msg));
  }
  static Status cancelled(std::string msg) {
    return Status(StatusKind::kCancelled, std::move(msg));
  }
  static Status deadline_exceeded(std::string msg) {
    return Status(StatusKind::kDeadlineExceeded, std::move(msg));
  }
  static Status budget_exhausted(std::string msg) {
    return Status(StatusKind::kBudgetExhausted, std::move(msg));
  }
  static Status fault_injected(std::string msg) {
    return Status(StatusKind::kFaultInjected, std::move(msg));
  }
  static Status task_failed(std::string msg) {
    return Status(StatusKind::kTaskFailed, std::move(msg));
  }
  static Status io_error(std::string msg) {
    return Status(StatusKind::kIoError, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusKind::kInternal, std::move(msg));
  }

  bool ok() const { return kind_ == StatusKind::kOk; }
  StatusKind kind() const { return kind_; }
  const std::string& message() const { return message_; }

  /// Context builders (chainable; each returns *this by value semantics
  /// of the fluent style used at call sites).
  Status& with_stage(std::string stage) {
    stage_ = std::move(stage);
    return *this;
  }
  Status& with_net(int net_id) {
    net_id_ = net_id;
    return *this;
  }
  Status& at(int line, int column = 0) {
    line_ = line;
    column_ = column;
    return *this;
  }

  const std::string& stage() const { return stage_; }
  /// Net id the failure concerns, or -1.
  int net() const { return net_id_; }
  /// 1-based source line for parse errors, or 0.
  int line() const { return line_; }
  /// 1-based source column for parse errors, or 0.
  int column() const { return column_; }

  /// "[kind] stage: line L:C: net N: message" with absent parts elided.
  std::string to_string() const;

  friend bool operator==(const Status&, const Status&) = default;

 private:
  StatusKind kind_ = StatusKind::kOk;
  std::string message_;
  std::string stage_;
  int net_id_ = -1;
  int line_ = 0;
  int column_ = 0;
};

/// Value-or-Status. A StatusOr either holds a T (status is OK) or a
/// non-OK Status; accessing the value of a failed StatusOr asserts.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {
    OCR_ASSERT(!status_.ok(), "StatusOr built from OK status needs a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    OCR_ASSERT(ok(), "value() on failed StatusOr");
    return *value_;
  }
  T& value() & {
    OCR_ASSERT(ok(), "value() on failed StatusOr");
    return *value_;
  }
  T&& value() && {
    OCR_ASSERT(ok(), "value() on failed StatusOr");
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

}  // namespace ocr::util

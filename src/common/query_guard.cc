#include "common/query_guard.h"

#include <algorithm>
#include <string>

#include "common/value.h"

namespace fgac::common {

QueryGuard::QueryGuard(const QueryLimits& limits, const QueryGuard* parent)
    : limits_(limits),
      parent_(parent),
      cancel_(std::make_shared<std::atomic<bool>>(false)) {
  if (limits_.has_timeout()) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() + limits_.timeout;
  }
  // A child never outlives its parent's deadline.
  if (parent_ != nullptr && parent_->has_deadline_) {
    deadline_ = has_deadline_ ? std::min(deadline_, parent_->deadline_)
                              : parent_->deadline_;
    has_deadline_ = true;
  }
  // Children account against the same global budget (own release though:
  // a probe's build state dies with the probe, not with the query).
  if (parent_ != nullptr) tracker_ = parent_->tracker_;
}

QueryGuard::~QueryGuard() {
  if (tracker_ != nullptr) {
    uint64_t n = tracker_charged_.load(std::memory_order_relaxed);
    if (n > 0) tracker_->Release(n);
  }
}

bool QueryGuard::cancelled() const {
  if (cancel_->load(std::memory_order_acquire)) return true;
  if (external_cancel_ != nullptr &&
      external_cancel_->load(std::memory_order_acquire)) {
    return true;
  }
  return parent_ != nullptr && parent_->cancelled();
}

Status QueryGuard::Check() const {
  if (cancelled()) return Status::Cancelled("query cancelled");
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return Status::Timeout("query deadline of " +
                           std::to_string(limits_.timeout.count()) +
                           "us exceeded");
  }
  return Status::OK();
}

Status QueryGuard::ChargeRows(uint64_t n) {
  uint64_t total = rows_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_rows > 0 && total > limits_.max_rows) {
    return Status::ResourceExhausted(
        "row budget of " + std::to_string(limits_.max_rows) +
        " rows exceeded");
  }
  return Check();
}

Status QueryGuard::ChargeBytes(uint64_t n) {
  if (tracker_ != nullptr) {
    FGAC_RETURN_NOT_OK(tracker_->Charge(n));
    tracker_charged_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t total = bytes_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_memory_bytes > 0 && total > limits_.max_memory_bytes) {
    return Status::ResourceExhausted(
        "memory budget of " + std::to_string(limits_.max_memory_bytes) +
        " bytes exceeded");
  }
  return Check();
}

uint64_t ApproxRowBytes(size_t arity) {
  return sizeof(Row) + static_cast<uint64_t>(arity) * sizeof(Value);
}

}  // namespace fgac::common

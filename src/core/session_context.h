#ifndef FGAC_CORE_SESSION_CONTEXT_H_
#define FGAC_CORE_SESSION_CONTEXT_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/query_guard.h"
#include "common/value.h"

namespace fgac::core {

/// How queries are access-controlled (paper Sections 3 and 4).
enum class EnforcementMode {
  /// No access control; queries run as written (baseline / DBA mode).
  kNone,
  /// Truman model: every base relation is transparently replaced by its
  /// (parameterized) Truman policy view — the Oracle VPD approach.
  kTruman,
  /// Non-Truman model: the query must pass the validity test; if it does,
  /// it runs unmodified, otherwise it is rejected.
  kNonTruman,
};

const char* EnforcementModeName(EnforcementMode mode);

/// The `$` parameters of a session: name -> value.
using SessionParams = std::map<std::string, Value>;

/// Per-access execution context: the logged-in user and the values of the
/// `$` parameters used by parameterized authorization views ("when a user
/// logs in, a secure application context is created", Section 3.1).
/// `$user-id` is populated automatically from `user`.
class SessionContext {
 public:
  SessionContext() : session_id_(NextSessionId()) {}
  explicit SessionContext(std::string user)
      : user_(std::move(user)),
        session_id_(NextSessionId()),
        params_(std::make_shared<const SessionParams>(
            SessionParams{{"user-id", Value::String(user_)},
                          {"user_id", Value::String(user_)}})) {}

  const std::string& user() const { return user_; }

  /// Stable identifier of this session for audit events: auto-assigned
  /// ("s1", "s2", ...) and overridable with an application-level id.
  const std::string& session_id() const { return session_id_; }
  void set_session_id(std::string id) { session_id_ = std::move(id); }

  /// Sets a `$` parameter (e.g. "time", "user-location"). The map is
  /// immutable and shared by copies of this context, so setting one
  /// replaces it.
  void SetParam(const std::string& name, Value v) {
    auto params = std::make_shared<SessionParams>(*params_);
    (*params)[name] = std::move(v);
    params_ = std::move(params);
  }

  const SessionParams& params() const { return *params_; }
  /// The shared map behind params(): the statement cache keeps it with
  /// each entry variant instead of a copy.
  const std::shared_ptr<const SessionParams>& shared_params() const {
    return params_;
  }

  EnforcementMode mode() const { return mode_; }
  void set_mode(EnforcementMode mode) { mode_ = mode; }

  /// Per-session override of the database's `parallelism` option for this
  /// session's SELECTs: the task count of each scan pipeline the query
  /// decomposes into (all sessions' pipelines share one worker pool).
  /// 0 = inherit the database default.
  size_t exec_parallelism() const { return exec_parallelism_; }
  void set_exec_parallelism(size_t n) { exec_parallelism_ = n; }

  /// Weight of this session in the scheduler's weighted round-robin over
  /// sessions' ready task sets: a weight-3 session is granted ~3x the
  /// worker bandwidth of a weight-1 session while both have work queued.
  /// Clamped to >= 1.
  uint32_t scheduler_weight() const { return scheduler_weight_; }
  void set_scheduler_weight(uint32_t w) {
    scheduler_weight_ = w == 0 ? 1 : w;
  }

  /// Per-session override of the database's default QueryLimits (deadline,
  /// row/memory budgets, degradation policy). Unset = inherit.
  const std::optional<common::QueryLimits>& query_limits() const {
    return query_limits_;
  }
  void set_query_limits(common::QueryLimits limits) {
    query_limits_ = limits;
  }
  void clear_query_limits() { query_limits_.reset(); }

  /// Cross-thread cancellation: when set, every statement this session
  /// executes observes the token — another thread storing `true` makes the
  /// in-flight query unwind with kCancelled at its next guard check.
  const std::shared_ptr<std::atomic<bool>>& cancel_token() const {
    return cancel_token_;
  }
  void set_cancel_token(std::shared_ptr<std::atomic<bool>> token) {
    cancel_token_ = std::move(token);
  }

  /// When true, every SELECT this session executes collects an ExecStats
  /// (per-operator rows/chunks/time) and a ValidityTrace, attached to the
  /// ExecResult — the programmatic equivalent of EXPLAIN ANALYZE.
  bool profile() const { return profile_; }
  void set_profile(bool on) { profile_ = on; }

  /// When true, every statement this session executes records spans in the
  /// database's Tracer (validity rules, probe batches, rewriting, per-worker
  /// execution), exportable as Chrome-trace JSON.
  bool trace() const { return trace_; }
  void set_trace(bool on) { trace_ = on; }

  /// Trace id used for the next traced statement. 0 (default) = assign a
  /// fresh id per statement; a nonzero value pins the id so a caller can
  /// correlate spans across statements it groups itself.
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

 private:
  static std::string NextSessionId() {
    static std::atomic<uint64_t> next{0};
    const uint64_t id = next.fetch_add(1, std::memory_order_relaxed) + 1;
    return std::string("s").append(std::to_string(id));
  }

  std::string user_;
  std::string session_id_;
  std::shared_ptr<const SessionParams> params_ =
      std::make_shared<const SessionParams>();
  EnforcementMode mode_ = EnforcementMode::kNonTruman;
  size_t exec_parallelism_ = 0;
  uint32_t scheduler_weight_ = 1;
  std::optional<common::QueryLimits> query_limits_;
  std::shared_ptr<std::atomic<bool>> cancel_token_;
  bool profile_ = false;
  bool trace_ = false;
  uint64_t trace_id_ = 0;
};

}  // namespace fgac::core

#endif  // FGAC_CORE_SESSION_CONTEXT_H_

#include "server/connection_manager.h"

#include <utility>

#include "sql/parser.h"
#include "sql/printer.h"

namespace fgac::server {

using core::ExecResult;
using core::SessionContext;

Session::Session(core::Database& db, std::string id, std::string user,
                 core::EnforcementMode mode)
    : db_(db), id_(std::move(id)), ctx_(std::move(user)) {
  ctx_.set_session_id(id_);
  ctx_.set_mode(mode);
  cancel_ = std::make_shared<std::atomic<bool>>(false);
  // Explicit registration: the session shows in fgac_sessions for its
  // whole lifetime, idle included, until Close() deregisters it.
  db_.activity().OpenSession(id_, ctx_.user());
}

Session::~Session() { Close(); }

Result<std::shared_ptr<std::atomic<bool>>> Session::BeginStatement() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Cancelled("session " + id_ + " is closed");
  }
  if (interrupted_) {
    // The previous Interrupt() tripped the current token; statements that
    // were in flight keep the tripped one, new statements get a clean one.
    cancel_ = std::make_shared<std::atomic<bool>>(false);
    interrupted_ = false;
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  return cancel_;
}

void Session::EndStatement() {
  std::lock_guard<std::mutex> lock(mu_);
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    drained_.notify_all();
  }
}

Result<ExecResult> Session::Execute(std::string_view sql) {
  FGAC_ASSIGN_OR_RETURN(std::shared_ptr<std::atomic<bool>> token,
                        BeginStatement());
  struct SlotGuard {
    Session* s;
    ~SlotGuard() { s->EndStatement(); }
  } slot{this};

  // Run on a copy of the session context so a concurrent statement (or a
  // caller mutating context() between statements) never races with this
  // one, and so the cancel token is pinned to the statement.
  SessionContext ctx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ctx = ctx_;
  }
  ctx.set_cancel_token(token);

  Result<sql::StmtPtr> parsed = sql::Parser::ParseStatement(sql);
  if (!parsed.ok()) {
    db_.AuditSessionStatement(ctx, std::string(sql), parsed.status());
    return parsed.status();
  }
  const sql::Stmt& stmt = *parsed.value();
  switch (stmt.kind()) {
    case sql::StmtKind::kPrepare:
      return RunPrepare(static_cast<const sql::PrepareStmt&>(stmt), ctx);
    case sql::StmtKind::kExecute:
      return RunExecute(static_cast<const sql::ExecuteStmt&>(stmt), ctx);
    case sql::StmtKind::kDeallocate:
      return RunDeallocate(static_cast<const sql::DeallocateStmt&>(stmt),
                           ctx);
    case sql::StmtKind::kExplain: {
      const auto& ex = static_cast<const sql::ExplainStmt&>(stmt);
      if (ex.execute == nullptr) return db_.Execute(stmt, sql, ctx);
      // EXPLAIN [ANALYZE] EXECUTE resolves against THIS session's registry
      // (same scoping as EXECUTE itself).
      std::shared_ptr<core::PreparedStatement> prep;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = prepared_.find(ex.execute->name);
        if (it != prepared_.end()) prep = it->second;
      }
      if (prep == nullptr) {
        Status st = Status::InvalidArgument("unknown prepared statement '" +
                                            ex.execute->name + "'");
        db_.AuditSessionStatement(ctx, sql::StmtToSql(stmt), st);
        return st;
      }
      return db_.ExplainPrepared(ex, prep, ctx);
    }
    default:
      return db_.Execute(stmt, sql, ctx);
  }
}

Result<ExecResult> Session::RunPrepare(const sql::PrepareStmt& stmt,
                                       const SessionContext& ctx) {
  FGAC_ASSIGN_OR_RETURN(std::shared_ptr<core::PreparedStatement> prep,
                        db_.Prepare(stmt, ctx));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-PREPARE of an existing name replaces it (the old statement stays
    // alive for any EXECUTE already running against it).
    prepared_[stmt.name] = std::move(prep);
  }
  ExecResult out;
  out.message = "prepared " + stmt.name;
  return out;
}

Result<ExecResult> Session::RunExecute(const sql::ExecuteStmt& stmt,
                                       const SessionContext& ctx) {
  std::shared_ptr<core::PreparedStatement> prep;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = prepared_.find(stmt.name);
    if (it != prepared_.end()) prep = it->second;
  }
  if (prep == nullptr) {
    // Registries are per-session: a name prepared elsewhere is unknown
    // here by design.
    Status st = Status::InvalidArgument("unknown prepared statement '" +
                                        stmt.name + "'");
    db_.AuditSessionStatement(ctx, sql::StmtToSql(stmt), st);
    return st;
  }
  return db_.ExecutePrepared(prep, stmt.args, ctx);
}

Result<ExecResult> Session::RunDeallocate(const sql::DeallocateStmt& stmt,
                                          const SessionContext& ctx) {
  Status st = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stmt.name.empty()) {
      prepared_.clear();
    } else if (prepared_.erase(stmt.name) == 0) {
      st = Status::InvalidArgument("unknown prepared statement '" +
                                   stmt.name + "'");
    }
  }
  db_.AuditSessionStatement(ctx, sql::StmtToSql(stmt), st);
  if (!st.ok()) return st;
  ExecResult out;
  out.message = stmt.name.empty() ? "deallocated all prepared statements"
                                  : "deallocated " + stmt.name;
  return out;
}

void Session::Interrupt() {
  std::lock_guard<std::mutex> lock(mu_);
  cancel_->store(true, std::memory_order_release);
  interrupted_ = true;
}

void Session::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    cancel_->store(true, std::memory_order_release);
  }
  drained_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
  prepared_.clear();
  // After the drain: every statement has left the registry, so the session
  // record disappears cleanly (ids are never reused).
  db_.activity().CloseSession(id_);
}

std::vector<std::string> Session::PreparedNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(prepared_.size());
  for (const auto& [name, prep] : prepared_) names.push_back(name);
  return names;
}

std::shared_ptr<Session> ConnectionManager::Open(const std::string& user,
                                                 core::EnforcementMode mode) {
  uint64_t n = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string id = "conn-" + std::to_string(n);
  std::shared_ptr<Session> session(new Session(db_, id, user, mode));
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_[id] = session;
  }
  opened_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

std::shared_ptr<Session> ConnectionManager::Get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool ConnectionManager::Interrupt(const std::string& id) {
  std::shared_ptr<Session> session = Get(id);
  if (session == nullptr) return false;
  session->Interrupt();
  interrupts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ConnectionManager::Close(const std::string& id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  session->Close();
  closed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ConnectionManager::CloseAll() {
  std::map<std::string, std::shared_ptr<Session>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims.swap(sessions_);
  }
  for (auto& [id, session] : victims) {
    session->Close();
    closed_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ConnectionManager::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace fgac::server

#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "layers.h"

namespace fgac::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

core::EnforcementMode EngineMode(Mode m) {
  switch (m) {
    case Mode::kNone:
      return core::EnforcementMode::kNone;
    case Mode::kTruman:
      return core::EnforcementMode::kTruman;
    case Mode::kNonTruman:
      return core::EnforcementMode::kNonTruman;
  }
  return core::EnforcementMode::kNone;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void MustExec(server::Session& s, const std::string& sql) {
  Result<core::ExecResult> r = s.Execute(sql);
  if (!r.ok()) Die("setup statement failed: " + sql + ": " + r.status().ToString());
}

std::string GradeText(double g) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f", g);
  return buf;
}

/// The paper's authorization views, as bench/workload.h defines them.
constexpr const char* kViews = R"sql(
  create authorization view mygrades as
    select * from grades where student-id = $user-id;
  create authorization view costudentgrades as
    select grades.* from grades, registered
    where registered.student-id = $user-id
      and grades.course-id = registered.course-id;
  create authorization view myregistrations as
    select * from registered where student-id = $user-id;
  create authorization view avggrades as
    select course-id, avg(grade) from grades group by course-id;
  create authorization view regstudents as
    select registered.course-id, students.name, students.type
    from registered, students
    where students.student-id = registered.student-id;
)sql";

/// Prepared statement names per prepared shape.
const char* PreparedName(Shape s) {
  switch (s) {
    case Shape::kPoint:
      return "pt";
    case Shape::kOwnGrades:
      return "mine";
    case Shape::kOwnRegs:
      return "regs";
    default:
      return nullptr;
  }
}

}  // namespace

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kNone:
      return "none";
    case Mode::kTruman:
      return "truman";
    case Mode::kNonTruman:
      return "nontruman";
  }
  return "?";
}

bool MakeSpec(const std::string& name, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "portal") {
    s.students = 4000;
    s.courses = 50;
    s.principals = 512;
    s.clients = 4;
    s.write_share = 0.01;
    s.reads = {{Shape::kPoint, 0.5}, {Shape::kOwnGrades, 0.3},
               {Shape::kOwnRegs, 0.2}};
    s.prepared = true;
    s.truman_grades = "mygrades";
    s.truman_registered = "myregistrations";
    s.grants = {"mygrades", "myregistrations"};
  } else if (name == "analytics") {
    s.students = 5000;
    s.courses = 50;
    s.principals = 32;
    s.clients = 2;
    s.parallelism = 2;
    s.write_share = 0.05;
    s.reads = {{Shape::kCourseAvg, 0.9}, {Shape::kEnrollment, 0.1}};
    s.truman_grades = "costudentgrades";
    s.grants = {"avggrades", "regstudents"};
  } else if (name == "policy_churn") {
    s.students = 2000;
    s.courses = 50;
    s.principals = 2000;
    s.warm_principals = 16;
    // One client per database, as the engine orders no DML against
    // concurrent readers. One database alone would measure the speed of
    // whichever vCPU its client lands on; four spread over all of them,
    // and, unlike four clients on one database, none waits on another's
    // writes (see README, Steadiness).
    s.tenants = 4;
    s.clients = 1;
    s.write_share = 0.05;
    s.policy_share = 0.01;
    s.reads = {{Shape::kCourseGrades, 0.7}, {Shape::kPoint, 0.3}};
    s.truman_grades = "mygrades";
    // myregistrations makes the principal's own registration visible,
    // which the conditional rules need to accept a co-student query.
    s.grants = {"mygrades", "costudentgrades", "myregistrations"};
    s.churn_view = "costudentgrades";
  } else {
    return false;
  }
  *out = std::move(s);
  return true;
}

// ---------------------------------------------------------------------------
// Latch

void Latch::LockShared() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !writer_ && writers_waiting_ == 0; });
  ++readers_;
}

void Latch::UnlockShared() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--readers_ == 0) cv_.notify_all();
}

void Latch::Lock() {
  std::unique_lock<std::mutex> lock(mu_);
  ++writers_waiting_;
  cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
  --writers_waiting_;
  writer_ = true;
}

void Latch::Unlock() {
  std::lock_guard<std::mutex> lock(mu_);
  writer_ = false;
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Bench set-up

Bench::Bench(const Spec& spec, const Universe& pristine, uint64_t seed)
    : spec_(spec), universe_(pristine), seed_(seed) {
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  clients_ = std::min(spec_.clients, static_cast<int>(hw));
}

Bench::~Bench() {
  if (cm_ != nullptr) cm_->CloseAll();
}

int Bench::Principal(int i) const {
  // Spread the principals evenly over the student ids.
  return static_cast<int>(static_cast<int64_t>(i) * spec_.students /
                          spec_.principals);
}

void Bench::SetUp() {
  db_ = std::make_unique<core::Database>();
  universe_.Load(db_.get());
  if (Status st = db_->ExecuteScript(kViews); !st.ok()) {
    Die("creating views: " + st.ToString());
  }
  if (!spec_.truman_grades.empty() &&
      !db_->catalog().SetTrumanView("grades", spec_.truman_grades).ok()) {
    Die("binding the Truman view of grades");
  }
  if (!spec_.truman_registered.empty() &&
      !db_->catalog()
           .SetTrumanView("registered", spec_.truman_registered)
           .ok()) {
    Die("binding the Truman view of registered");
  }
  cm_ = std::make_unique<server::ConnectionManager>(*db_);
  for (int c = 0; c < clients_; ++c) {
    admin_.push_back(cm_->Open("admin", core::EnforcementMode::kNone));
  }
  principal_of_.assign(static_cast<size_t>(spec_.students), -1);
  churn_granted_.assign(static_cast<size_t>(spec_.students), 0);
  std::string grants;
  for (int i = 0; i < spec_.principals; ++i) {
    int s = Principal(i);
    principal_of_[static_cast<size_t>(s)] = i;
    for (const std::string& v : spec_.grants) {
      grants += "grant select on " + v + " to " + Universe::Sid(s) + ";";
    }
    if (!spec_.churn_view.empty()) churn_granted_[static_cast<size_t>(s)] = 1;
  }
  if (Status st = db_->ExecuteScript(grants); !st.ok()) {
    Die("granting views: " + st.ToString());
  }
  sessions_.resize(static_cast<size_t>(spec_.principals));
  for (int i = 0; i < spec_.principals; ++i) {
    auto session = cm_->Open(Universe::Sid(Principal(i)));
    if (spec_.parallelism != 0) {
      session->context().set_exec_parallelism(spec_.parallelism);
    }
    if (spec_.prepared) {
      MustExec(*session, "prepare pt as select grade from grades "
                         "where student-id = $user-id and course-id = $1");
      MustExec(*session, "prepare mine as select course-id, grade from "
                         "grades where student-id = $user-id");
      MustExec(*session, "prepare regs as select course-id from registered "
                         "where student-id = $user-id");
    }
    sessions_[static_cast<size_t>(i)] = std::move(session);
  }

  // Warm-up: every principal runs every statement it will run in the timed
  // phase once per mode, so caches hold the steady-state working set. The
  // clients split the principals as they will in the timed phase.
  std::vector<std::thread> threads;
  for (int c = 0; c < clients_; ++c) {
    threads.emplace_back([this, c] {
      int warm = spec_.warm_principals == 0 ? spec_.principals
                                            : spec_.warm_principals;
      for (int i = c; i < warm; i += clients_) {
        int s = Principal(i);
        for (const auto& [shape, weight] : spec_.reads) {
          (void)weight;
          bool per_course =
              shape == Shape::kPoint || shape == Shape::kCourseGrades;
          for (int r = 0; r < (per_course ? kRegsPerStudent : 1); ++r) {
            for (Mode m : {Mode::kNone, Mode::kTruman, Mode::kNonTruman}) {
              // Per-course variants only matter where a cache keys on them.
              if (r > 0 && m != Mode::kNonTruman) continue;
              Statement st;
              st.mode = m;
              st.shape = shape;
              st.student = s;
              st.course = universe_.Course(s, r);
              st.sql = ReadSql(st);
              latch_.LockShared();
              Step(st, c, /*full=*/true, nullptr, nullptr, nullptr);
              latch_.UnlockShared();
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (wrong_.load()) Die("wrong answer during warm-up");
}

// ---------------------------------------------------------------------------
// Statements

std::string Bench::AdhocSql(Shape shape, int course, const std::string& grades,
                            const std::string& registered) const {
  const std::string c = "'" + Universe::Cid(course) + "'";
  switch (shape) {
    case Shape::kPoint:
      return "select grade from " + grades +
             " where student-id = $user-id and course-id = " + c;
    case Shape::kOwnGrades:
      return "select course-id, grade from " + grades +
             " where student-id = $user-id";
    case Shape::kOwnRegs:
      return "select course-id from " + registered +
             " where student-id = $user-id";
    case Shape::kCourseAvg:
      return "select course-id, avg(grade) from " + grades +
             " group by course-id";
    case Shape::kEnrollment:
      return "select registered.course-id, students.type, count(*) "
             "from registered, students "
             "where students.student-id = registered.student-id "
             "group by registered.course-id, students.type";
    case Shape::kCourseGrades:
      return "select * from " + grades + " where course-id = " + c;
  }
  return "";
}

std::string Bench::ReadSql(const Statement& st) const {
  if (spec_.prepared) {
    const char* name = PreparedName(st.shape);
    if (st.shape == Shape::kPoint) {
      return std::string("execute ") + name + " ('" +
             Universe::Cid(st.course) + "')";
    }
    return std::string("execute ") + name;
  }
  return AdhocSql(st.shape, st.course, "grades", "registered");
}

Statement Bench::NextRead(Rng& rng, int client) const {
  Statement st;
  st.kind = Kind::kRead;
  st.mode = static_cast<Mode>(rng.Below(kModes));
  double u = rng.Unit();
  st.shape = spec_.reads.back().first;
  for (const auto& [shape, weight] : spec_.reads) {
    if (u < weight) {
      st.shape = shape;
      break;
    }
    u -= weight;
  }
  // Client c owns principals c, c + clients, ...
  int owned = (spec_.principals - client + clients_ - 1) / clients_;
  int i = client + clients_ * static_cast<int>(rng.Below(
                                  static_cast<uint64_t>(owned)));
  st.student = Principal(i);
  if (st.shape == Shape::kCourseGrades) {
    st.course = static_cast<int>(
        rng.Below(static_cast<uint64_t>(universe_.courses())));
  } else {
    st.course = universe_.Course(
        st.student, static_cast<int>(rng.Below(kRegsPerStudent)));
  }
  st.sql = ReadSql(st);
  return st;
}

Statement Bench::NextWrite(Rng& rng, Kind kind) const {
  Statement st;
  st.kind = kind;
  st.mode = Mode::kNone;
  if (kind == Kind::kPolicy) {
    st.student = Principal(static_cast<int>(
        rng.Below(static_cast<uint64_t>(spec_.principals))));
    std::string sid = Universe::Sid(st.student);
    st.sql = churn_granted_[static_cast<size_t>(st.student)]
                 ? "revoke select on " + spec_.churn_view + " from " + sid
                 : "grant select on " + spec_.churn_view + " to " + sid;
    return st;
  }
  st.student = static_cast<int>(
      rng.Below(static_cast<uint64_t>(universe_.students())));
  int r = static_cast<int>(rng.Below(kRegsPerStudent));
  st.course = universe_.Course(st.student, r);
  std::string key = "student-id = '" + Universe::Sid(st.student) +
                    "' and course-id = '" + Universe::Cid(st.course) + "'";
  if (!universe_.Graded(st.student, r)) {
    st.sql = "insert into grades values ('" + Universe::Sid(st.student) +
             "', '" + Universe::Cid(st.course) + "', " +
             GradeText(RandomGrade(rng)) + ")";
  } else if (rng.Below(3) == 0) {
    st.sql = "delete from grades where " + key;
  } else {
    st.sql = "update grades set grade = " + GradeText(RandomGrade(rng)) +
             " where " + key;
  }
  return st;
}

void Bench::Apply(const Statement& st) {
  if (st.kind == Kind::kPolicy) {
    char& g = churn_granted_[static_cast<size_t>(st.student)];
    g = g ? 0 : 1;
    return;
  }
  int r = universe_.Slot(st.student, st.course);
  if (st.sql.rfind("delete", 0) == 0) {
    universe_.ClearGrade(st.student, r);
  } else {
    // insert ... <grade>) / update ... set grade = <grade> where ...
    size_t at = st.sql.rfind("insert", 0) == 0 ? st.sql.rfind(", ") + 2
                                                : st.sql.find("= ") + 2;
    universe_.SetGrade(st.student, r, std::strtod(st.sql.c_str() + at, nullptr));
  }
}

Bench::Expectation Bench::Expect(const Statement& st) const {
  Expectation e;
  const Universe& u = universe_;
  switch (st.shape) {
    case Shape::kPoint:
      e.rows = u.PointGrade(st.student, st.course);
      break;
    case Shape::kOwnGrades:
      e.rows = u.OwnGrades(st.student);
      break;
    case Shape::kOwnRegs:
      e.rows = u.OwnRegistrations(st.student);
      break;
    case Shape::kCourseAvg:
      // Truman binds grades to costudentgrades in this workload: the
      // averages of the courses the principal is registered in.
      e.rows = u.CourseAverages(st.mode == Mode::kTruman ? st.student : -1);
      break;
    case Shape::kEnrollment:
      e.rows = u.Enrollment();
      break;
    case Shape::kCourseGrades:
      if (st.mode == Mode::kTruman) {
        // grades is bound to mygrades: only the principal's own row.
        e.rows = u.CourseGrades(st.course, st.student);
      } else if (st.mode == Mode::kNonTruman &&
                 !(churn_granted_[static_cast<size_t>(st.student)] &&
                   u.Slot(st.student, st.course) >= 0)) {
        // Valid only conditionally (C3) through costudentgrades: the
        // principal must hold the view and be registered in the course.
        e.accepted = false;
      } else {
        e.rows = u.CourseGrades(st.course, -1);
      }
      break;
  }
  return e;
}

bool Bench::Verify(const Result<core::ExecResult>& r, const Expectation& exp,
                   bool full, uint64_t* failed, std::string* why) {
  if (!r.ok()) {
    if (!exp.accepted && r.status().code() == StatusCode::kNotAuthorized) {
      return true;
    }
    ++*failed;
    *why = "unexpected status " + r.status().ToString();
    return true;
  }
  if (!exp.accepted) {
    // Accepting what the policy forbids is a wrong answer, not an error.
    *why = "accepted a statement the policy rejects";
    return false;
  }
  const storage::Relation& rel = r.value().relation;
  if (rel.num_rows() != exp.rows.size()) {
    *why = "expected " + std::to_string(exp.rows.size()) + " rows, got " +
           std::to_string(rel.num_rows());
    return false;
  }
  if (full && Canonical(rel.rows()) != Canonical(exp.rows)) {
    *why = "row contents differ from the oracle";
    return false;
  }
  return true;
}

server::Session& Bench::SessionFor(const Statement& st, int client) const {
  if (st.kind != Kind::kRead) return *admin_[static_cast<size_t>(client)];
  return *sessions_[static_cast<size_t>(
      principal_of_[static_cast<size_t>(st.student)])];
}

void Bench::Step(const Statement& st, int client, bool full, TraceSink* sink,
                 ClientStats* stats, Window* window) {
  server::Session& session = SessionFor(st, client);
  if (st.kind == Kind::kRead) session.context().set_mode(EngineMode(st.mode));
  Expectation exp;
  if (st.kind == Kind::kRead) exp = Expect(st);
  core::Database& db = *db_;
  uint64_t hits_before =
      sink != nullptr ? db.metrics().counter("validity.cache_hits").value() : 0;
  auto t0 = Clock::now();
  Result<core::ExecResult> r = session.Execute(st.sql);
  double ns = NsSince(t0);
  bool from_cache =
      sink != nullptr &&
      db.metrics().counter("validity.cache_hits").value() != hits_before;

  std::string why;
  bool ok = true;
  uint64_t failed = 0;
  if (st.kind == Kind::kRead) {
    ok = Verify(r, exp, full, &failed, &why);
  } else if (!r.ok()) {
    ++failed;
    why = "unexpected status " + r.status().ToString();
  } else {
    if (st.kind == Kind::kWrite && r.value().affected_rows != 1) {
      ok = false;
      why = "write affected " + std::to_string(r.value().affected_rows) +
            " rows, expected 1";
    }
    Apply(st);
  }
  if (!ok) {
    wrong_.store(true);
    std::fprintf(stderr, "perfbench: WRONG ANSWER [%s, %s, %s]: %s\n",
                 ModeName(st.mode), Universe::Sid(st.student).c_str(),
                 st.sql.c_str(), why.c_str());
  } else if (failed != 0) {
    std::fprintf(stderr, "perfbench: error [%s, %s]: %s\n", ModeName(st.mode),
                 st.sql.c_str(), why.c_str());
  }
  if (window != nullptr) {
    stats->failed += failed;
    stats->wrong += ok ? 0 : 1;
    ++window->done;
    // Expected rejections are answers too: they count in the latency of
    // their mode.
    if (st.kind == Kind::kRead && failed == 0) {
      window->read_us[static_cast<int>(st.mode)].push_back(ns / 1000.0);
    } else if (st.kind == Kind::kWrite && r.ok()) {
      window->write_us.push_back(ns / 1000.0);
    }
  }
  if (sink != nullptr) {
    sink->OnStatement(*this, client, st, session.context(), r, ns, from_cache);
  }
}

std::vector<ClientStats> Bench::Run(double seconds, uint64_t phase,
                                    TraceSink* sink, double* wall_s) {
  std::vector<ClientStats> stats(static_cast<size_t>(clients_));
  std::vector<std::thread> threads;
  auto start = Clock::now();
  auto window_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kWindows));
  auto end = start + window_len * kWindows;
  for (int c = 0; c < clients_; ++c) {
    threads.emplace_back([this, c, start, window_len, end, phase, sink,
                          &stats] {
      Rng rng(seed_ * 1000003ULL + phase * 7919ULL + static_cast<uint64_t>(c));
      ClientStats& cs = stats[static_cast<size_t>(c)];
      uint64_t n = 0;
      while (Clock::now() < end && !wrong_.load(std::memory_order_relaxed)) {
        double u = rng.Unit();
        Kind kind = u < spec_.policy_share                        ? Kind::kPolicy
                    : u < spec_.policy_share + spec_.write_share ? Kind::kWrite
                                                                  : Kind::kRead;
        // Every 8th statement of a client gets the full-content comparison;
        // the rest are checked on status and row count.
        bool full = (n++ % 8) == 0;
        Window& w = cs.windows[std::min<int64_t>(
            kWindows - 1, (Clock::now() - start) / window_len)];
        if (kind == Kind::kRead) {
          Statement st = NextRead(rng, c);
          latch_.LockShared();
          Step(st, c, full, sink, &cs, &w);
          latch_.UnlockShared();
        } else {
          latch_.Lock();
          Statement st = NextWrite(rng, kind);
          Step(st, c, full, sink, &cs, &w);
          latch_.Unlock();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return stats;
}

// ---------------------------------------------------------------------------
// Cross-mode equivalence and the oracle self-check

int Bench::CrossModeCheck(uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEEULL);
  int mismatches = 0;
  for (int k = 0; k < 48; ++k) {
    Statement st = NextRead(rng, static_cast<int>(rng.Below(
                                     static_cast<uint64_t>(clients_))));
    st.mode = k % 2 == 0 ? Mode::kTruman : Mode::kNonTruman;
    server::Session& session = SessionFor(st, 0);
    session.context().set_mode(EngineMode(st.mode));
    Result<core::ExecResult> got = session.Execute(st.sql);
    if (!got.ok()) {
      // A rejection has no rows to compare; the oracle already checked it.
      if (got.status().code() == StatusCode::kNotAuthorized &&
          !Expect(st).accepted) {
        continue;
      }
      ++mismatches;
      continue;
    }
    std::string reference =
        st.mode == Mode::kNonTruman
            ? AdhocSql(st.shape, st.course, "grades", "registered")
            : AdhocSql(st.shape, st.course,
                       spec_.truman_grades.empty() ? "grades"
                                                   : spec_.truman_grades,
                       spec_.truman_registered.empty()
                           ? "registered"
                           : spec_.truman_registered);
    session.context().set_mode(core::EnforcementMode::kNone);
    Result<core::ExecResult> want = session.Execute(reference);
    if (!want.ok() ||
        Canonical(want.value().relation.rows()) !=
            Canonical(got.value().relation.rows())) {
      std::fprintf(stderr, "perfbench: cross-mode mismatch [%s] %s vs %s\n",
                   ModeName(st.mode), st.sql.c_str(), reference.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

bool Bench::OracleSelfCheck() {
  Rng rng(seed_ ^ 0x5E1FULL);
  Statement st = NextRead(rng, 0);
  st.mode = Mode::kNone;
  server::Session& session = SessionFor(st, 0);
  session.context().set_mode(core::EnforcementMode::kNone);
  Result<core::ExecResult> r = session.Execute(st.sql);
  Expectation exp = Expect(st);
  // The corruption: one extra expected row.
  exp.rows.push_back(exp.rows.empty() ? Row{Value::Double(0.0)}
                                      : exp.rows.front());
  uint64_t failed = 0;
  std::string why;
  return r.ok() && !Verify(r, exp, true, &failed, &why) && failed == 0;
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v->size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return (*v)[idx];
}

}  // namespace fgac::perfbench

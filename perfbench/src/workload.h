#ifndef FGAC_PERFBENCH_WORKLOAD_H_
#define FGAC_PERFBENCH_WORKLOAD_H_

// The three workloads and the closed-loop runner that drives them: every
// client is a thread that sends one statement through a ConnectionManager
// session, waits for the reply, checks it against the oracle and only then
// sends the next.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "model.h"
#include "server/connection_manager.h"

namespace fgac::perfbench {

enum class Mode { kNone, kTruman, kNonTruman };
inline constexpr int kModes = 3;
const char* ModeName(Mode m);

/// Read statement shapes. The SQL is fixed per shape; only the course
/// constant (or EXECUTE argument) varies.
enum class Shape {
  kPoint,         // select grade from grades where student-id = $user-id
                  //   and course-id = <c>
  kOwnGrades,     // select course-id, grade ... where student-id = $user-id
  kOwnRegs,       // select course-id from registered where ... $user-id
  kCourseAvg,     // select course-id, avg(grade) ... group by course-id
  kEnrollment,    // registered ⋈ students, count(*) per course and type
  kCourseGrades,  // select * from grades where course-id = <c>
};

struct Spec {
  std::string name;
  int students = 0;
  int courses = 0;
  /// Students that log in; the rest exist only as data.
  int principals = 0;
  /// Principals the warm-up walks through (0 = all).
  int warm_principals = 0;
  /// Independent databases, each with its own data copy and clients, run
  /// side by side in the process.
  int tenants = 1;
  /// Clients per database.
  int clients = 1;
  /// Per-session exec parallelism (0 = the database default, 1).
  size_t parallelism = 0;
  /// Shares of all statements; the rest are reads.
  double write_share = 0.0;
  double policy_share = 0.0;
  std::vector<std::pair<Shape, double>> reads;
  /// Reads run as PREPARE once, then EXECUTE.
  bool prepared = false;
  /// Truman policy views: grades / registered bindings ("" = none).
  std::string truman_grades;
  std::string truman_registered;
  /// Views granted to every principal.
  std::vector<std::string> grants;
  /// The view GRANT/REVOKE statements toggle (policy_churn).
  std::string churn_view;
};

/// False when `name` is unknown.
bool MakeSpec(const std::string& name, Spec* out);

enum class Kind { kRead, kWrite, kPolicy };

/// One statement as a client sends it.
struct Statement {
  Kind kind = Kind::kRead;
  Mode mode = Mode::kNone;
  Shape shape = Shape::kPoint;
  int student = -1;  // the principal for reads / policy, target for writes
  int course = -1;
  std::string sql;
};

/// Writer-preferring reader/writer latch. The engine does not yet order
/// DML or GRANT/REVOKE against concurrent readers, so the application side
/// of the benchmark does: reads share the latch, writes take it alone.
class Latch {
 public:
  void LockShared();
  void UnlockShared();
  void Lock();
  void Unlock();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

/// Layer replay hook (layers.h), called for every traced statement while
/// the statement's latch is still held.
struct TraceSink;

/// A timed phase is cut into this many equal windows by send time. Each
/// end-to-end metric is the median of its per-window values, so a burst of
/// host noise that spoils one window does not move it.
inline constexpr int kWindows = 4;

/// Samples of one window.
struct Window {
  std::vector<double> read_us[kModes];
  std::vector<double> write_us;
  uint64_t done = 0;  // statements of every class
};

/// Per-client results of one timed phase.
struct ClientStats {
  Window windows[kWindows];
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

/// One fully set-up database for one workload: data, views, grants,
/// Truman bindings, sessions, prepared statements, warmed caches.
class Bench {
 public:
  /// `seed` drives the statement streams; tenants of one run pass
  /// different ones.
  Bench(const Spec& spec, const Universe& pristine, uint64_t seed);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Creates everything and warms up. Exits the process on a setup error
  /// or a wrong answer during warm-up.
  void SetUp();

  /// Runs the closed loop on spec().clients threads for `seconds`.
  /// `sink` (may be null) receives every statement for layer replay.
  /// Returns per-client stats; wall time of the phase in `*wall_s`.
  std::vector<ClientStats> Run(double seconds, uint64_t phase,
                               TraceSink* sink, double* wall_s);

  /// Re-runs a fixed sample of statements in a quiet database and compares
  /// Non-Truman answers with the none-mode answer of the same SQL, and
  /// Truman answers with the admin-mode query over the bound view. Returns
  /// the number of mismatches.
  int CrossModeCheck(uint64_t seed);

  /// Feeds the oracle a deliberately wrong expectation; true when the
  /// oracle rejects it, as it must.
  bool OracleSelfCheck();

  const Spec& spec() const { return spec_; }
  core::Database& db() { return *db_; }
  int clients() const { return clients_; }
  /// Student index of principal i.
  int Principal(int i) const;

 private:
  /// SQL of a read shape with grades / registered replaced by the given
  /// relation names (the tables themselves, or bound views).
  std::string AdhocSql(Shape shape, int course, const std::string& grades,
                       const std::string& registered) const;
  struct Expectation {
    bool accepted = true;
    std::vector<Row> rows;
  };
  Expectation Expect(const Statement& st) const;
  /// Compares one reply with the oracle. `full` compares contents, not only
  /// the row count. Returns false on a wrong answer; counts an unexpected
  /// status in `*failed`.
  static bool Verify(const Result<core::ExecResult>& r,
                     const Expectation& exp, bool full, uint64_t* failed,
                     std::string* why);

  Statement NextRead(Rng& rng, int client) const;
  /// Picks a write or policy change from the current model (caller holds
  /// the latch exclusively).
  Statement NextWrite(Rng& rng, Kind kind) const;
  /// Applies a successful write / policy change to the model.
  void Apply(const Statement& st);
  std::string ReadSql(const Statement& st) const;

  /// Executes one statement on its session, checks it, records it.
  /// `stats` and `window` are null during warm-up, which records nothing.
  void Step(const Statement& st, int client, bool full, TraceSink* sink,
            ClientStats* stats, Window* window);
  server::Session& SessionFor(const Statement& st, int client) const;

  Spec spec_;
  Universe universe_;
  uint64_t seed_;
  int clients_ = 1;
  std::unique_ptr<core::Database> db_;
  std::unique_ptr<server::ConnectionManager> cm_;
  /// One session per principal (index = principal number) plus one admin
  /// session per client for writes.
  std::vector<std::shared_ptr<server::Session>> sessions_;
  std::vector<std::shared_ptr<server::Session>> admin_;
  /// Student index -> principal number (-1 when the student never logs in).
  std::vector<int> principal_of_;
  /// Whether each student currently holds spec().churn_view.
  std::vector<char> churn_granted_;
  Latch latch_;
  std::atomic<bool> wrong_{false};
};

/// Percentile (0..100) of `v` by nearest rank; sorts `v`.
double Percentile(std::vector<double>* v, double p);

}  // namespace fgac::perfbench

#endif  // FGAC_PERFBENCH_WORKLOAD_H_

// Finding rows by key: the C3 probes of a fresh Non-Truman check and a
// keyed UPDATE, at 500, 2,000 and 8,000 students.
//
//   BM_FreshC3Check — one accepted and one rejected co-student query
//                     (`select * from grades where course-id = ...` for a
//                     student holding costudentgrades and myregistrations),
//                     each checked afresh (verdict cache off). Each
//                     check probes `registered` with its whole key pinned.
//   BM_UpdateByKey  — `update grades set grade = ... where student-id = ...
//                     and course-id = ...` as admin: one row, found by key,
//                     with its foreign keys checked.
//
// Expected shape: both stay flat as the tables grow, because the row finder
// answers a pinned key from the table's key index instead of scanning.

#include <benchmark/benchmark.h>

#include <map>
#include <set>
#include <string>

#include "bench/bench_report.h"
#include "bench/workload.h"

namespace {

using fgac::Row;
using fgac::Value;
using fgac::bench::LoadScaledUniversity;
using fgac::bench::UniversityScale;
using fgac::core::Database;
using fgac::core::EnforcementMode;
using fgac::core::SessionContext;

constexpr const char* kStudent = "s5";
constexpr int kCourses = 40;

Database* MakeDb(int students) {
  auto* db = new Database();
  UniversityScale scale;
  scale.students = students;
  scale.courses = kCourses;
  LoadScaledUniversity(db, scale);
  fgac::bench::CreateStandardViews(db);
  for (const char* view : {"costudentgrades", "myregistrations"}) {
    if (!db->ExecuteAsAdmin(std::string("grant select on ") + view + " to " +
                            kStudent)
             .ok()) {
      std::abort();
    }
  }
  db->options().enable_validity_cache = false;
  return db;
}

Database* DbForScale(int students) {
  static std::map<int, Database*>* dbs = new std::map<int, Database*>();
  auto it = dbs->find(students);
  if (it == dbs->end()) it = dbs->emplace(students, MakeDb(students)).first;
  return it->second;
}

std::string CourseQuery(const std::string& course) {
  return "select * from grades where course-id = '" + course + "'";
}

void BM_FreshC3Check(benchmark::State& state) {
  Database* db = DbForScale(static_cast<int>(state.range(0)));
  // Accepted: a course the student is registered in; rejected: one not.
  std::set<std::string> mine;
  const fgac::storage::TableData* registered =
      db->state().GetTable("registered");
  for (size_t i = 0; i < registered->num_rows(); ++i) {
    Row row = registered->GetRow(i);
    if (row[0] == Value::String(kStudent)) mine.insert(row[1].string_value());
  }
  std::string other;
  for (int c = 0; c < kCourses && other.empty(); ++c) {
    std::string cid = "c";
    cid += std::to_string(c);
    if (mine.count(cid) == 0) other = cid;
  }
  if (mine.empty() || other.empty()) {
    state.SkipWithError("no registered and unregistered course");
    return;
  }
  const std::string accepted = CourseQuery(*mine.begin());
  const std::string rejected = CourseQuery(other);
  SessionContext ctx(kStudent);
  ctx.set_mode(EnforcementMode::kNonTruman);
  for (auto _ : state) {
    auto yes = db->CheckQueryValidity(accepted, ctx);
    auto no = db->CheckQueryValidity(rejected, ctx);
    if (!yes.ok() || !yes.value().valid || !no.ok() || no.value().valid) {
      state.SkipWithError("unexpected verdict");
      return;
    }
    benchmark::DoNotOptimize(yes.value().c3_probes + no.value().c3_probes);
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(registered->num_rows()));
}

void BM_UpdateByKey(benchmark::State& state) {
  Database* db = DbForScale(static_cast<int>(state.range(0)));
  const fgac::storage::TableData* grades = db->state().GetTable("grades");
  Row row = grades->GetRow(grades->num_rows() / 2);
  const std::string where = " where student-id = '" + row[0].string_value() +
                            "' and course-id = '" + row[1].string_value() +
                            "'";
  const std::string set_low = "update grades set grade = 1.5" + where;
  const std::string set_high = "update grades set grade = 3.5" + where;
  bool high = false;
  for (auto _ : state) {
    high = !high;
    auto r = db->ExecuteAsAdmin(high ? set_high : set_low);
    if (!r.ok() || r.value().affected_rows != 1) {
      state.SkipWithError("keyed update did not touch one row");
      return;
    }
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(grades->num_rows()));
}

}  // namespace

BENCHMARK(BM_FreshC3Check)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_UpdateByKey)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMicrosecond);

FGAC_BENCHMARK_MAIN();

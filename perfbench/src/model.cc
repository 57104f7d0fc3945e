#include "model.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace fgac::perfbench {

double RandomGrade(Rng& rng) {
  return 1.0 + 0.5 * static_cast<double>(rng.Below(7));
}

Universe::Universe(int students, int courses, double graded_share, Rng& rng)
    : regs_(students),
      grade_(students),
      course_students_(courses),
      course_sum_(courses, 0.0),
      course_count_(courses, 0) {
  for (int s = 0; s < students; ++s) {
    // Distinct courses: a random base and a stride coprime to most course
    // counts, as in bench/workload.cc.
    int base = static_cast<int>(rng.Below(static_cast<uint64_t>(courses)));
    for (int r = 0; r < kRegsPerStudent; ++r) {
      int c = (base + r * 7 + 1) % courses;
      regs_[s][r] = c;
      course_students_[c].push_back(s);
      grade_[s][r] = 0.0;
      if (rng.Unit() < graded_share) SetGrade(s, r, RandomGrade(rng));
    }
  }
  for (int c = 0; c < courses; ++c) {
    int64_t parttime = 0;
    for (int s : course_students_[c]) parttime += Type(s) == "parttime";
    int64_t fulltime =
        static_cast<int64_t>(course_students_[c].size()) - parttime;
    for (const auto& [type, n] : {std::pair<const char*, int64_t>{"parttime",
                                                                  parttime},
                                  {"fulltime", fulltime}}) {
      if (n > 0) {
        enrollment_.push_back(
            {Value::String(Cid(c)), Value::String(type), Value::Int(n)});
      }
    }
  }
}

int Universe::Slot(int s, int c) const {
  for (int r = 0; r < kRegsPerStudent; ++r) {
    if (regs_[s][r] == c) return r;
  }
  return -1;
}

void Universe::SetGrade(int s, int r, double g) {
  int c = regs_[s][r];
  if (Graded(s, r)) {
    course_sum_[c] -= grade_[s][r];
    --course_count_[c];
  }
  grade_[s][r] = g;
  course_sum_[c] += g;
  ++course_count_[c];
}

void Universe::ClearGrade(int s, int r) {
  if (!Graded(s, r)) return;
  int c = regs_[s][r];
  course_sum_[c] -= grade_[s][r];
  --course_count_[c];
  grade_[s][r] = 0.0;
}

namespace {

void MustRun(core::Database* db, const std::string& sql) {
  Status st = db->ExecuteScript(sql);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 st.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace

void Universe::Load(core::Database* db) const {
  MustRun(db, R"sql(
    create table students (
      student-id varchar not null primary key,
      name varchar not null,
      type varchar not null);
    create table courses (
      course-id varchar not null primary key,
      name varchar not null);
    create table registered (
      student-id varchar not null references students,
      course-id varchar not null references courses,
      primary key (student-id, course-id));
    create table grades (
      student-id varchar not null references students,
      course-id varchar not null references courses,
      grade double not null,
      primary key (student-id, course-id));
  )sql");
  storage::TableData* students = db->state().GetMutableTable("students");
  storage::TableData* courses = db->state().GetMutableTable("courses");
  storage::TableData* registered = db->state().GetMutableTable("registered");
  storage::TableData* grades = db->state().GetMutableTable("grades");
  for (int c = 0; c < this->courses(); ++c) {
    courses->Insert({Value::String(Cid(c)),
                     Value::String("course " + std::to_string(c))});
  }
  for (int s = 0; s < this->students(); ++s) {
    students->Insert(
        {Value::String(Sid(s)), Value::String(Name(s)), Value::String(Type(s))});
    for (int r = 0; r < kRegsPerStudent; ++r) {
      registered->Insert({Value::String(Sid(s)), Value::String(Cid(regs_[s][r]))});
      if (Graded(s, r)) {
        grades->Insert({Value::String(Sid(s)), Value::String(Cid(regs_[s][r])),
                        Value::Double(grade_[s][r])});
      }
    }
  }
}

std::vector<Row> Universe::PointGrade(int s, int c) const {
  int r = Slot(s, c);
  if (r < 0 || !Graded(s, r)) return {};
  return {{Value::Double(grade_[s][r])}};
}

std::vector<Row> Universe::OwnGrades(int s) const {
  std::vector<Row> out;
  for (int r = 0; r < kRegsPerStudent; ++r) {
    if (Graded(s, r)) {
      out.push_back({Value::String(Cid(regs_[s][r])),
                     Value::Double(grade_[s][r])});
    }
  }
  return out;
}

std::vector<Row> Universe::OwnRegistrations(int s) const {
  std::vector<Row> out;
  for (int r = 0; r < kRegsPerStudent; ++r) {
    out.push_back({Value::String(Cid(regs_[s][r]))});
  }
  return out;
}

std::vector<Row> Universe::CourseGrades(int c, int only_student) const {
  std::vector<Row> out;
  for (int s : course_students_[c]) {
    int r = Slot(s, c);
    if (Graded(s, r) && (only_student < 0 || s == only_student)) {
      out.push_back({Value::String(Sid(s)), Value::String(Cid(c)),
                     Value::Double(grade_[s][r])});
    }
  }
  return out;
}

std::vector<Row> Universe::CourseAverages(int only_student) const {
  std::vector<Row> out;
  for (int c = 0; c < courses(); ++c) {
    if (course_count_[c] == 0) continue;
    if (only_student >= 0 && Slot(only_student, c) < 0) continue;
    out.push_back({Value::String(Cid(c)),
                   Value::Double(course_sum_[c] / course_count_[c])});
  }
  return out;
}

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fgac::perfbench

#ifndef FGAC_PERFBENCH_MODEL_H_
#define FGAC_PERFBENCH_MODEL_H_

// The benchmark's own copy of the data it loads: a seeded generator for the
// paper's university database and the answer oracle that derives every
// expected result from it. The engine only ever sees the generated rows and
// SQL text; expectations never come from the engine.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "core/database.h"

namespace fgac::perfbench {

/// splitmix64: a fixed, platform-independent stream so one seed gives the
/// same inputs with every compiler and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

inline constexpr int kRegsPerStudent = 4;

/// Grades are whole or half points in [1, 4], so sums are exact in a double
/// and an average computed in any summation order prints the same.
double RandomGrade(Rng& rng);

/// The university database as the benchmark generated it, kept current
/// with every write the benchmark applies.
class Universe {
 public:
  /// `graded_share` of the registrations start with a grade.
  Universe(int students, int courses, double graded_share, Rng& rng);

  int students() const { return static_cast<int>(regs_.size()); }
  int courses() const { return static_cast<int>(course_students_.size()); }

  static std::string Sid(int s) { return "s" + std::to_string(s); }
  static std::string Cid(int c) { return "c" + std::to_string(c); }
  static std::string Name(int s) { return "name" + std::to_string(s); }
  static std::string Type(int s) { return s % 3 == 0 ? "parttime" : "fulltime"; }

  /// The `r`-th registered course of student `s`.
  int Course(int s, int r) const { return regs_[s][r]; }
  /// Registration slot of course `c` for student `s`, or -1.
  int Slot(int s, int c) const;
  bool Graded(int s, int r) const { return grade_[s][r] > 0; }

  void SetGrade(int s, int r, double g);
  void ClearGrade(int s, int r);

  /// Creates the schema of bench/workload.h and bulk-loads the generated
  /// rows through the storage layer (SQL INSERT checks keys by full scans,
  /// which would make loading quadratic).
  void Load(core::Database* db) const;

  // ---- Expected answers (rows in the statement's output column order) ----
  /// select grade from grades where student-id = s and course-id = c
  std::vector<Row> PointGrade(int s, int c) const;
  /// select course-id, grade from grades where student-id = s
  std::vector<Row> OwnGrades(int s) const;
  /// select course-id from registered where student-id = s
  std::vector<Row> OwnRegistrations(int s) const;
  /// select * from grades where course-id = c, over all students
  /// (`only_student` < 0) or one student's own row.
  std::vector<Row> CourseGrades(int c, int only_student) const;
  /// select course-id, avg(grade) from grades group by course-id, over all
  /// courses (`only_student` < 0) or the courses one student is registered
  /// in (the Truman answer through costudentgrades).
  std::vector<Row> CourseAverages(int only_student) const;
  /// Enrollment report of registered ⋈ students: (course-id, type,
  /// count(*)) per course and student type. Neither table is ever written,
  /// so it is computed once.
  const std::vector<Row>& Enrollment() const { return enrollment_; }

 private:
  std::vector<std::array<int, kRegsPerStudent>> regs_;
  /// 0 = registered without a grade.
  std::vector<std::array<double, kRegsPerStudent>> grade_;
  std::vector<std::vector<int>> course_students_;
  std::vector<double> course_sum_;
  std::vector<int> course_count_;
  std::vector<Row> enrollment_;
};

/// Order-insensitive rendering of a result for comparison.
std::vector<std::string> Canonical(const std::vector<Row>& rows);

}  // namespace fgac::perfbench

#endif  // FGAC_PERFBENCH_MODEL_H_

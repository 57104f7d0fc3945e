#ifndef FGAC_COMMON_FAULT_INJECTION_H_
#define FGAC_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

/// Deterministic fault-injection layer. Named sites are sprinkled through
/// hash-join build, morsel claims, pipeline dispatch and runs,
/// validity-probe execution, memory charges, admission and system-table
/// snapshots; tests arm a site to fail on its Nth hit, with a seeded
/// probability, or to run a callback (e.g. flip a cancel token at an exact
/// execution point).
///
/// Sites are compiled into unoptimized builds (Debug / sanitizer, where
/// NDEBUG is not defined) and into any build configured with
/// -DFGAC_FAULT_INJECTION=ON; elsewhere the macros expand to nothing and
/// cost zero. Tests that need the layer should skip when
/// FaultInjector::compiled_in() is false.
#if defined(FGAC_FAULT_INJECTION_BUILD) || !defined(NDEBUG)
#define FGAC_FAULT_SITES_ENABLED 1
#else
#define FGAC_FAULT_SITES_ENABLED 0
#endif

namespace fgac::common {

class FaultInjector {
 public:
  /// Process-wide injector (sites are macro-addressed, so a singleton is
  /// the only practical registry). Tests must Reset() between cases.
  static FaultInjector& Instance();

  static constexpr bool compiled_in() { return FGAC_FAULT_SITES_ENABLED != 0; }

  /// Arms `site` to fail exactly once, on its `nth` (1-based) hit from
  /// now. Later hits pass.
  void FailOnHit(const std::string& site, uint64_t nth = 1);

  /// Arms `site` to fail each hit independently with probability `p`,
  /// driven by a private RNG seeded with `seed` (deterministic runs).
  void FailWithProbability(const std::string& site, double p, uint64_t seed);

  /// Arms `site` to invoke `callback` (without failing) on its `nth` hit
  /// from now, then disarm. Used to trigger cancellation or state flips
  /// at a deterministic execution point.
  void OnHit(const std::string& site, std::function<void()> callback,
             uint64_t nth = 1);

  void Disarm(const std::string& site);

  /// Disarms every site and zeroes all hit counters.
  void Reset();

  /// Total hits observed at `site` since the last Reset().
  uint64_t HitCount(const std::string& site) const;

  /// Snapshot of every site with at least one hit since the last Reset(),
  /// for export into the metrics registry.
  std::vector<std::pair<std::string, uint64_t>> AllHitCounts() const;

  /// Called by the FGAC_FAULT_POINT/FGAC_FAULT_CHECK macros: counts the
  /// hit and returns the injected failure if the site is armed and
  /// triggered, OK otherwise.
  Status Hit(const char* site);

 private:
  FaultInjector() = default;

  enum class Mode { kFailOnHit, kFailWithProbability, kCallback };
  struct Arm {
    Mode mode;
    uint64_t hits_seen = 0;
    uint64_t nth = 1;
    double probability = 0.0;
    std::mt19937_64 rng;
    std::function<void()> callback;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Arm> arms_;
  std::unordered_map<std::string, uint64_t> hits_;
};

}  // namespace fgac::common

#if FGAC_FAULT_SITES_ENABLED
/// Statement form: returns the injected Status from the enclosing
/// function. Use inside Status/Result-returning code.
#define FGAC_FAULT_POINT(site)                                       \
  do {                                                               \
    ::fgac::Status _fgac_fi =                                        \
        ::fgac::common::FaultInjector::Instance().Hit(site);         \
    if (!_fgac_fi.ok()) return _fgac_fi;                             \
  } while (0)
/// Expression form: evaluates to the site's Status for call sites that
/// cannot early-return (e.g. void thread-pool tasks).
#define FGAC_FAULT_CHECK(site) \
  (::fgac::common::FaultInjector::Instance().Hit(site))
#else
#define FGAC_FAULT_POINT(site) \
  do {                         \
  } while (0)
#define FGAC_FAULT_CHECK(site) (::fgac::Status::OK())
#endif

#endif  // FGAC_COMMON_FAULT_INJECTION_H_

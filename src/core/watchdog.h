#ifndef FGAC_CORE_WATCHDOG_H_
#define FGAC_CORE_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/activity.h"
#include "common/metrics.h"

namespace fgac::core {

struct WatchdogOptions {
  bool enabled = true;
  /// Sampling cadence of the watchdog thread.
  std::chrono::milliseconds interval{250};
  /// A statement with a deadline is considered stalled once it has run
  /// for more than deadline_factor x its deadline AND made no observable
  /// progress (phase, pipeline sets, guard charges, admission wait) since
  /// the previous sample.
  double deadline_factor = 2.0;
  /// Stall threshold for statements without a deadline.
  std::chrono::milliseconds no_deadline_stall{10'000};
};

/// Background sampler behind the watchdog.* gauges: every interval it
/// walks the in-flight statements of the ActivityRegistry, runs the
/// registered depth probes (pool queue depth, admission queue
/// depth, ...), and flags statements that exceeded N x their deadline
/// without progress. A stall is reported at most once per statement via
/// the on_stall callback (the Database turns it into an audit event).
///
/// The watchdog owns no engine state — it only reads atomics through the
/// registry handles and probe callbacks, so it can never block a
/// statement. Construction wires it; Start() spawns the thread; Stop()
/// joins it (idempotent, called from the destructor).
class Watchdog {
 public:
  using StallCallback = std::function<void(
      const common::StatementActivitySnapshot&, const std::string& reason)>;
  using DepthProbe = std::function<int64_t()>;

  Watchdog(const WatchdogOptions& options,
           common::ActivityRegistry* activity,
           common::MetricsRegistry* metrics)
      : options_(options), activity_(activity), metrics_(metrics) {}
  ~Watchdog() { Stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Wiring; call before Start().
  void set_on_stall(StallCallback cb) { on_stall_ = std::move(cb); }
  void AddProbe(std::string gauge_name, DepthProbe probe) {
    probes_.emplace_back(std::move(gauge_name), std::move(probe));
  }

  void Start();
  void Stop();

  /// One sampling pass — the thread body calls this every interval; tests
  /// and the metrics exports call it directly (serialized by sample_mu_,
  /// so a manual sample never races the thread's).
  void SampleOnce();

  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }
  uint64_t stalls_detected() const {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  /// Last observed progress tuple per in-flight statement seq.
  struct ProgressMark {
    uint32_t phase = 0;
    uint64_t sets_done = 0;
    uint64_t guard_rows = 0;
    uint64_t guard_bytes = 0;
    uint64_t admission_wait_us = 0;
    bool stalled = false;
  };

  void Main();

  const WatchdogOptions options_;
  common::ActivityRegistry* activity_;
  common::MetricsRegistry* metrics_;
  StallCallback on_stall_;
  std::vector<std::pair<std::string, DepthProbe>> probes_;

  std::mutex sample_mu_;                    // serializes SampleOnce
  std::map<uint64_t, ProgressMark> marks_;  // guarded by sample_mu_

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
  std::atomic<uint64_t> samples_{0};
  std::atomic<uint64_t> stalls_{0};
};

}  // namespace fgac::core

#endif  // FGAC_CORE_WATCHDOG_H_

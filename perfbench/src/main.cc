// fgac_perfbench: one workload of the end-to-end FGAC benchmark.
//
//   fgac_perfbench --workload portal|analytics|policy_churn --seed N
//                  --seconds S --trace 0|1 [--commit SHA] [--src-digest HEX]
//
// Prints one JSON context line (seed, workload parameters, machine stamp,
// diagnostics) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones from the
// traced run. Exits 1 on any wrong answer, 2 on a usage or set-up error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "layers.h"
#include "model.h"
#include "workload.h"

namespace fgac::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Largest relative drift the benchmark tolerates (the cross-check flag).
constexpr double kBound = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: fgac_perfbench --workload "
               "portal|analytics|policy_churn --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--src-digest HEX]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--src-digest") {
      a.src_digest = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Minimal JSON writer for flat objects.
class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return Raw(k, buf);
  }
  Json& Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return Raw(k, q + "\"");
  }
  Json& Raw(const std::string& k, const std::string& v) {
    out_ += (out_.empty() ? "{" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

/// All clients' samples, window by window.
struct Merged {
  Window windows[kWindows];
  uint64_t attempted = 0, failed = 0, wrong = 0;
};

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

void MergeInto(const std::vector<ClientStats>& stats, Merged* m) {
  for (const ClientStats& c : stats) {
    for (int w = 0; w < kWindows; ++w) {
      for (int i = 0; i < kModes; ++i) {
        Append(&m->windows[w].read_us[i], c.windows[w].read_us[i]);
      }
      Append(&m->windows[w].write_us, c.windows[w].write_us);
      m->windows[w].done += c.windows[w].done;
      m->attempted += c.windows[w].done;
    }
    m->failed += c.failed;
    m->wrong += c.wrong;
  }
}

/// The first tenant's share of a phase: the one a traced run measures.
struct FirstTenant {
  uint64_t attempted = 0;
  double wall_s = 0;
};

/// Runs every tenant's closed loop side by side for `seconds`; `sink`
/// (may be null) traces the first tenant only. Merges every tenant's
/// samples into `all`.
FirstTenant RunTenants(const std::vector<std::unique_ptr<Bench>>& benches,
                       double seconds, uint64_t phase, TraceSink* sink,
                       Merged* all) {
  std::vector<std::vector<ClientStats>> stats(benches.size());
  std::vector<double> walls(benches.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < benches.size(); ++t) {
    threads.emplace_back([&, t] {
      stats[t] = benches[t]->Run(seconds, phase, t == 0 ? sink : nullptr,
                                 &walls[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  FirstTenant first;
  first.wall_s = walls[0];
  for (const ClientStats& c : stats[0]) {
    for (const Window& w : c.windows) first.attempted += w.done;
  }
  for (const auto& s : stats) MergeInto(s, all);
  return first;
}

/// Samples over all windows, `of(window)` each.
template <typename Fn>
double Samples(const Merged& m, Fn&& of) {
  size_t n = 0;
  for (const Window& w : m.windows) n += of(w);
  return static_cast<double>(n);
}

/// Median over the windows of `of(window)`.
template <typename Fn>
double WindowMedian(Merged* m, Fn&& of) {
  std::vector<double> v;
  for (Window& w : m->windows) v.push_back(of(w));
  return Median(v);
}

std::string Metric(double value, const char* unit) {
  return Json().Num("value", value).Str("unit", unit).Done();
}

int Main(int argc, char** argv) {
  auto process_start = Clock::now();
  Args args = ParseArgs(argc, argv);
  Spec spec;
  if (!MakeSpec(args.workload, &spec)) Usage("unknown workload");

  Rng rng(args.seed);
  Universe pristine(spec.students, spec.courses, 0.75, rng);

  // Set up several times and keep the last databases: setup_s is the
  // median, so one slow set-up (first use of the shared pool) does not
  // decide it.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Bench>> benches;
  for (int i = 0; i < kSetups; ++i) {
    benches.clear();
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < spec.tenants; ++t) {
      benches.push_back(std::make_unique<Bench>(
          spec, pristine, args.seed + 0x9E3779B97F4A7C15ULL * t));
      threads.emplace_back([b = benches.back().get()] { b->SetUp(); });
    }
    for (std::thread& th : threads) th.join();
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  for (auto& b : benches) {
    if (!b->OracleSelfCheck()) {
      std::fprintf(stderr, "perfbench: the oracle accepted a corrupted "
                           "expectation\n");
      return 1;
    }
  }
  Bench& bench = *benches.front();

  Merged all;
  Json metrics;
  Json diag;
  double qps = 0;
  if (args.trace == 0) {
    RunTenants(benches, args.seconds, 1, nullptr, &all);
    double window_s = args.seconds / kWindows;
    qps = WindowMedian(&all, [&](Window& w) {
      return static_cast<double>(w.done) / window_s;
    });
    metrics.Raw("qps", Metric(qps, "1/s"));
    for (int m = 0; m < kModes; ++m) {
      std::string mode = ModeName(static_cast<Mode>(m));
      for (double p : {50.0, 95.0}) {
        double v = WindowMedian(
            &all, [&](Window& w) { return Percentile(&w.read_us[m], p); });
        metrics.Raw((p == 50 ? "p50_us." : "p95_us.") + mode, Metric(v, "us"));
      }
    }
    metrics.Raw("p50_us.write",
                Metric(WindowMedian(&all, [](Window& w) {
                         return Percentile(&w.write_us, 50);
                       }),
                       "us"));
    metrics.Raw("p90_us.write",
                Metric(WindowMedian(&all, [](Window& w) {
                         return Percentile(&w.write_us, 90);
                       }),
                       "us"));
    metrics.Raw("setup_s", Metric(Median(setup_s), "s"));
    metrics.Raw("peak_rss_mb", Metric(PeakRssMb(), "MB"));
  } else {
    // Untraced half first (engine counters and the baseline qps), then the
    // traced half with layer replay after every statement.
    // With several tenants all run, and the first one is measured.
    EngineCounters a0 = EngineCounters::Read(bench.db());
    FirstTenant a = RunTenants(benches, args.seconds / 2, 1, nullptr, &all);
    EngineCounters a1 = EngineCounters::Read(bench.db());
    TraceSink sink(bench.clients());
    EngineCounters b0 = EngineCounters::Read(bench.db());
    FirstTenant b = RunTenants(benches, args.seconds / 2, 2, &sink, &all);
    EngineCounters b1 = EngineCounters::Read(bench.db());
    LayerReport rep = BuildLayerReport(bench, sink, a0, a1, a.attempted,
                                       a.wall_s, b0, b1, kBound);
    for (const auto& [name, value] : rep.metrics) {
      static const std::map<std::string, const char*> kUnits = {
          {"optimizer.memo_exprs", "count"},
          {"validity.memo_exprs", "count"},
          {"validity.probes", "count"},
          {"exec.tasks_per_stmt", "count"},
          {"cache.verdict_evictions", "1/1000stmt"},
          {"storage.memory_high_water_mb", "MB"},
      };
      auto unit = kUnits.find(name);
      const char* u = unit != kUnits.end() ? unit->second
                      : name.size() > 3 &&
                              name.compare(name.size() - 3, 3, "_us") == 0
                          ? "us"
                          : "ratio";
      metrics.Raw(name, Metric(value, u));
    }
    double qps_a = static_cast<double>(a.attempted) / a.wall_s;
    double qps_b = static_cast<double>(b.attempted) / b.wall_s;
    qps = qps_a;
    diag.Num("qps_untraced", qps_a).Num("qps_traced", qps_b);
    diag.Num("tracing_overhead", qps_b > 0 ? qps_a / qps_b : 0.0);
    Json breakdown;
    for (const auto& [k, v] : rep.breakdown_us) breakdown.Num(k, v);
    diag.Raw("per_read_us", breakdown.Done());
    Json xc;
    for (const auto& [k, v] : rep.cross_check) xc.Num(k, v);
    diag.Raw("replay_vs_engine_histograms", xc.Done());
    std::string flags = "[";
    for (const std::string& f : rep.flags) {
      flags += (flags.size() > 1 ? ",\"" : "\"") + f + "\"";
      std::fprintf(stderr,
                   "perfbench: WARNING replayed %s disagrees with the "
                   "engine's histogram beyond %.2f\n",
                   f.c_str(), kBound);
    }
    diag.Raw("cross_check_flags", flags + "]");
    std::string probed = "[";
    for (const std::string& p : rep.probed) {
      probed += (probed.size() > 1 ? ",\"" : "\"") + p + "\"";
    }
    diag.Raw("cold_probes", probed + "]");
  }

  int cross_mismatches = 0;
  for (auto& b : benches) cross_mismatches += b->CrossModeCheck(args.seed);
  bool correct = all.wrong == 0 && cross_mismatches == 0;

  Json params;
  params.Num("students", spec.students)
      .Num("courses", spec.courses)
      .Num("principals", spec.principals)
      .Num("tenants", spec.tenants)
      .Num("clients_per_tenant", bench.clients())
      .Num("exec_parallelism", spec.parallelism == 0 ? 1.0
                                                     : static_cast<double>(
                                                           spec.parallelism))
      .Num("write_share", spec.write_share)
      .Num("policy_share", spec.policy_share)
      .Str("mode_shares", "none=1/3,truman=1/3,nontruman=1/3")
      .Str("statements", spec.prepared ? "prepare+execute" : "ad hoc");
  Json machine;
  machine.Num("nproc", std::thread::hardware_concurrency())
      .Str("cpu", CpuModel())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("commit", args.commit)
      .Str("src_digest", args.src_digest);
  Json context;
  context.Str("workload", spec.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Num("trace", args.trace)
      .Raw("params", params.Done())
      .Raw("machine", machine.Done())
      .Num("qps", qps)
      .Num("error_rate", all.attempted == 0
                             ? 0.0
                             : static_cast<double>(all.failed) /
                                   static_cast<double>(all.attempted))
      .Num("wrong_answers", static_cast<double>(all.wrong))
      .Num("cross_mode_mismatches", cross_mismatches)
      .Num("write_samples", Samples(all, [](const Window& w) {
             return w.write_us.size();
           }))
      .Raw("diagnostics", diag.Done())
      .Num("total_s", std::chrono::duration<double>(Clock::now() -
                                                    process_start)
                          .count());
  for (int m = 0; m < kModes; ++m) {
    context.Num(std::string("read_samples.") + ModeName(static_cast<Mode>(m)),
                Samples(all, [m](const Window& w) {
                  return w.read_us[m].size();
                }));
  }
  benches.clear();

  std::printf("%s\n", context.Done().c_str());
  Json result;
  result.Raw("correct", correct ? "true" : "false")
      .Num("attempted", static_cast<double>(std::max<uint64_t>(1, all.attempted)))
      .Num("failed", static_cast<double>(all.failed))
      .Raw("metrics", metrics.Done());
  std::printf("%s\n", result.Done().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fgac::perfbench

int main(int argc, char** argv) { return fgac::perfbench::Main(argc, argv); }

#!/usr/bin/env bash
# Runs every bench binary and aggregates their JSON-line outputs into one
# machine-readable BENCH_RESULTS.json, together with the size of the engine
# ("src_lines": non-blank lines of src/**/*.{h,cc}) and the machine the
# numbers came from ("machine": nproc, CPU model, the build tree's build
# type and compiler).
#
# Usage:
#   bench/run_all.sh [output.json]
#
# Environment:
#   BUILD_DIR           build tree containing bench/ binaries (default: build)
#   GBENCH_FLAGS        extra flags passed to every binary, e.g.
#                       "--benchmark_min_time=0.1" (hand-rolled mains ignore
#                       their argv, so this is safe to set globally)
#   FGAC_BENCH_ONLY     optional extended-regex filter applied to the bench
#                       binary basenames (e.g. 'bench_(validity_basic|dag)');
#                       CI's quick gate uses this to run a curated subset.
#   FGAC_SEED_BASELINE  optional JSON-lines file with baseline measurements
#                       (same format); matching names gain a
#                       "speedup_vs_baseline" field in the output. Setting
#                       it to a path that does not exist is an error (a
#                       silently-missing baseline yields a results file with
#                       no speedup fields, which reads as a regression).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "${FGAC_SEED_BASELINE:-}" ] && [ ! -f "${FGAC_SEED_BASELINE}" ]; then
  echo "error: FGAC_SEED_BASELINE='${FGAC_SEED_BASELINE}' does not exist" >&2
  exit 2
fi

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_RESULTS.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

failed=0
for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  if [ -n "${FGAC_BENCH_ONLY:-}" ] &&
     ! basename "$bin" | grep -Eq "${FGAC_BENCH_ONLY}"; then
    echo "== $(basename "$bin") (skipped by FGAC_BENCH_ONLY)" >&2
    continue
  fi
  echo "== $(basename "$bin")" >&2
  if ! FGAC_BENCH_JSON="$TMP" "$bin" ${GBENCH_FLAGS:-} >/dev/null 2>&1; then
    echo "   FAILED: $(basename "$bin")" >&2
    failed=1
  fi
done

python3 - "$TMP" "$OUT" "${FGAC_SEED_BASELINE:-}" "$BUILD_DIR" <<'EOF'
import glob, json, os, re, sys

def read_lines(path):
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out

runs = read_lines(sys.argv[1])
baseline = {}
if sys.argv[3]:
    for entry in read_lines(sys.argv[3]):
        baseline[entry["name"]] = entry

for entry in runs:
    base = baseline.get(entry["name"])
    if base and base.get("ns_per_op") and entry.get("ns_per_op"):
        entry["baseline_ns_per_op"] = base["ns_per_op"]
        entry["speedup_vs_baseline"] = round(
            base["ns_per_op"] / entry["ns_per_op"], 3)

src_lines = 0
for dirpath, _, filenames in os.walk("src"):
    for name in filenames:
        if name.endswith((".h", ".cc")):
            with open(os.path.join(dirpath, name)) as f:
                src_lines += sum(1 for line in f if line.strip())

def cache_value(text, key):
    m = re.search(r"^" + key + r":[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else ""

def machine(build_dir):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = compiler = ""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            build_type = cache_value(f.read(), "CMAKE_BUILD_TYPE")
    except OSError:
        pass
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        compiler = " ".join(m.group(1) for m in (cid, ver) if m)
        break
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": build_type,
            "compiler": compiler}

doc = {"benchmarks": runs, "src_lines": src_lines,
       "machine": machine(sys.argv[4])}
if baseline:
    doc["baseline_source"] = sys.argv[3]
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(runs)} measurements, "
      f"src_lines {src_lines})")
EOF

exit $failed

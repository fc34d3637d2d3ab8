#!/usr/bin/env bash
# Full analysis driver: builds and runs the test suite under the Release
# configuration and the sanitizer matrix, plus the gef_lint gate. This is
# what CI runs (see .github/workflows/ci.yml) and what a developer runs
# locally before a substantial PR:
#
#   tools/run_analysis.sh            # every job below (clang jobs skip
#                                    # with a note when clang is absent)
#   tools/run_analysis.sh release    # one job only
#   tools/run_analysis.sh asan-ubsan
#   tools/run_analysis.sh tsan
#   tools/run_analysis.sh lint
#   tools/run_analysis.sh threadsafety  # clang -Wthread-safety -Werror
#                                       # + negative-compile proof
#   tools/run_analysis.sh tidy          # blocking clang-tidy (preset)
#   tools/run_analysis.sh bench         # serving overload shed check,
#                                       # store verify, trace parse and
#                                       # the perfbench smoke run
#
# Each job builds into its own out-of-source directory (build-analysis-*)
# so the matrix never contaminates the default ./build tree. Exits
# non-zero on the first failing job.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SUPP="${ROOT}/tools/sanitizers"
JOBS="${GEF_ANALYSIS_JOBS:-$(nproc)}"
CTEST_ARGS=(--output-on-failure -j "${JOBS}")

run_job() {  # name, extra cmake args...
  local name="$1"
  shift
  local dir="${ROOT}/build-analysis-${name}"
  echo "=== [${name}] configure + build ==="
  cmake -B "${dir}" -S "${ROOT}" -DGEF_WERROR=ON "$@"
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  (cd "${dir}" && ctest "${CTEST_ARGS[@]}")
}

job_release() {
  run_job release -DCMAKE_BUILD_TYPE=Release -DGEF_SANITIZE=
}

job_asan_ubsan() {
  # halt_on_error makes ASan behave like UBSan's
  # -fno-sanitize-recover=all: first finding fails the test.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  LSAN_OPTIONS="suppressions=${SUPP}/lsan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1:suppressions=${SUPP}/ubsan.supp" \
    run_job asan-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGEF_SANITIZE=address,undefined
}

job_tsan() {
  TSAN_OPTIONS="halt_on_error=1:suppressions=${SUPP}/tsan.supp" \
    run_job tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGEF_SANITIZE=thread
}

job_lint() {
  local dir="${ROOT}/build-analysis-lint"
  echo "=== [lint] gef_lint ==="
  cmake -B "${dir}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${dir}" -j "${JOBS}" --target gef_lint_cli
  "${dir}/tools/gef_lint" "${ROOT}"
  echo "=== [lint] gef_lint fixture self-test ==="
  cmake -DLINT_BIN="${dir}/tools/gef_lint" \
        -DFIXTURES="${ROOT}/tests/lint_fixtures" \
        -P "${ROOT}/tests/lint_fixtures_test.cmake"
}

# Whole-tree Clang build with -Wthread-safety promoted to an error
# (-Wthread-safety is always-on for Clang; GEF_WERROR supplies -Werror),
# then the negative-compile + wrapper-semantics ctests that prove the
# analysis is armed rather than silently inert.
job_threadsafety() {
  local cxx="${GEF_CLANGXX:-clang++}"
  local cc="${GEF_CLANG:-clang}"
  command -v "${cxx}" >/dev/null || {
    echo "threadsafety: ${cxx} not found" >&2
    exit 3
  }
  local dir="${ROOT}/build-analysis-threadsafety"
  echo "=== [threadsafety] clang -Wthread-safety -Werror build ==="
  cmake -B "${dir}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_C_COMPILER="${cc}" -DCMAKE_CXX_COMPILER="${cxx}" \
    -DGEF_WERROR=ON
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [threadsafety] negative-compile + wrapper ctests ==="
  (cd "${dir}" && ctest "${CTEST_ARGS[@]}" \
    -R 'thread_safety_negcompile|mutex_test|gef_lint')
}

# Blocking clang-tidy over src/ and tools/ via the `tidy` preset
# (compile_commands.json comes from the same configure).
job_tidy() {
  command -v clang-tidy >/dev/null || {
    echo "tidy: clang-tidy not found" >&2
    exit 3
  }
  echo "=== [tidy] clang-tidy --warnings-as-errors (preset: tidy) ==="
  cmake --preset tidy -S "${ROOT}"
  cmake --build "${ROOT}/build-tidy" -j "${JOBS}"
}

# The bench job's hard checks on a Release build of the tools, with its
# model, logs and trace left in build-analysis-bench/artifacts:
#   - a deliberately small server (1 shard, 1 worker, queue 16) under
#     64-connection open-loop load must shed with 429s;
#   - the bench model packs into a store that verifies;
#   - every line of the JSONL trace that gef_train and gef_explain write
#     under GEF_TRACE is one strict JSON event;
#   - perfbench builds and runs every workload at smoke size.
# Performance itself is measured by perfbench (BENCHMARK.json).
job_bench() {
  local dir="${ROOT}/build-analysis-bench"
  local art="${dir}/artifacts"
  local bin="${dir}/tools"
  echo "=== [bench] configure + build tools ==="
  cmake -B "${dir}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Release -DGEF_WERROR=ON
  cmake --build "${dir}" -j "${JOBS}" --target gef_datasets_cli \
    gef_train_cli gef_explain_cli gef_serve_cli gef_loadgen_cli gef_store_cli
  rm -rf "${art}"
  mkdir -p "${art}"

  echo "=== [bench] bench model, traced ==="
  "${bin}/gef_datasets" --name census --out "${art}/census.csv" \
    --rows 4000 --seed 11 > /dev/null
  GEF_TRACE="${art}/trace.jsonl" "${bin}/gef_train" \
    --data "${art}/census.csv" --out "${art}/census_model.txt" \
    --objective binary --trees 200 --leaves 31 > "${art}/train.log"
  GEF_TRACE="${art}/trace.jsonl" "${bin}/gef_explain" \
    --model "${art}/census_model.txt" --bivariate 1 > "${art}/explain.log"

  echo "=== [bench] overload shed check ==="
  "${bin}/gef_serve" --model "${art}/census_model.txt" --name census \
    --port 0 --shards 1 --workers 1 --queue-capacity 16 \
    > "${art}/serve-overload.log" 2>&1 &
  local server_pid=$!
  trap "kill -9 ${server_pid} 2>/dev/null || true" EXIT
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' \
      "${art}/serve-overload.log" | head -1)
    [ -n "${port}" ] && break
    sleep 0.1
  done
  [ -n "${port}" ] || { cat "${art}/serve-overload.log"; exit 1; }
  # Each connection keeps at most one request outstanding, so sheds
  # need more connections than the queue admits.
  "${bin}/gef_loadgen" --port "${port}" --connections 64 --duration-s 5 \
    --open-loop --target-qps 20000 | tee "${art}/loadgen-overload.log"
  kill -TERM "${server_pid}"
  wait "${server_pid}"
  trap - EXIT
  grep -q "drained, exiting" "${art}/serve-overload.log"
  local shed
  shed=$(sed -n 's/.* shed=\([0-9]*\)$/\1/p' "${art}/loadgen-overload.log")
  [ "${shed:-0}" -gt 0 ] || { echo "overload check shed nothing" >&2; exit 1; }

  echo "=== [bench] store pack + verify ==="
  "${bin}/gef_store" pack --out "${art}/census.gefs" \
    --model census="${art}/census_model.txt"
  "${bin}/gef_store" verify "${art}/census.gefs"

  echo "=== [bench] trace parse ==="
  # NaN/Infinity literals are rejected too: the trace writes non-finite
  # values as null.
  python3 - "${art}/trace.jsonl" <<'PY'
import collections, json, sys
def no_constants(name):
    raise ValueError("non-JSON constant " + name)
path = sys.argv[1]
with open(path) as f:
    lines = f.read().split("\n")
if lines[-1] == "":
    lines.pop()
assert lines, path + " is empty"
types = collections.Counter()
for number, line in enumerate(lines, 1):
    try:
        event = json.loads(line, parse_constant=no_constants)
    except ValueError as error:
        sys.exit("%s:%d: %s" % (path, number, error))
    if not isinstance(event, dict) or "type" not in event:
        sys.exit("%s:%d: not a trace event" % (path, number))
    types[event["type"]] += 1
print("%s: %d lines parse %s" % (path, len(lines), dict(sorted(types.items()))))
PY

  echo "=== [bench] perfbench smoke ==="
  (cd "${ROOT}" && python3 perfbench/run.py --smoke)
}

case "${1:-all}" in
  release)      job_release ;;
  asan-ubsan)   job_asan_ubsan ;;
  tsan)         job_tsan ;;
  lint)         job_lint ;;
  threadsafety) job_threadsafety ;;
  tidy)         job_tidy ;;
  bench)        job_bench ;;
  all)
    job_lint
    job_release
    job_asan_ubsan
    job_tsan
    job_bench
    # The clang-based gates run wherever clang exists (CI always has
    # it); a GCC-only box skips them with a note instead of failing.
    if command -v "${GEF_CLANGXX:-clang++}" >/dev/null; then
      job_threadsafety
    else
      echo "note: clang++ not found — skipping threadsafety job (CI runs it)"
    fi
    if command -v clang-tidy >/dev/null; then
      job_tidy
    else
      echo "note: clang-tidy not found — skipping tidy job (CI runs it)"
    fi
    ;;
  *)
    echo "usage: $0 [all|release|asan-ubsan|tsan|lint|threadsafety|tidy|bench]" >&2
    exit 2
    ;;
esac

echo "analysis: all requested jobs passed"

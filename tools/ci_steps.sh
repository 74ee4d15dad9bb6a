#!/usr/bin/env bash
# The shell steps of the CI jobs, one definition for both workflow jobs and
# for a local run.  Run from the repository root:
#
#   tools/ci_steps.sh console   # the installed console script
#   tools/ci_steps.sh tier1     # the tier-1 suite, with every warning an error
#   tools/ci_steps.sh workers   # the CLI and acceptance tests through the process pool
#   tools/ci_steps.sh smoke     # every benchmark workload, untraced and traced
#   tools/ci_steps.sh mutants   # each pinned threshold rule, flipped, must fail its tests
#
# The console step runs the `dyadiclab` entry point, which needs the package
# installed; set DYADICLAB to another command to run the same checks without
# it, for example DYADICLAB="python3 -m dyadiclab.cli" with PYTHONPATH=src.
set -euo pipefail

cli() {
  ${DYADICLAB:-dyadiclab} "$@"
}

console() {
  local code
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  cli --version
  printf 'a,0,0\nb,3,4\n' > "$tmp/named.csv"
  cli validate --input "$tmp/named.csv" |
    python3 -c 'import json, sys; r = json.load(sys.stdin); print(r["data"]); sys.exit(r["data"]["points"] != ["a", "b"])'
  code=0
  cli validate --input "$tmp/missing.csv" || code=$?
  test "$code" -eq 3
  cli a2 --input "$tmp/named.csv" |
    python3 -c 'import json, sys; r = json.load(sys.stdin); print(r["data"]); sys.exit(r["data"]["a2_characteristic"] != 1.0)'
  # the points are 5 apart and 5.0 ** 1000 overflows: a refusal, exit 2
  code=0
  cli a2 --input "$tmp/named.csv" --m-exponent 1000 || code=$?
  test "$code" -eq 2
  # two points 5 apart: each unit ball holds its center alone, one coloring
  cli coloring --input "$tmp/named.csv" |
    python3 -c 'import json, sys; r = json.load(sys.stdin); print(r["data"]); sys.exit(r["data"]["d"] != 1 or r["data"]["colorings"] != 1)'
  code=0
  cli coloring --input "$tmp/missing.csv" || code=$?
  test "$code" -eq 3
  # gamma 1e-17 makes the default eps schedule's ratio 1.0: a refusal that
  # names --eps-schedule, exit 2, and no traceback
  code=0
  cli goodness --input "$tmp/named.csv" --seed 0 --gamma 1e-17 2> "$tmp/err" || code=$?
  cat "$tmp/err"
  test "$code" -eq 2
  grep -q -- --eps-schedule "$tmp/err"
  if grep -q Traceback "$tmp/err"; then exit 1; fi
  # a lattice on three levels: every check passes, exit 0
  printf 'a,0,0\nb,0.05,0\nc,1,0\nd,1,0.3\n' > "$tmp/four.csv"
  cli lattice --input "$tmp/four.csv" --delta 0.1 --seed 0 |
    python3 -c 'import json, sys; r = json.load(sys.stdin); print(r["data"]["invariants"]); sys.exit(not all(c["pass"] for c in r["checks"]))'
  # dist(0,2) = 5 > 1 + 1: malformed input, exit 3, the triple named and no
  # traceback
  printf '{"points": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}\n' \
    > "$tmp/triangle.json"
  code=0
  cli validate --input "$tmp/triangle.json" > "$tmp/out" 2> "$tmp/err" || code=$?
  cat "$tmp/out" "$tmp/err"
  test "$code" -eq 3
  grep -qF 'dist(0,2) > dist(0,1) + dist(1,2) by 3.0' "$tmp/out"
  if grep -q Traceback "$tmp/out" "$tmp/err"; then exit 1; fi
  # a goodness command's one run, serial and on a pool of 2 workers: the same
  # report bytes
  (unset DYADICLAB_WORKERS; cli goodness --input "$tmp/named.csv" --seed 0 --trials 200 \
    --out "$tmp/serial.json")
  DYADICLAB_WORKERS=2 cli goodness --input "$tmp/named.csv" --seed 0 --trials 200 \
    --out "$tmp/pooled.json"
  cmp "$tmp/serial.json" "$tmp/pooled.json"
  # the same on a 3-point elbow, where the memo serves trials, at a seed whose
  # successors take two 32-bit words: the jobs' seeds have mixed word counts
  printf '{"points": ["x", "u", "w"], "dist": [[0, 0.06, 0.31], [0.06, 0, 0.25], [0.31, 0.25, 0]]}\n' \
    > "$tmp/elbow.json"
  (unset DYADICLAB_WORKERS; cli goodness --input "$tmp/elbow.json" --delta 0.1 --gamma 0.1 \
    --r 1 --trials 300 --seed 4294967295 --out "$tmp/serial.json")
  DYADICLAB_WORKERS=2 cli goodness --input "$tmp/elbow.json" --delta 0.1 --gamma 0.1 \
    --r 1 --trials 300 --seed 4294967295 --out "$tmp/pooled.json"
  cmp "$tmp/serial.json" "$tmp/pooled.json"
}

tier1() {
  # -W error: a deprecation in the trial pipeline fails the step, on the
  # current numpy; PYTHONWARNINGS puts the subprocesses of test_demos.py and
  # test_package.py under the same filter
  PYTHONWARNINGS=error PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m pytest -q --continue-on-collection-errors --durations=15 -W error
}

workers() {
  # the CLI reads DYADICLAB_WORKERS, so every report it writes here goes
  # through run_chunked's worker pool
  DYADICLAB_WORKERS=2 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m pytest -q tests/test_cli.py tests/test_acceptance.py -W error
}

smoke() {
  # run.py exits 0 even when its correctness gate fails, so read its last
  # line; the traced runs also check that the tracer still wraps the
  # library's functions by name
  local w trace
  for w in mc-cascade60 cli-goodness-elbow cli-lattice-deep exact-small; do
    for trace in 0 1; do
      python3 perfbench/run.py --workload "$w" --seed 0 --seconds 1 --trace "$trace" |
        tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); print(*sys.argv[1:], r["correct"], r["failed"]); sys.exit(r["correct"] is not True or r["failed"] != 0)' "$w" "trace=$trace"
    done
  done
}

mutants() {
  # tools/mutants.py flips each rule in a temporary copy of src/ and tests/
  python3 tools/mutants.py
}

case "${1:-}" in
  console) console ;;
  tier1) tier1 ;;
  workers) workers ;;
  smoke) smoke ;;
  mutants) mutants ;;
  *) echo "usage: $0 console|tier1|workers|smoke|mutants" >&2; exit 2 ;;
esac

"""Steadiness mode: repeat each workload on fresh seeds and summarize the spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads mc-cascade60 --runs 5 \\
        --baseline perfbench/baseline.json

Each run is a separate ``run.py`` process with ``--trace 0``; the workloads
are interleaved, so a slow spell of the machine touches all of them.  For
every end-to-end metric it reports the median and quartiles over the runs and
flags a metric whose spread, (q3 - q1) / median, exceeds the bound fixed in
BENCHMARK.json.  With ``--baseline`` it also flags a median that is worse
than the baseline's by more than that bound.  The summary is written as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float], bound: float, better: str,
              baseline: dict | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    row = {"median": median, "q1": q1, "q3": q3, "values": values,
           "spread": (q3 - q1) / median, "bound": bound}
    row["spread_flag"] = row["spread"] > bound
    if baseline is not None:
        change = median / baseline["median"] - 1.0
        worse = change if better == "lower" else -change
        row["vs_baseline"] = change
        row["regression_flag"] = worse > bound
    return row


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", default=None,
                        help="summary written by an earlier steadiness run")
    parser.add_argument("--write", default="perfbench/out/steady.json")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = set(chosen) - set(names)
    if unknown or args.runs < 2:
        parser.error(f"need --runs >= 2 and known workloads, not {sorted(unknown)}")
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)["workloads"]

    results = {w: [] for w in chosen}
    for i in range(args.runs):
        for w in chosen:
            res = run_once(w, args.first_seed + i, args.seconds)
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w} seed={args.first_seed + i} "
                  f"correct={res['correct']} wall={res['wall_s']:.1f}s", flush=True)

    summary = {"runs": args.runs, "first_seed": args.first_seed,
               "seconds": args.seconds, "workloads": {}}
    flagged = 0
    for w in chosen:
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results[w]]
            base = baseline.get(w, {}).get("metrics", {}).get(m["name"]) if baseline else None
            rows[m["name"]] = summarize(values, m["bound"], m["better"], base)
            rows[m["name"]]["unit"] = m["unit"]
        incorrect = sum(not r["correct"] for r in results[w])
        summary["workloads"][w] = {
            "metrics": rows, "incorrect_runs": incorrect,
            "failed_ops": sum(r["failed"] for r in results[w]),
            "attempted_ops": sum(r["attempted"] for r in results[w]),
            "wall_s": [r["wall_s"] for r in results[w]],
        }
        print(f"\n{w}: {incorrect} incorrect runs, wall per run "
              f"{statistics.median(summary['workloads'][w]['wall_s']):.1f}s (median)")
        for name, row in rows.items():
            flags = []
            if row["spread_flag"]:
                flags.append("SPREAD > BOUND")
            if row.get("regression_flag"):
                flags.append("WORSE THAN BASELINE")
            flagged += bool(flags) or incorrect > 0
            extra = (f" vs baseline {100 * row['vs_baseline']:+.1f}%"
                     if "vs_baseline" in row else "")
            print(f"  {name:12s} median {row['median']:.6g} {row['unit']} "
                  f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}] spread "
                  f"{100 * row['spread']:.1f}% of bound {100 * row['bound']:.0f}%"
                  f"{extra} {' '.join(flags)}")
    out = Path(ROOT / args.write)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nsummary written to {args.write}; {flagged} flagged rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())

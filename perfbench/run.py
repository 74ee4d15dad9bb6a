"""Run one dyadiclab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-cascade60 --seed 0 --seconds 20 --trace 0

One client in one process issues each op only after the previous one returns
(a closed loop), with DYADICLAB_WORKERS=1.  A run repeats whole cycles of the
workload's ops, as many as take about ``--seconds`` of op time at the
reference speed, and checks every op's result.  A shared host's speed can
drift by 2x within minutes, so a short calibration loop runs between ops and
every reported time is scaled to the loop's reference speed (see ``Clock``).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced cycles and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object;
a record with the run header goes to ``perfbench/out/records/``.
"""
from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RECORD_DIR = Path("perfbench") / "out" / "records"
SETUP_REPEATS = 5
# the calibration loop's time on the reference machine (2-core x86_64,
# Python 3.11, numpy 2.4) in its fast state; times are scaled to this speed
REFERENCE_CALIBRATION_S = 0.0095
# workloads.WORKLOADS has the same names, but is known only after the import
WORKLOAD_NAMES = ("mc-cascade60", "cli-goodness-elbow", "cli-lattice-deep",
                  "exact-small")


def import_library():
    """Import the library from this checkout's ``src``; returns seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ["DYADICLAB_WORKERS"] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy  # noqa: F401
    import dyadiclab
    import workloads  # noqa: F401
    if src not in Path(dyadiclab.__file__).resolve().parents:
        raise ImportError(f"dyadiclab imported from {dyadiclab.__file__}, not {src}")
    return perf_counter() - _T0


def harrell_davis(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of the samples.

    It is a beta-weighted mean of all order statistics, so it moves smoothly
    when two samples swap ranks.  A plain sample quantile jumps from one op
    to the next when op times have gaps, as those of exact-small do.
    """
    import numpy as np
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    if n == 1 or b <= 0:
        return float(xs[-1])
    # the Beta(a, b) distribution function at i/n, by the midpoint rule
    steps = 100_000
    mid = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n,
                                np.linspace(0.0, 1.0, steps + 1), cdf))
    return float(weights @ xs)


def tail_latency(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are ten samples or fewer), by Harrell-Davis."""
    n = len(latencies)
    rank = n - 10 if n > 10 else n   # samples at or below the percentile
    return {"value_ms": 1000.0 * harrell_davis(latencies, rank / n),
            "percentile": 100.0 * rank / n, "samples": n, "beyond": n - rank}


def cycle_count(workload, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` of op time at reference speed.

    The count depends only on the workload and ``seconds``, so every run of
    a workload does the same ops and its quantiles compare across runs.
    """
    return max(1, round(seconds / workload.cycle_s))


def run_header(workload, seconds: float, trace: bool) -> dict:
    import numpy
    import dyadiclab
    return {
        "workload": workload.name, "seed": workload.seed,
        "reference_checked": workload.reference is not None,
        "op": workload.definition(), "ops_per_cycle": len(workload),
        "seconds": seconds, "cycles": cycle_count(workload, seconds),
        "trace": int(trace), "setup_repeats": SETUP_REPEATS,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "loop": "closed, one client, one process",
        "env": {"DYADICLAB_WORKERS": os.environ.get("DYADICLAB_WORKERS")},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "dyadiclab": dyadiclab.__version__,
        "machine": platform.machine(),
    }


def calibration_s() -> float:
    """Time one pass of a fixed loop of Python and small numpy operations.

    The loop mixes fancy indexing with building sets of numpy indices, as
    the cube and goodness stages do, but it calls no library code: a change
    to the library leaves it alone, while a slow spell of the machine slows
    it as it slows the ops.
    """
    import numpy as np
    start = perf_counter()
    d = np.random.default_rng(0).random((120, 120))
    acc = 0.0
    for i in range(300):
        idx = np.flatnonzero(d[i % 60, :60] < 0.3)
        seen = {int(k) for k in idx}
        doubled = {k: 2 * k for k in seen}
        acc += float(d[np.ix_(idx, idx)].min()) + sum(doubled.values()) % 7
        acc += sorted(seen)[0]
    for i in range(12):
        members = {y: set() for y in range(0, 120, 7)}
        for z in range(0, 120, 3):
            members[z // 7 * 7].update(int(k) for k in np.flatnonzero(d[z] < 0.2))
        acc += len([frozenset(v) for v in members.values()])
        acc += int(np.random.default_rng([i, 1]).integers(5))
    return perf_counter() - start


class Clock:
    """Scales each measured interval to the reference speed.

    The scale factor is the reference calibration time over the mean of the
    calibration runs just before and just after the interval.
    """

    def __init__(self):
        self.last = calibration_s()

    def scale(self, elapsed: float) -> float:
        now = calibration_s()
        factor = 2.0 * REFERENCE_CALIBRATION_S / (self.last + now)
        self.last = now
        return elapsed * factor


class Loop:
    """Runs whole cycles of ops, timing and checking each one."""

    def __init__(self, workload, clock: Clock):
        self.workload = workload
        self.clock = clock
        self.raw: list[float] = []         # measured op times, seconds
        self.latencies: list[float] = []   # the same, scaled to reference speed
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def cycle(self, run=None, idle=None) -> tuple[float, float]:
        """One pass over the workload's ops; returns the summed measured and
        scaled op times.

        ``run(op, j)`` runs op ``j`` in place of a plain call, and ``idle()``
        runs after each op, outside its timed interval.
        """
        w = self.workload
        raw = scaled = 0.0
        for j in range(len(w)):
            messages = []
            start = perf_counter()
            try:
                result = w.op(j) if run is None else run(w.op, j)
            except Exception as exc:  # an op that raises is a failed op
                result, messages = None, [f"op {w.key(j)} raised {exc!r}"]
            elapsed = perf_counter() - start
            latency = self.clock.scale(elapsed)
            if not messages:
                try:
                    messages = w.check(j, result)
                except Exception as exc:  # a malformed result fails its check
                    messages = [f"op {w.key(j)}: check raised {exc!r}"]
            self.raw.append(elapsed)
            self.latencies.append(latency)
            self.attempted += 1
            if messages:
                self.failed += 1
                self.failures.extend(messages)
            raw += elapsed
            scaled += latency
            if idle is not None:
                idle()
        return raw, scaled


def set_up(name: str, seed: int, import_s: float, clock: Clock, reference=None):
    """Set up SETUP_REPEATS times; returns the last workload and the scaled
    set-up times, each including the import time."""
    import workloads
    times = []
    import_s = clock.scale(import_s)
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload = workloads.WORKLOADS[name](seed, reference)
        workload.setup()
        workload.warm_up()
        times.append(import_s + clock.scale(perf_counter() - start))
    return workload, times


def measure(workload, clock: Clock, seconds: float, setup_times: list[float]):
    loop = Loop(workload, clock)
    gc.collect()
    spent = scaled = 0.0
    for _ in range(cycle_count(workload, seconds)):
        raw, more = loop.cycle()
        spent += raw
        scaled += more
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = tail_latency(loop.latencies)
    metrics = {
        "ops_per_s": (len(loop.latencies) / scaled, "1/s"),
        "op_ms_p50": (1000.0 * harrell_davis(loop.latencies, 0.5), "ms"),
        "op_ms_tail": (tail["value_ms"], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"tail": tail, "error_rate": loop.failed / loop.attempted,
            "measured_s": spent, "scaled_s": scaled,
            "measured_op_ms_p50": 1000.0 * harrell_davis(loop.raw, 0.5),
            "setup_times_s": setup_times}
    return loop, metrics, info, None


def measure_traced(workload, clock: Clock, seconds: float):
    import tracer as tracing
    loop = Loop(workload, clock)
    tr = tracing.Tracer()
    gc.collect()
    untraced = traced = traced_raw = 0.0
    for _ in range(max(1, round(cycle_count(workload, seconds) / 2))):
        untraced += loop.cycle()[1]
        tr.install()
        try:
            raw, scaled = loop.cycle(
                lambda op, j: tr.run_op(loop.attempted, op, j), tr.compact)
        finally:
            tr.uninstall()
        traced += scaled
        traced_raw += raw
    metrics = tr.metrics(time_scale=traced / traced_raw)
    metrics["tracing_overhead"] = (traced / untraced - 1.0, "ratio")
    info = {"untraced_scaled_s": untraced, "traced_scaled_s": traced,
            "traced_ops": tr.ops, "error_rate": loop.failed / loop.attempted}
    return loop, metrics, info, tr


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, reference=None, record: bool = True) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    clock = Clock()
    workload, setup_times = set_up(name, seed, import_s, clock, reference)
    try:
        if trace:
            loop, metrics, info, tr = measure_traced(workload, clock, seconds)
        else:
            loop, metrics, info, tr = measure(workload, clock, seconds, setup_times)
    finally:
        workload.teardown()
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    rec = {"header": run_header(workload, seconds, trace), "result": result,
           "info": info, "failures": loop.failures[:50],
           "op_ms": [1000.0 * x for x in loop.latencies],
           "measured_op_ms": [1000.0 * x for x in loop.raw]}
    if record:
        RECORD_DIR.mkdir(parents=True, exist_ok=True)
        stem = RECORD_DIR / f"{name}-seed{seed}-trace{int(trace)}"
        with open(f"{stem}.json", "w") as fh:
            json.dump(rec, fh, indent=1)
        if trace:
            tr.save_spans(f"{stem}-spans.npz")
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.chdir(ROOT)
    try:
        import_s = import_library()
    except ImportError as exc:
        sys.stderr.write(f"cannot import the library from this checkout: {exc}\n")
        return 2
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       import_s=import_s)
    h, info, result = rec["header"], rec["info"], rec["result"]
    print(f"# {h['workload']} seed={h['seed']} nproc={h['nproc']} "
          f"python={h['python']} numpy={h['numpy']} "
          f"DYADICLAB_WORKERS={h['env']['DYADICLAB_WORKERS']} "
          f"reference_checked={h['reference_checked']}")
    print(f"# op: {json.dumps(h['op'])}")
    for msg in rec["failures"]:
        print(f"# FAILED {msg}")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {info['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    if "tail" in info:
        t = info["tail"]
        print(f"op_ms_tail is p{t['percentile']:.2f} of {t['samples']} ops "
              f"({t['beyond']} beyond)")
        print(f"unscaled op_ms_p50 = {info['measured_op_ms_p50']:.6g} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: load spaces, run verification suites, emit reports.

Subcommands: ``validate``, ``grids``, ``lattice``, ``coloring``, ``goodness``,
``a2``.  Every randomized run requires an explicit seed and is fully
deterministic: the same input, configuration, and seed produce byte-identical
reports.  Exit codes: 0 all checks passed, 1 at least one assertion failed,
2 bad configuration, 3 bad input.  Worker fan-out for trial loops is
controlled by the DYADICLAB_WORKERS environment variable, an integer of at
least 1 (1 when unset or empty; any other value is bad configuration);
results do not depend on it.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DyadicLabError,
    InputError,
    MetricValidationError,
    InvalidParams,
    TooLargeForExhaustive,
)
from .coloring import (
    enumerate_proper_colorings,
    membership_probability,
    tree_experiment,
    verify_recoloring_injective,
)
from .goodness import (
    EPS_DIVISOR,
    GoodnessParams,
    _bad_probability_job,
    _decay_job,
    _eps_schedule,
    _really_good_job,
    _run,
    exact_good_probability,
)
from .grids import (DEFAULT_EXHAUSTIVE_LIMIT, MODES, _scale_or_inf, build_nested_grids,
                    finest_level, hierarchy_to_json)
from .lattice import (
    build_forest,
    check_cube_cover,
    check_grid_cover,
    check_forest_invariants,
    forest_to_json,
    scan_chain_separation,
)
from .mc import worker_count
from .measures import (
    a2_characteristic,
    growth_constant,
    measure_doubling_constant,
    weighted_measure_from_maps,
)
from .metric import _require_integer, load_space, max_ball_occupancy

SCHEMA = "dyadiclab-report/1"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3


def _frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _load(path: str):
    try:
        return load_space(path)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except (MetricValidationError, InvalidParams, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid space input: {exc}") from exc


def _seed(text: str) -> int:
    return _require_integer("seed", int(text), 0, argparse.ArgumentTypeError)


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _verdict(checks: list, data: dict) -> tuple[dict, int]:
    """The report body and its exit code, 1 when any check failed."""
    code = EXIT_OK if all(c["pass"] for c in checks) else EXIT_ASSERTION
    return {"checks": checks, "data": data}, code


def _hierarchy(args, space):
    """The seeded hierarchy of ``grids`` and ``lattice``, and its generator."""
    rng = np.random.default_rng(args.seed)
    hierarchy = build_nested_grids(space, args.delta, args.n0, rng=rng,
                                   mode=args.mode, limit=args.limit,
                                   freeze_above=args.freeze_above)
    return hierarchy, rng


def _parse_eps(raw: str | None, delta: float, gamma: float) -> list[float]:
    """The --eps-schedule values, or the default schedule when none is given.
    Every comma-separated value must be a number: an empty one is refused,
    not dropped.  A default schedule that underflows to 0, at a tiny delta
    or a large gamma, or whose values are not strictly decreasing, at a tiny
    gamma, is refused as the default's, not as a value given."""
    if raw:
        tokens = raw.split(",")
        if not all(tok.strip() for tok in tokens):
            raise ConfigError(f"bad --eps-schedule: empty value in {raw!r}")
        try:
            return [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ConfigError(f"bad --eps-schedule: {exc}") from exc
    base = delta / EPS_DIVISOR
    ratio = delta ** gamma
    schedule = [base * ratio ** j for j in range(6)]
    if not min(schedule) > 0:
        raise ConfigError(f"the default eps schedule underflows to 0 at delta={delta!r} and "
                          f"gamma={gamma!r}; give --eps-schedule")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError(f"the default eps schedule is not strictly decreasing at "
                          f"delta={delta!r} and gamma={gamma!r}; give --eps-schedule")
    return schedule


# --- subcommands -----------------------------------------------------------------

def _cmd_validate(args) -> tuple[dict, int]:
    checks: list = []
    data: dict = {}
    try:
        space = _load(args.input)
    except InputError as exc:
        _check(checks, "metric_axioms", False, str(exc))
        return {"checks": checks, "data": data}, EXIT_INPUT
    _check(checks, "metric_axioms", True, f"{len(space)} points")
    data["points"] = list(space.points)
    data["min_distance"] = space.min_distance if len(space) > 1 else None
    data["diameter"] = space.diameter
    return _verdict(checks, data)


def _level_rows(levels, check, fields) -> tuple[list, bool]:
    """One report row per level, ``fields(check(level))`` or the error the
    check raised, and whether every level passed."""
    rows, ok = [], True
    for level in levels:
        try:
            rows.append({"level": level, **fields(check(level))})
        except DyadicLabError as exc:
            ok = False
            rows.append({"level": level, "error": str(exc)})
    return rows, ok


def _cmd_grids(args) -> tuple[dict, int]:
    space = _load(args.input)
    checks: list = []
    hierarchy, _ = _hierarchy(args, space)
    rows, cover_ok = _level_rows(
        hierarchy.levels, lambda level: check_grid_cover(hierarchy, level),
        lambda rep: {"max_distance": rep.max_distance, "bound": rep.bound,
                     "sharp_bound": rep.sharp_bound, "sharp_ok": rep.sharp_ok})
    _check(checks, "grid_cover_within_3_scale", cover_ok)
    data = {"hierarchy": hierarchy_to_json(hierarchy), "cover": rows}
    return _verdict(checks, data)


def _cmd_lattice(args) -> tuple[dict, int]:
    space = _load(args.input)
    checks: list = []
    hierarchy, rng = _hierarchy(args, space)
    forest = build_forest(hierarchy, rng)
    cover_rows, cover_ok = _level_rows(
        hierarchy.levels, lambda level: check_cube_cover(forest, level),
        lambda rep: {"multi_covered": [space.name(i) for i in rep.multi_covered]})
    _check(checks, "cube_cover", cover_ok)
    inv = check_forest_invariants(forest)
    _check(checks, "forest_invariants", inv.ok, "; ".join(inv.violations[:3]))
    scan = scan_chain_separation(forest)
    _check(checks, "chain_separation", scan.ok,
           f"verified={scan.verified} vacuous={scan.vacuous}")
    data = {
        "forest": forest_to_json(forest),
        "cube_cover": cover_rows,
        "invariants": {"max_ancestor_ratio": inv.max_ancestor_ratio,
                       "max_diameter_ratio": inv.max_diameter_ratio,
                       "violations": inv.violations},
        "chain_scan": {"verified": scan.verified, "vacuous": scan.vacuous,
                       "violations": [list(v) for v in scan.violations]},
    }
    return _verdict(checks, data)


def _cmd_coloring(args) -> tuple[dict, int]:
    space = _load(args.input)
    checks: list = []
    universe = enumerate_proper_colorings(space, limit=args.limit)
    floor = Fraction(1, 2 ** universe.d)
    paper_floor = Fraction(1, 2 ** max(universe.d - 1, 0))
    vertices = []
    floor_ok = True
    paper_tally = 0
    for v in range(len(space)):
        prob = membership_probability(universe, v)
        floor_ok &= prob >= floor
        paper_tally += prob >= paper_floor
        vertices.append({"point": space.name(v), "probability": _frac(prob)})
    _check(checks, "membership_floor_2^-d", floor_ok, f"d={universe.d}")
    inj_ok = True
    detail = ""
    for v in range(len(space)):
        try:
            rep = verify_recoloring_injective(universe, v)
            inj_ok &= rep.ok
            if not rep.ok:
                detail = f"improper or out-of-zone outputs at v={space.name(v)}"
        except DyadicLabError as exc:
            inj_ok = False
            detail = str(exc)
    _check(checks, "recoloring_injective", inj_ok, detail)
    tree_prob = tree_experiment(args.tree_branching, args.tree_height,
                                limit=args.limit)
    tree_ok = tree_prob > Fraction(1, 16) if args.tree_branching == 3 else True
    _check(checks, "tree_root_probability", tree_ok,
           f"{tree_prob} (branching={args.tree_branching}, height={args.tree_height})")
    data = {
        "colorings": len(universe),
        "d": universe.d,
        "vertices": vertices,
        "paper_floor_satisfied": {"count": int(paper_tally), "of": len(space)},
        "tree_probability": _frac(tree_prob),
    }
    return _verdict(checks, data)


def _cmd_goodness(args) -> tuple[dict, int]:
    if args.freeze_above is not None:
        raise ConfigError("--freeze-above applies to grids and lattice only")
    space = _load(args.input)
    checks: list = []
    try:
        params = GoodnessParams(delta=args.delta, gamma=args.gamma, r=args.r)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    # the schedule is read before any trial runs
    eps = _eps_schedule(_parse_eps(args.eps_schedule, args.delta, args.gamma), params.delta)
    level = args.level if args.level is not None else finest_level(
        space, args.delta, args.n0)
    center = args.center if args.center is not None else space.name(0)
    workers = worker_count()
    # one run of the estimators' jobs, each on its own stream
    jobs = [_bad_probability_job(space, level, center, params, args.trials, args.seed),
            _decay_job(space, center, level, eps, args.trials, args.seed + 1, params, args.n0)]

    p_q, refusal = None, None
    note = f"plugin estimate, the exact identity needs {MODES[0]}, not {args.mode}"
    if args.mode == MODES[0]:  # the exact law is that of uniform grids
        try:
            p_q = exact_good_probability(space, center, level, params,
                                         coarsest_level=args.n0, limit=args.limit)
        except TooLargeForExhaustive as exc:
            note = f"plugin estimate, exact enumeration refused: {exc}"
        except DyadicLabError as exc:  # raised after the trials, which may refuse first
            refusal = exc
    if p_q:
        d = max_ball_occupancy(space, _scale_or_inf(args.delta, level - 1))
        a = min(Fraction(1, 2 ** d), p_q)
        jobs.append(_really_good_job(space, center, level, params, float(a), float(p_q),
                                     args.trials, args.seed + 2))
    est, fit, *really_good = _run(jobs, space, params, args.n0, args.mode, args.limit,
                                  args.trials, workers)
    if refusal is not None:
        raise refusal
    _check(checks, "bad_probability_upper_half", est.wilson_high <= 0.5,
           f"fraction={est.fraction:.6f} wilson=({est.wilson_low:.6f},{est.wilson_high:.6f})")
    _check(checks, "theorem_step", est.step_violations == 0,
           f"violations={est.step_violations}")
    monotone = all(x >= y for x, y in zip(fit.estimates, fit.estimates[1:]))
    _check(checks, "boundary_decay_monotone", monotone)

    if p_q is None:
        # plugin estimate; biased, reported without a verdict
        p_hat = max(1.0 - est.fraction, 1.0 / args.trials)
        equalization = {"p_q_plugin": p_hat, "note": note}
    elif p_q > 0:
        freq, = really_good
        sigma = (float(a) * (1 - float(a)) / args.trials) ** 0.5
        _check(checks, "equalization_frequency",
               abs(freq - float(a)) <= 4 * sigma,
               f"freq={freq:.6f} target={float(a):.6f}")
        equalization = {"p_q": _frac(p_q), "a": _frac(a), "frequency": freq}
    else:
        equalization = {"p_q": _frac(p_q), "note": "cube is never good"}

    data = {
        "params": {"delta": params.delta, "gamma": params.gamma, "r": params.r,
                   "level": level, "center": center, "trials": args.trials,
                   "seed": args.seed, "mode": args.mode},
        "bad_probability": {"fraction": est.fraction, "bad": est.bad_count,
                            "trials": est.trials,
                            "wilson": [est.wilson_low, est.wilson_high]},
        "decay": {"eps": list(fit.eps), "counts": list(fit.counts),
                  "estimates": list(fit.estimates),
                  "intervals": [list(iv) for iv in fit.intervals],
                  "eta_hat": fit.eta_hat, "eta_reference": fit.eta_reference},
        "equalization": equalization,
    }
    return _verdict(checks, data)


def _cmd_a2(args) -> tuple[dict, int]:
    space = _load(args.input)
    checks: list = []
    try:
        with open(args.weights or args.input) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("top level is not a JSON object")
    except (OSError, ValueError) as exc:
        if args.weights:
            raise InputError(f"bad weights file: {exc}") from exc
        payload = {}  # CSV input: unit weights
    try:
        wm = weighted_measure_from_maps(space, payload.get("mu"), payload.get("w"))
    except DyadicLabError as exc:
        raise InputError(str(exc)) from exc
    value = a2_characteristic(space, wm)
    _check(checks, "a2_at_least_one", value >= 1.0, f"[w]={value}")
    growth = growth_constant(space, wm, args.m_exponent)
    doubling = measure_doubling_constant(space, wm)
    data = {
        "a2_characteristic": value,
        "growth": {"m": growth.m, "c_min": growth.c_min,
                   "witness_center": (space.name(growth.witness_center)
                                      if growth.witness_center >= 0 else None),
                   "witness_radius": growth.witness_radius},
        "measure_doubling_constant": doubling,
    }
    return _verdict(checks, data)


# --- wiring ----------------------------------------------------------------------

@cache  # built once per process; main parses each argv afresh
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadiclab",
        description="Random lattice laboratory on finite doubling metric spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seeded=True):
        p.add_argument("--input", required=True, help="space JSON or coordinate CSV")
        p.add_argument("--out", default="-", help="report path, '-' for stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--limit", type=int, default=DEFAULT_EXHAUSTIVE_LIMIT,
                       help="exhaustive enumeration cap")
        if seeded:
            p.add_argument("--delta", type=float, default=0.001)
            p.add_argument("--gamma", type=float, default=0.1)
            p.add_argument("--r", type=int, default=1)
            p.add_argument("--n0", type=int, default=0,
                           help="coarsest hierarchy level")
            p.add_argument("--seed", type=_seed, required=True)
            p.add_argument("--mode", default=MODES[0], choices=MODES)
            p.add_argument("--freeze-above", type=int, default=None,
                           help="grids, lattice: pin levels >= this index to "
                                "deterministic grids")

    common(sub.add_parser("validate", help="check the metric axioms"), seeded=False)
    common(sub.add_parser("grids", help="build nested grids and check covering"))
    common(sub.add_parser("lattice", help="build a forest and check cube properties"))
    p_col = sub.add_parser("coloring", help="exhaustive coloring probabilities")
    common(p_col, seeded=False)
    p_col.add_argument("--tree-branching", type=int, default=3)
    p_col.add_argument("--tree-height", type=int, default=2)
    p_good = sub.add_parser("goodness", help="good/bad cube Monte Carlo")
    common(p_good)
    p_good.add_argument("--trials", type=int, default=1000)
    p_good.add_argument("--level", type=int, default=None,
                        help="cube level (default: finest)")
    p_good.add_argument("--center", default=None, help="fixed cube center name")
    p_good.add_argument("--eps-schedule", default=None,
                        help="comma-separated decreasing layer widths")
    p_a2 = sub.add_parser("a2", help="weight characteristic and growth")
    common(p_a2, seeded=False)
    p_a2.add_argument("--weights", default=None,
                      help="JSON file with 'mu' and 'w' name->value maps")
    p_a2.add_argument("--m-exponent", type=float, default=1.0)
    return parser


_DISPATCH = {
    "validate": _cmd_validate,
    "grids": _cmd_grids,
    "lattice": _cmd_lattice,
    "coloring": _cmd_coloring,
    "goodness": _cmd_goodness,
    "a2": _cmd_a2,
}


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    decay = report.get("data", {}).get("decay")
    if decay:
        writer.writerow(["eps", "estimate", "ci_low", "ci_high"])
        for eps, est, (lo, hi) in zip(decay["eps"], decay["estimates"],
                                      decay["intervals"]):
            writer.writerow([eps, est, lo, hi])
        writer.writerow([])
    writer.writerow(["check", "pass", "detail"])
    for c in report["checks"]:
        writer.writerow([c["name"], c["pass"], c["detail"]])
    return buf.getvalue()


def _emit(report: dict, args) -> None:
    if args.format == "csv":
        text = _render_csv(report)
    else:
        try:
            text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:
            raise ConfigError("the report holds a non-finite number") from None
    try:
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the report: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    # the output destination is not part of the semantic configuration
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("subcommand", "out")}
    try:
        body, code = _DISPATCH[args.subcommand](args)
        _emit({"schema": SCHEMA, "subcommand": args.subcommand,
               "config": config, **body}, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except DyadicLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Seeded Monte Carlo plumbing: per-trial streams, Wilson intervals, worker fan-out."""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ConfigError, InvalidTrials

__all__ = ["Z95", "wilson_interval", "trial_rng", "loglog_slope",
           "worker_count", "run_chunked"]

# two-sided 95% normal quantile
Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidTrials("trials must be a positive integer")
    if not 0 <= successes <= trials:
        raise InvalidTrials("successes must lie in [0, trials]")
    z = Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent deterministic stream for one trial of a seeded experiment."""
    return np.random.default_rng([int(master_seed), int(index)])


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def worker_count() -> int:
    """Worker count from DYADICLAB_WORKERS; 1 (serial) when unset or empty.
    Raises ConfigError for any other value that is not an integer >= 1."""
    raw = os.environ.get("DYADICLAB_WORKERS", "")
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"DYADICLAB_WORKERS must be an integer >= 1, got {raw!r}")
    return int(raw)


def run_chunked(worker, payload, trials: int, workers: int = 1) -> np.ndarray:
    """Run ``worker(payload, lo, hi)`` over [0, trials) in contiguous chunks.

    The worker must return one row per trial; rows are concatenated in trial
    order, so results do not depend on the number of workers or on scheduling.
    """
    if trials < 1:
        raise InvalidTrials("trials must be a positive integer")
    workers = min(workers, trials)
    if workers <= 1:
        return np.asarray(worker(payload, 0, trials))
    bounds = np.linspace(0, trials, workers + 1, dtype=int).tolist()
    los, his = zip(*[(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(worker, itertools.repeat(payload), los, his))
    return np.concatenate(parts, axis=0)

"""Weights and measures on a finite space: two-weight characteristic, growth,
and measure doubling.

Suprema over balls are taken over closed balls with radii drawn from the
pairwise-distance set: on a finite space every ball realized by any radius
equals one of these, so the finite family attains the supremum.  The
small-radius degeneracy of growth conditions (point masses blow up as the
radius shrinks) is avoided by the same restriction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateMeasure, InvalidParams
from .metric import FiniteMetricSpace

__all__ = [
    "WeightedMeasure",
    "GrowthReport",
    "a2_characteristic",
    "growth_constant",
    "measure_doubling_constant",
    "weighted_measure_from_maps",
]


@dataclass(frozen=True)
class WeightedMeasure:
    """Per-point masses mu >= 0 (not all zero) and weights w > 0 where mu > 0.

    Both arrays are read-only copies of the caller's, so the checks below
    hold for the life of the object.
    """
    mu: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        w = np.array(self.w, dtype=float)
        for name, arr in (("mu", mu), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if mu.ndim != 1 or w.shape != mu.shape:
            raise InvalidParams("mu and w must be 1-d arrays of equal length")
        if np.any(mu < 0) or not np.all(np.isfinite(mu)):
            raise InvalidParams("masses must be finite and nonnegative")
        if mu.sum() <= 0:
            raise DegenerateMeasure("total mass must be positive")
        if np.any((mu > 0) & (w <= 0)) or not np.all(np.isfinite(w)):
            raise InvalidParams("weights must be finite and positive where mu > 0")


def weighted_measure_from_maps(space: FiniteMetricSpace,
                               mu: Mapping[str, float] | None,
                               w: Mapping[str, float] | None) -> WeightedMeasure:
    """Build from name->value maps; missing mu defaults to 1, missing w to 1."""
    def values(label: str, given: Mapping[str, float] | None) -> np.ndarray:
        if given is None:
            return np.ones(len(space))
        if not isinstance(given, Mapping):
            raise InvalidParams(f"{label} is not a map from point names to values")
        out = np.empty(len(space))
        for i, name in enumerate(space.points):
            if name not in given:
                raise InvalidParams(f"{label} map lacks point {name!r}")
            try:
                out[i] = float(given[name])
            except (TypeError, ValueError) as exc:
                raise InvalidParams(
                    f"{label} map has a non-numeric value at point {name!r}") from exc
        known = set(space.points)
        for key in given:
            if key not in known:
                raise InvalidParams(f"{label} map names point {key!r}, which the space lacks")
        return out

    return WeightedMeasure(mu=values("mu", mu), w=values("w", w))


def _require_measure_of(space: FiniteMetricSpace, wm: WeightedMeasure) -> None:
    """Raise InvalidParams unless the measure has one mass per point of the space."""
    if len(wm.mu) != len(space):
        raise InvalidParams(
            f"the measure has {len(wm.mu)} masses but the space has {len(space)} points")


def a2_characteristic(space: FiniteMetricSpace, wm: WeightedMeasure) -> float:
    """Supremum over closed balls of avg(w) * avg(1/w) with respect to mu.

    Balls of zero mass are skipped; the weight is inverted only where the
    measure charges the point.
    """
    _require_measure_of(space, wm)
    mu, w = wm.mu, wm.w
    winv = np.zeros_like(w)
    positive = mu > 0
    winv[positive] = 1.0 / w[positive]
    best = -np.inf
    for center in range(len(space)):
        row = space.d[center]
        for radius in np.unique(row):
            inside = row <= radius
            mass = mu[inside].sum()
            if mass <= 0:
                continue
            avg_w = float((w[inside] * mu[inside]).sum() / mass)
            avg_winv = float((winv[inside] * mu[inside]).sum() / mass)
            best = max(best, avg_w * avg_winv)
    return best


@dataclass(frozen=True)
class GrowthReport:
    """Minimal constant with mu(B(x, r)) <= C * r**m over the tested radii."""
    m: float
    c_min: float
    witness_center: int
    witness_radius: float


def growth_constant(space: FiniteMetricSpace, wm: WeightedMeasure,
                    m: float) -> GrowthReport:
    """Largest mu(B(x, r)) / r**m over centers and positive pairwise radii.

    A singleton has no positive radii; by convention its constant is 0.
    """
    _require_measure_of(space, wm)
    if not 0 < m < np.inf:
        raise InvalidParams("growth exponent must be positive and finite")
    radii = space.pairwise_distances()
    best, w_center, w_radius = 0.0, -1, 0.0
    for center in range(len(space)):
        row = space.d[center]
        for r in radii:
            value = float(wm.mu[row <= r].sum() / r ** m)
            if value > best:
                best, w_center, w_radius = value, center, r
    return GrowthReport(m=m, c_min=best, witness_center=w_center,
                        witness_radius=w_radius)


def measure_doubling_constant(space: FiniteMetricSpace, wm: WeightedMeasure) -> float:
    """Largest mu(B(x, 2r)) / mu(B(x, r)) over centers and pairwise radii.

    Only balls of positive mass enter; with no positive pairwise radii the
    constant is 1 (balls cannot grow).
    """
    _require_measure_of(space, wm)
    mu = wm.mu
    radii = space.pairwise_distances()
    best = 1.0
    for center in range(len(space)):
        row = space.d[center]
        for r in radii:
            inner = mu[row <= r].sum()
            if inner <= 0:
                continue
            outer = mu[row <= 2 * r].sum()
            best = max(best, float(outer / inner))
    return best

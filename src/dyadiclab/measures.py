"""Weights and measures on a finite space: two-weight characteristic, growth,
and measure doubling.

Suprema over balls are taken over closed balls: a center of a finite space
has at most one distinct ball per entry of its distance row, so a finite
family of radii attains each supremum.  ``_ball_sums`` sums each center's
distinct balls once, and states which radii each supremum reads.
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


def _ball_sums(space: FiniteMetricSpace, values: tuple[np.ndarray, ...]):
    """Per center x: the distinct entries of d[x] in ascending order, 0 first,
    and an array of each value vector v summed once over each closed ball
    B(x, r) at those radii, as v[d[x] <= r].sum(), one row per vector.

    Two radius families read these sums.  The characteristic ranges over
    each center's own radii, 0 included.  Growth and doubling range over the
    positive pairwise distances r (and 2r), each read at the center's largest
    own radius <= r, which bounds the same ball; the pairwise family keeps
    growth clear of the point masses that blow up as the radius shrinks.
    """
    for row in space.d:
        radii = np.unique(row)
        masks = [row <= r for r in radii]
        yield radii, np.array([[v[inside].sum() for inside in masks] for v in values])


def a2_characteristic(space: FiniteMetricSpace, wm: WeightedMeasure) -> float:
    """Supremum over closed balls of avg(w) * avg(1/w) with respect to mu.

    Balls of zero mass are skipped; the weight is inverted only where the
    measure charges the point.
    """
    _require_measure_of(space, wm)
    mu, w = wm.mu, wm.w
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=mu > 0)
    best = -np.inf
    for _, sums in _ball_sums(space, (mu, w * mu, winv * mu)):
        mass, w_mass, winv_mass = sums[:, sums[0] > 0]
        best = max([best, *(w_mass / mass * (winv_mass / mass)).tolist()])
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

    A singleton has no positive radii; by convention its constant is 0.  An
    exponent at which some r**m overflows or is 0, or the total mass over it
    overflows, is refused, so no ratio leaves the float range.
    """
    _require_measure_of(space, wm)
    if not 0 < m < np.inf:
        raise InvalidParams("growth exponent must be positive and finite")
    radii = space.pairwise_distances()
    try:
        powers = np.array([r ** m for r in radii])
    except OverflowError:
        powers = np.zeros(1)
    least = float(powers.min(initial=np.inf))
    if not (least > 0 and float(wm.mu.sum()) / least < np.inf):
        raise InvalidParams(
            f"growth exponent {m} takes some r**m, or mu(X) / r**m, out of float range")
    best, w_center, w_radius = 0.0, -1, 0.0
    for center, (balls, (mass,)) in enumerate(_ball_sums(space, (wm.mu,))):
        values = mass[np.searchsorted(balls, radii, side="right") - 1] / powers
        if values.max(initial=0.0) > best:
            i = int(values.argmax())
            best, w_center, w_radius = float(values[i]), center, radii[i]
    return GrowthReport(m=m, c_min=best, witness_center=w_center,
                        witness_radius=w_radius)


def measure_doubling_constant(space: FiniteMetricSpace, wm: WeightedMeasure) -> float:
    """Largest mu(B(x, 2r)) / mu(B(x, r)) over centers and pairwise radii.

    Only balls of positive mass enter; with no positive pairwise radii the
    constant is 1 (balls cannot grow).
    """
    _require_measure_of(space, wm)
    radii = space.pairwise_distances()
    both = [radii, [2 * r for r in radii]]
    best = 1.0
    for balls, (mass,) in _ball_sums(space, (wm.mu,)):
        inner, outer = mass[np.searchsorted(balls, both, side="right") - 1]
        charged = inner > 0
        best = max([best, *(outer[charged] / inner[charged]).tolist()])
    return best

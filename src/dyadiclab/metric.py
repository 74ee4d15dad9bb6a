"""Finite metric spaces: validation, balls, occupancy, generators.

All geometry in the package runs against a validated distance matrix.  Points
are addressed by integer index; every space also carries a tuple of opaque
string names used for serialization and reports.  Threshold comparisons are
exact floating comparisons with no tolerance; a ball is open, d < radius,
unless ``ball`` is asked for a closed one, and generated spaces promise no
margin: ``grid_points`` spaces put distances exactly on thresholds such as
delta**k, and Euclidean clouds can fail the exact triangle check by one ulp.
``make_space`` redraws such a cloud from the same stream, as it redraws one
that breaks ``min_sep``, and refuses the parameters when 200 draws all fail.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from functools import cached_property, partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DuplicatePoint,
    InvalidParams,
    NonzeroDiagonal,
    TriangleViolation,
    UnknownPoint,
)

__all__ = [
    "FiniteMetricSpace",
    "validate_metric",
    "space_from_coords",
    "ball",
    "max_ball_occupancy",
    "set_distance",
    "make_space",
    "load_space",
    "save_space",
]


def _integer(value) -> int | None:
    """The value as an int when it is an int or a NumPy integer, else None.
    A bool is refused, though ``operator.index(True)`` is 1: it is no index,
    level or count."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _require_integer(name: str, value, least: int | None = None, error=InvalidParams) -> int:
    """The value as an int by the rule of ``_integer``, and at least ``least``
    when one is given; else ``error`` naming the parameter.  The package's
    integer inputs are read here, so their refusals read alike:
    ``<name> must be an integer[ >= least], got <repr>``."""
    i = _integer(value)
    if i is None or (least is not None and i < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return i


def _generator(rng) -> np.random.Generator:
    """``np.random.default_rng(rng)``, refusing a bool as ``_integer`` does."""
    if isinstance(rng, (bool, np.bool_)):
        raise InvalidParams("rng must be a Generator, an integer seed or None, not a bool")
    return np.random.default_rng(rng)


class FiniteMetricSpace:
    """A finite point set with a validated distance matrix.

    Immutable after construction; the matrix is marked read-only, so instances
    are safe for concurrent reads.  Construct through :func:`validate_metric`
    (or the generators below), not directly.
    """

    def __init__(self, points: Sequence[str], d: np.ndarray):
        self.points: tuple[str, ...] = tuple(str(p) for p in points)
        mat = np.array(d, dtype=float)
        mat.setflags(write=False)
        self.d: np.ndarray = mat
        self._index = {name: i for i, name in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={len(self)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownPoint(f"no point named {name!r}") from None

    def resolve(self, point: int | str) -> int:
        """Normalize a point given by index or name to its index.  An index is
        an int or a NumPy integer: ``int`` would truncate 1.5, or True, to 1."""
        if isinstance(point, str):
            return self.index(point)
        i = _integer(point)
        if i is None:
            raise UnknownPoint(f"point {point!r} is neither a name nor an integer index")
        if not 0 <= i < len(self):
            raise UnknownPoint(f"index {point} out of range for n={len(self)}")
        return i

    def name(self, i: int) -> str:
        return self.points[i]

    def distance(self, a: int | str, b: int | str) -> float:
        return float(self.d[self.resolve(a), self.resolve(b)])

    @cached_property
    def min_distance(self) -> float:
        """Smallest positive pairwise distance; +inf for a singleton."""
        n = len(self)
        if n < 2:
            return math.inf
        off = self.d[~np.eye(n, dtype=bool)]
        return float(off.min())

    @property
    def diameter(self) -> float:
        return float(self.d.max()) if len(self) else 0.0

    def pairwise_distances(self) -> list[float]:
        """Sorted distinct positive pairwise distances."""
        return np.unique(self.d[np.triu_indices(len(self), 1)]).tolist()

    def rescale(self, factor: float) -> "FiniteMetricSpace":
        """New space with every distance divided by ``factor``."""
        if not 0 < factor < math.inf:
            raise InvalidParams("rescale factor must be positive and finite")
        return FiniteMetricSpace(self.points, self.d / factor)

    def to_json(self) -> dict:
        return {"points": list(self.points), "dist": self.d.tolist()}


def validate_metric(matrix, points: Sequence[str] | None = None) -> FiniteMetricSpace:
    """Validate a square matrix against the metric axioms.

    Checks, in order: that the entries are integers or floats, shape,
    nonnegativity, zero diagonal, symmetry, absence of duplicate points, and
    the triangle inequality.  The first violation found is raised with its
    witness indices; the triangle check reports the lexicographically
    smallest violating triple (i, j, k) with dist(i,k) > dist(i,j) + dist(j,k),
    and by how much dist(i,k) exceeds that floating sum: always positive, and
    as small as one ulp when rounding alone breaks the inequality.
    """
    try:
        d = np.asarray(matrix)
    except ValueError:  # a ragged matrix: name the first row that is no list or
        # whose length is not row 0's, or the first entry that is no scalar
        for i, row in enumerate(matrix):
            if not isinstance(row, (list, tuple)):
                raise InvalidParams(f"row {i} must be a list, got {row!r}") from None
            if len(row) != len(matrix[0]):
                raise InvalidParams(
                    f"row {i} has {len(row)} entries, row 0 has {len(matrix[0])}") from None
            for j, entry in enumerate(row):
                if not np.isscalar(entry):
                    raise InvalidParams(
                        f"row {i} entry {j} must be a number, got {entry!r}") from None
    if d.dtype.kind not in "iuf":  # strings, bools, objects; bools among numbers become ints
        raise InvalidParams(f"distances must be numbers, got entries of dtype {d.dtype}")
    d = d.astype(float, copy=False)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidParams(f"matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if points is None:
        points = [f"p{i}" for i in range(n)]
    if isinstance(points, (str, Mapping)):  # a str or dict would load its letters or keys
        raise InvalidParams("points must be a list of names")
    if len(points) != n:
        raise InvalidParams("points list length must match the matrix size")
    if len({str(p) for p in points}) != n:  # the space keeps the str names
        raise InvalidParams("point names must be distinct")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise InvalidParams("distances must be finite and nonnegative")
    diag = np.flatnonzero(np.diagonal(d) != 0)
    if diag.size:
        i = int(diag[0])
        raise NonzeroDiagonal(i, float(d[i, i]))
    # Each mask below is symmetric and false on the diagonal, so its first
    # true entry in row-major order is the first pair (i, j), i < j.
    asym = np.flatnonzero(d != d.T)
    if asym.size:
        i, j = divmod(int(asym[0]), n)
        raise AsymmetricMatrix(i, j, float(d[i, j]), float(d[j, i]))
    dup = np.flatnonzero((d == 0) & ~np.eye(n, dtype=bool))
    if dup.size:
        raise DuplicatePoint(*divmod(int(dup[0]), n))
    # A violation (i, j, k) implies (k, j, i) on a symmetric matrix, so the
    # smallest one has i < k and only the columns k > i are tested.  j == i
    # and k == j cannot fire on a zero diagonal.  Row c of sums holds
    # dist(k, j) + dist(i, j), k = i + 1 + c, over every j: on a symmetric
    # matrix, and as IEEE addition commutes, the very sums dist(i, j) +
    # dist(j, k) of the definition, so row i fires on its least sum per k
    # exactly when some triple (i, j, k) does, and only then is the
    # element-wise matrix built to find the witness.
    buf = np.empty((n, n))
    for i in range(n - 1):
        sums = np.add(d[i + 1:], d[i], out=buf[:n - 1 - i])
        if (d[i, i + 1:] > sums.min(axis=1)).any():
            tail = d[:, i + 1:]
            # bad[j, c]: dist(i, k) > dist(i, j) + dist(j, k) with k = i + 1 + c
            bad = tail[i] > d[i][:, None] + tail
            j, c = divmod(int(bad.argmax()), n - 1 - i)
            k = i + 1 + c
            raise TriangleViolation(i, j, k, float(d[i, k] - (d[i, j] + d[j, k])))
    return FiniteMetricSpace(points, d)


def space_from_coords(coords, names: Sequence[str] | None = None) -> FiniteMetricSpace:
    """Euclidean space on explicit coordinates (one row per point)."""
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    # an infinite or overflowing coordinate gives an inf or NaN distance,
    # which validate_metric refuses
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff ** 2).sum(axis=-1))
        d = (d + d.T) / 2.0  # exact symmetry despite rounding
    np.fill_diagonal(d, 0.0)
    if names is None:
        names = [f"p{i}" for i in range(len(pts))]
    return validate_metric(d, names)


# --- queries ------------------------------------------------------------------

def ball(space: FiniteMetricSpace, center: int | str, radius: float,
         mode: str = "open") -> frozenset[int]:
    """Members of the ball around ``center``: strict ``<`` (open) or ``<=`` (closed)."""
    c = space.resolve(center)
    if not radius >= 0:  # NaN too
        raise InvalidParams("radius must be nonnegative")
    row = space.d[c]
    if mode == "open":
        hit = row < radius
    elif mode == "closed":
        hit = row <= radius
    else:
        raise InvalidParams(f"mode must be 'open' or 'closed', got {mode!r}")
    return frozenset(int(i) for i in np.flatnonzero(hit))


def max_ball_occupancy(space: FiniteMetricSpace, radius: float) -> int:
    """Largest number of points in any open ball of the given radius."""
    if not radius > 0:  # NaN too
        raise InvalidParams("radius must be positive")
    counts = (space.d < radius).sum(axis=1)
    return int(counts.max())


def set_distance(space: FiniteMetricSpace, a: Iterable[int], b: Iterable[int]) -> float:
    """Min pairwise distance between two point sets; +inf if either is empty."""
    ia, ib = list(a), list(b)
    if not ia or not ib:
        return math.inf
    return float(space.d[np.ix_(ia, ib)].min())


# --- generators -----------------------------------------------------------------

def _tree_space(branching: int, height: int) -> FiniteMetricSpace:
    """Rooted tree with unit edges; distance is the shortest path through the LCA."""
    # the root-to-node paths, depth by depth, each depth in lexicographic order
    paths = [p for depth in range(height + 1)
             for p in itertools.product(range(branching), repeat=depth)]

    def distance(a: tuple, b: tuple) -> int:
        """Edges from a up to the paths' common prefix, then down to b."""
        common = next((m for m, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return len(a) + len(b) - 2 * common

    names = ["r" + "".join(f".{c}" for c in p) for p in paths]
    return FiniteMetricSpace(names, [[distance(a, b) for b in paths] for a in paths])


def _grid_space(shape: Sequence[int], spacing: float = 1.0) -> FiniteMetricSpace:
    if not shape:
        raise InvalidParams("grid shape must have at least one extent")
    coords = np.indices(shape).reshape(len(shape), -1).T
    return space_from_coords(coords * float(spacing))


def _cloud_space(rng: np.random.Generator, n: int, dim: int, scale: float,
                 min_sep: float, levels: int, branching: int, ratio: float,
                 spread: tuple[float, float]) -> FiniteMetricSpace:
    rounding = None  # the triangle failure of the last draw, if it had one
    for _ in range(200):
        if levels <= 0:
            pts = rng.uniform(0.0, scale, size=(n, dim))
        else:
            # hierarchical cascade: each level splits every center into
            # `branching` children offset by ~spread * scale * ratio^level
            centers = np.zeros((1, dim))
            for lev in range(1, levels + 1):
                step = scale * ratio ** (lev - 1)
                new = []
                for c in centers:
                    for _ in range(branching):
                        direction = rng.normal(size=dim)
                        direction /= np.linalg.norm(direction)
                        mag = rng.uniform(spread[0], spread[1]) * step
                        new.append(c + mag * direction)
                centers = np.asarray(new)
            if n > len(centers):
                raise InvalidParams(
                    f"cascade with branching={branching}, levels={levels} "
                    f"yields only {len(centers)} points, need {n}")
            pick = rng.permutation(len(centers))[:n]
            pts = centers[np.sort(pick)]
        if dim == 1:
            # exactly collinear points can break the exact triangle check
            # through rounding; a gentle parabola keeps strict real margins
            pts = np.column_stack([pts[:, 0], 0.05 * pts[:, 0] ** 2 / scale])
        try:
            space = space_from_coords(pts)
        except TriangleViolation as exc:
            # coordinates rounded to distances can break the exact check by
            # one ulp; such a draw is redrawn like one that is too dense
            rounding = exc
            continue
        rounding = None
        if space.min_distance > min_sep:
            return space
    if rounding is not None:
        raise InvalidParams(
            f"could not pass the exact triangle check after 200 attempts; "
            f"the last draw failed with {rounding}") from rounding
    raise InvalidParams("could not satisfy min_sep after 200 attempts")


def _snowflake(base: FiniteMetricSpace, alpha: float) -> FiniteMetricSpace:
    if not 0 < alpha <= 1:
        raise InvalidParams("snowflake exponent must lie in (0, 1]")
    return FiniteMetricSpace(base.points, base.d ** alpha)


def make_space(kind: str, seed: int | None = None, **params) -> FiniteMetricSpace:
    """Generate a test space: ``tree``, ``grid_points``, ``random_cloud``, or ``snowflake``.

    tree:          branching, height  (unit edge lengths)
    grid_points:   shape (tuple of extents), spacing
    random_cloud:  n, dim, scale, min_sep, and optionally levels/branching/ratio/spread
                   for a hierarchical cascade cloud; requires a seed
    snowflake:     base (a FiniteMetricSpace), alpha in (0, 1]

    Deterministic for a fixed seed.  A key the kind does not take is refused,
    and so is a seed, count or extent that is no integer (or a negative seed).
    """
    try:
        if kind == "tree":
            build = partial(_tree_space, _require_integer("branching", params.pop("branching"), 1),
                            _require_integer("height", params.pop("height"), 0))
        elif kind == "grid_points":
            shape = params.pop("shape")
            if not isinstance(shape, Iterable):
                raise InvalidParams(f"shape must be a sequence of extents, got {shape!r}")
            shape = tuple(_require_integer("shape extent", s, 1) for s in shape)
            build = partial(_grid_space, shape, params.pop("spacing", 1.0))
        elif kind == "random_cloud":
            if seed is None:
                raise InvalidParams("random_cloud requires a seed")
            build = partial(
                _cloud_space,
                np.random.default_rng(_require_integer("seed", seed, 0)),
                n=_require_integer("n", params.pop("n"), 1),
                dim=_require_integer("dim", params.pop("dim", 2), 1),
                scale=float(params.pop("scale", 1.0)),
                min_sep=float(params.pop("min_sep", 0.0)),
                levels=_require_integer("levels", params.pop("levels", 0)),
                branching=_require_integer("branching", params.pop("branching", 3), 1),
                ratio=float(params.pop("ratio", 0.1)),
                spread=tuple(params.pop("spread", (0.25, 0.45))),
            )
        elif kind == "snowflake":
            build = partial(_snowflake, params.pop("base"), float(params.pop("alpha")))
        else:
            raise InvalidParams(f"unknown space kind {kind!r}")
    except KeyError as exc:
        raise InvalidParams(f"missing parameter {exc} for kind {kind!r}") from None
    if params:
        raise InvalidParams(
            f"unknown parameters {sorted(params)} for kind {kind!r}")
    return build()


# --- input / output -------------------------------------------------------------

def load_space(path: str) -> FiniteMetricSpace:
    """Load a space from JSON ({"points", "dist"}) or a CSV of coordinates.

    CSV rows are coordinate vectors; an optional leading non-numeric field per
    row names the point.  The first row is a header only when it cannot be a
    data row, that is, unless it is all numbers or a name and then numbers.
    Every data row needs as many coordinates as data row 0, and at least one.
    """
    if str(path).endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise InvalidParams(f"{path}: top level is not a JSON object")
        return validate_metric(payload["dist"], payload.get("points"))
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append(row)
    if not rows:
        raise InvalidParams(f"no rows in {path}")

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    first = rows[0] if _numeric(rows[0][0]) else rows[0][1:]
    if not (first and all(_numeric(c) for c in first)):
        rows = rows[1:]
    names, coords = [], []
    for i, row in enumerate(rows):
        if _numeric(row[0]):
            names.append(f"p{i}")
            coords.append([float(c) for c in row])
        else:
            names.append(row[0])
            coords.append([float(c) for c in row[1:]])
        if not coords[i]:
            raise InvalidParams(f"{path}: row {i} has no coordinates")
        if len(coords[i]) != len(coords[0]):
            raise InvalidParams(f"{path}: row {i} has {len(coords[i])} coordinates, "
                                f"row 0 has {len(coords[0])}")
    return space_from_coords(coords, names)


def save_space(space: FiniteMetricSpace, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(space.to_json(), fh, sort_keys=True)
        fh.write("\n")

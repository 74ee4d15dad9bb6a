"""Definition-level oracles shared by several test files.

An oracle states one rule of the construction directly, per point and in
plain Python, and reads only the distance matrix, the grids and the data
classes and error types of ``dyadiclab``, never the library code it checks.
"""
import numpy as np

import dyadiclab as dl
from dyadiclab.errors import InvalidParams, NoCandidateParent
from dyadiclab.grids import Grid
from dyadiclab.lattice import CANDIDATE_FACTOR, CAPTURE_DIVISOR


# the per-child option list and the sampler that the per-level link rule
# replaced, kept verbatim
def reference_parent_options(space: dl.FiniteMetricSpace, child: int,
                             parents: Grid) -> list[int]:
    """Possible parents of a child: the captured one, or all within reach."""
    scale = parents.scale
    members = sorted(parents.members)
    captured = [p for p in members if space.d[child, p] <= scale / CAPTURE_DIVISOR]
    if len(captured) > 1:
        # impossible for a valid grid: two such parents would be within scale/2
        raise InvalidParams(
            f"grid at scale {scale} has two points within {scale / CAPTURE_DIVISOR} "
            f"of child {child}")
    if captured:
        return captured
    cands = [p for p in members if space.d[child, p] <= CANDIDATE_FACTOR * scale]
    if not cands:
        raise NoCandidateParent(
            f"child {child} has no parent within {CANDIDATE_FACTOR * scale}")
    return cands


def reference_assign_parents(space: dl.FiniteMetricSpace, children: Grid, parents: Grid,
                             rng: np.random.Generator | int | None) -> dict[int, int]:
    """Link every child to one parent; random choices are uniform and independent.

    Children are processed in index order, consuming one draw per child that
    is not captured, so the map is deterministic for a fixed generator state.
    """
    if not parents.members <= children.members:
        raise InvalidParams("parent grid must be a subset of the child grid")
    rng = np.random.default_rng(rng)
    out: dict[int, int] = {}
    for child in sorted(children.members):
        options = reference_parent_options(space, child, parents)
        if len(options) == 1:
            out[child] = options[0]
        else:
            out[child] = options[int(rng.integers(len(options)))]
    return out
